package occam_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"transputer/internal/core"
	"transputer/internal/network"
	"transputer/internal/occam"
	"transputer/internal/sim"
)

// Differential testing: random expression programs are compiled and
// run on the simulated transputer, and their results compared with a
// host-side reference evaluator implementing occam's semantics
// (32-bit words, truncating division, truth values 1/0).

// rexpr is a randomly generated expression with its reference value.
type rexpr struct {
	src string
	val int64
}

const wordMask = 0xFFFFFFFF

func toWord(v int64) int64 {
	u := uint64(v) & wordMask
	if u&0x80000000 != 0 {
		return int64(u | ^uint64(wordMask))
	}
	return int64(u)
}

// genExpr builds a random expression over variables a=env[0], b=env[1],
// c=env[2].  Every binary node is parenthesised, which occam always
// allows.  Overflow-prone shapes are avoided so checked arithmetic
// never traps: operands stay small and shift counts are literal.
func genExpr(rng *rand.Rand, env [3]int64, depth int) rexpr {
	if depth == 0 || rng.Intn(3) == 0 {
		switch rng.Intn(5) {
		case 0:
			n := int64(rng.Intn(10))
			return rexpr{fmt.Sprintf("%d", n), n}
		case 1:
			return rexpr{"a", env[0]}
		case 2:
			return rexpr{"b", env[1]}
		case 3:
			return rexpr{"c", env[2]}
		default:
			n := int64(rng.Intn(100))
			return rexpr{fmt.Sprintf("%d", n), n}
		}
	}
	l := genExpr(rng, env, depth-1)
	r := genExpr(rng, env, depth-1)
	switch rng.Intn(12) {
	case 0:
		return rexpr{"(" + l.src + " + " + r.src + ")", toWord(l.val + r.val)}
	case 1:
		return rexpr{"(" + l.src + " - " + r.src + ")", toWord(l.val - r.val)}
	case 2:
		// Keep products small.
		small := rexpr{fmt.Sprintf("%d", rng.Intn(5)), 0}
		small.val = mustParse(small.src)
		return rexpr{"(" + l.src + " * " + small.src + ")", toWord(l.val * small.val)}
	case 3:
		d := int64(rng.Intn(9) + 1)
		return rexpr{fmt.Sprintf("(%s / %d)", l.src, d), toWord(l.val / d)}
	case 4:
		d := int64(rng.Intn(9) + 1)
		return rexpr{fmt.Sprintf("(%s \\ %d)", l.src, d), toWord(l.val % d)}
	case 5:
		return rexpr{"(" + l.src + " /\\ " + r.src + ")", toWord(int64(uint64(l.val) & uint64(r.val)))}
	case 6:
		return rexpr{"(" + l.src + " \\/ " + r.src + ")", toWord(int64(uint64(l.val) | uint64(r.val)))}
	case 7:
		return rexpr{"(" + l.src + " >< " + r.src + ")", toWord(int64(uint64(l.val) ^ uint64(r.val)))}
	case 8:
		n := rng.Intn(6)
		return rexpr{fmt.Sprintf("(%s << %d)", l.src, n), toWord(int64(uint64(l.val)&wordMask) << uint(n))}
	case 9:
		n := rng.Intn(6)
		return rexpr{fmt.Sprintf("(%s >> %d)", l.src, n), toWord(int64((uint64(l.val) & wordMask) >> uint(n)))}
	case 10:
		return rexpr{"(" + l.src + " > " + r.src + ")", boolWord64(l.val > r.val)}
	default:
		return rexpr{"(" + l.src + " = " + r.src + ")", boolWord64(l.val == r.val)}
	}
}

func boolWord64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func mustParse(s string) int64 {
	var v int64
	fmt.Sscanf(s, "%d", &v)
	return v
}

// TestRandomExpressions compiles batches of random expressions and
// compares machine results against the reference evaluator.
func TestRandomExpressions(t *testing.T) {
	rng := rand.New(rand.NewSource(1985))
	const rounds = 12
	const perRound = 10
	for round := 0; round < rounds; round++ {
		env := [3]int64{int64(rng.Intn(200) - 100), int64(rng.Intn(200) - 100), int64(rng.Intn(50))}
		var exprs []rexpr
		var sb strings.Builder
		sb.WriteString("CHAN screen:\nPLACE screen AT LINK0OUT:\nVAR a, b, c:\nSEQ\n")
		fmt.Fprintf(&sb, "  a := %d\n  b := %d\n  c := %d\n", env[0], env[1], env[2])
		for i := 0; i < perRound; i++ {
			e := genExpr(rng, env, 3)
			exprs = append(exprs, e)
			fmt.Fprintf(&sb, "  screen ! 2; %s\n", e.src)
		}
		got := runRandom(t, sb.String())
		if len(got) != len(exprs) {
			t.Fatalf("round %d: got %d values, want %d\nprogram:\n%s", round, len(got), len(exprs), sb.String())
		}
		for i, e := range exprs {
			if got[i] != e.val {
				t.Errorf("round %d: %s = %d on the transputer, %d on the host (a=%d b=%d c=%d)",
					round, e.src, got[i], e.val, env[0], env[1], env[2])
			}
		}
	}
}

func runRandom(t *testing.T, src string) []int64 {
	t.Helper()
	values, _ := runWords(t, src, 4)
	return values
}

// runWords compiles src for a machine of wordBytes bytes a word (a T424
// or a T222), runs it with a host on link 0, and returns what the host
// took and whether the Error flag ended set.
func runWords(t *testing.T, src string, wordBytes int) ([]int64, bool) {
	t.Helper()
	comp, err := occam.Compile(src, occam.Options{WordBytes: wordBytes})
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	cfg := core.T424()
	if wordBytes == 2 {
		cfg = core.T222()
	}
	s := network.NewSystem()
	n := s.MustAddTransputer("m", cfg.WithMemory(32*1024))
	host, _ := s.AttachHost(n, 0, nil)
	if err := n.Load(comp.Image); err != nil {
		t.Fatal(err)
	}
	rep := s.Run(2 * sim.Second)
	if !rep.Settled {
		t.Fatalf("random program did not settle\n%s", src)
	}
	if err := n.M.Fault(); err != nil {
		t.Fatalf("fault: %v\n%s", err, src)
	}
	return host.Values, n.M.ErrorFlag()
}

// operandCase is one x op c, or c op x when constLeft, with a constant
// c: the forms the compiler turns into adc c, eqc c or a gt without rev.
type operandCase struct {
	op        string
	x, c      int64
	constLeft bool
}

func (oc operandCase) expr() string {
	lit := func(v int64) string {
		if v < 0 {
			return fmt.Sprintf("(%d)", v)
		}
		return fmt.Sprintf("%d", v)
	}
	if oc.constLeft {
		return fmt.Sprintf("%s %s x", lit(oc.c), oc.op)
	}
	return fmt.Sprintf("x %s %s", oc.op, lit(oc.c))
}

// want is what the case gives on a machine of bits-bit words compiled
// the plain way, c loaded by ldc and the operation the two-operand
// instruction: ldc keeps c's low bits, add and sub set the Error flag
// when the true result does not fit a word, and the comparisons never
// do.
func (oc operandCase) want(bits uint) (v int64, overflow bool) {
	word := func(v int64) int64 { return v << (64 - bits) >> (64 - bits) }
	l, r := oc.x, word(oc.c)
	if oc.constLeft {
		l, r = r, l
	}
	switch oc.op {
	case "+":
		v = l + r
	case "-":
		v = l - r
	case "=":
		return boolWord64(l == r), false
	case "<>":
		return boolWord64(l != r), false
	case "<":
		return boolWord64(l < r), false
	case ">=":
		return boolWord64(l >= r), false
	}
	return word(v), word(v) != v
}

// operandSource is a program that reports each case in turn.
func operandSource(cases []operandCase) string {
	var sb strings.Builder
	sb.WriteString("CHAN screen:\nPLACE screen AT LINK0OUT:\nVAR x:\nSEQ\n")
	for _, oc := range cases {
		fmt.Fprintf(&sb, "  x := %d\n  screen ! 2; %s\n", oc.x, oc.expr())
	}
	return sb.String()
}

// operandCases is every case at a word length: each operator the
// compiler gives a constant form, with the constant on either side, over
// the word's edges on both sides of it, and on the T222 constants wider
// than its word.
func operandCases(wordBytes int) []operandCase {
	bits := uint(8 * wordBytes)
	maxInt := int64(1)<<(bits-1) - 1
	edges := []int64{0, 1, -1, 15, 16, maxInt, -maxInt - 1}
	consts := edges
	if wordBytes == 2 {
		consts = append(consts[:len(consts):len(consts)], 32768, 65535, 65536+16, 70000, -70000, 1<<31-1, -1<<31)
	}
	var cases []operandCase
	for _, op := range []string{"+", "-", "=", "<>", "<", ">="} {
		for _, constLeft := range []bool{false, true} {
			for _, c := range consts {
				for _, x := range edges {
					cases = append(cases, operandCase{op: op, x: x, c: c, constLeft: constLeft})
				}
			}
		}
	}
	return cases
}

// TestConstantOperands holds the constant forms to what the plain forms
// computed, at both word lengths: x + c is adc c and x - c is adc -c,
// except where -c does not fit a word; x = c is eqc c and x <> c is
// eqc c then eqc 0; x < c and x >= c push c first and need no rev.  The
// value of each case must be the plain form's, and the Error flag set
// exactly when the plain form's add or sub overflows.  The cases that
// set it run one a program, the rest together.
func TestConstantOperands(t *testing.T) {
	for _, wb := range []int{4, 2} {
		bits := uint(8 * wb)
		var quiet []operandCase
		var wantQuiet []int64
		for _, oc := range operandCases(wb) {
			v, overflow := oc.want(bits)
			if !overflow {
				quiet, wantQuiet = append(quiet, oc), append(wantQuiet, v)
				continue
			}
			got, errFlag := runWords(t, operandSource([]operandCase{oc}), wb)
			if len(got) != 1 || got[0] != v || !errFlag {
				t.Errorf("%d-byte words, x = %d: %s gives %v, Error flag %v; want [%d], Error flag set",
					wb, oc.x, oc.expr(), got, errFlag, v)
			}
		}
		src := operandSource(quiet)
		got, errFlag := runWords(t, src, wb)
		if errFlag {
			t.Errorf("%d-byte words: a case that does not overflow sets the Error flag\n%s", wb, src)
		}
		if len(got) != len(quiet) {
			t.Fatalf("%d-byte words: %d values reported, want %d\n%s", wb, len(got), len(quiet), src)
		}
		for i, oc := range quiet {
			if got[i] != wantQuiet[i] {
				t.Errorf("%d-byte words, x = %d: %s gives %d, want %d", wb, oc.x, oc.expr(), got[i], wantQuiet[i])
			}
		}
	}
}

// TestRandomSeqParEquivalence: a set of independent assignments
// produces the same results run sequentially or in parallel (the
// disjointness occam requires makes SEQ and PAR equivalent here).
func TestRandomSeqParEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(424))
	for round := 0; round < 6; round++ {
		n := 4 + rng.Intn(4)
		var exprs []string
		for i := 0; i < n; i++ {
			e := genExpr(rng, [3]int64{3, 5, 7}, 2)
			exprs = append(exprs, e.src)
		}
		build := func(par bool) string {
			var sb strings.Builder
			sb.WriteString("CHAN screen:\nPLACE screen AT LINK0OUT:\nVAR a, b, c")
			for i := range exprs {
				fmt.Fprintf(&sb, ", r%d", i)
			}
			sb.WriteString(":\nSEQ\n  a := 3\n  b := 5\n  c := 7\n")
			if par {
				sb.WriteString("  PAR\n")
				for i, e := range exprs {
					fmt.Fprintf(&sb, "    r%d := %s\n", i, e)
				}
			} else {
				sb.WriteString("  SEQ\n")
				for i, e := range exprs {
					fmt.Fprintf(&sb, "    r%d := %s\n", i, e)
				}
			}
			for i := range exprs {
				fmt.Fprintf(&sb, "  screen ! 2; r%d\n", i)
			}
			return sb.String()
		}
		seq := runRandom(t, build(false))
		par := runRandom(t, build(true))
		if len(seq) != len(par) {
			t.Fatalf("round %d: %v vs %v", round, seq, par)
		}
		for i := range seq {
			if seq[i] != par[i] {
				t.Errorf("round %d result %d: SEQ %d, PAR %d (expr %s)", round, i, seq[i], par[i], exprs[i])
			}
		}
	}
}

// TestRandomReplicatedPlacedPar compiles random replicated PLACED PARs
// and the same programs written out by hand: an unreplicated PLACED PAR
// with a PROCESSOR for each value of i, in which i is a DEF and the
// configuration IF has become the branch that processor takes.  Every
// processor must compile to the same image both ways.
func TestRandomReplicatedPlacedPar(t *testing.T) {
	rng := rand.New(rand.NewSource(1983))
	for round := 0; round < 30; round++ {
		base, count := rng.Intn(5), 1+rng.Intn(6)
		mul, off := 1+rng.Intn(3), rng.Intn(4)
		// Guards the configuration IF may test, with their value in Go.
		type guard struct {
			src  string
			test func(i int) bool
		}
		cut, mod := base+rng.Intn(count+1), 2+rng.Intn(2)
		forms := []guard{
			{fmt.Sprintf("i < %d", cut), func(i int) bool { return i < cut }},
			{fmt.Sprintf("(i \\ %d) = 1", mod), func(i int) bool { return i%mod == 1 }},
			{fmt.Sprintf("d = %d", 2*base+1), func(i int) bool { return 2*i+1 == 2*base+1 }},
		}
		var guards []guard
		for n := rng.Intn(3); len(guards) < n; {
			guards = append(guards, forms[rng.Intn(len(forms))])
		}
		guards = append(guards, guard{"TRUE", func(int) bool { return true }})
		bodies := make([]string, len(guards))
		for b := range bodies {
			bodies[b] = randomProcessorBody(rng)
		}

		const shared = "DEF k = 3:\nPROC emit(CHAN c, VALUE v) =\n  c ! v\n:\n"
		var rep, plain strings.Builder
		rep.WriteString(shared)
		fmt.Fprintf(&rep, "PLACED PAR i = [%d FOR %d]\n  PROCESSOR (i * %d) + %d\n    DEF d = (i * 2) + 1:\n    IF\n", base, count, mul, off)
		for b, g := range guards {
			fmt.Fprintf(&rep, "      %s\n%s", g.src, indent(bodies[b], "        "))
		}
		plain.WriteString(shared + "PLACED PAR\n")
		for i := base; i < base+count; i++ {
			b := 0
			for !guards[b].test(i) {
				b++
			}
			fmt.Fprintf(&plain, "  PROCESSOR %d\n    DEF i = %d:\n    DEF d = (i * 2) + 1:\n%s", i*mul+off, i, indent(bodies[b], "    "))
		}

		for _, wb := range []int{4, 2} {
			got, err := occam.CompileConfigured(rep.String(), occam.Options{WordBytes: wb})
			if err != nil {
				t.Fatalf("round %d: %v\n%s", round, err, rep.String())
			}
			want, err := occam.CompileConfigured(plain.String(), occam.Options{WordBytes: wb})
			if err != nil {
				t.Fatalf("round %d, written out: %v\n%s", round, err, plain.String())
			}
			if len(got) != len(want) {
				t.Fatalf("round %d: %d processors, written out %d", round, len(got), len(want))
			}
			for n := range got {
				g, w := got[n].Compiled, want[n].Compiled
				if got[n].ID != want[n].ID || !bytes.Equal(g.Image.Code, w.Image.Code) || g.Image.Entry != w.Image.Entry ||
					g.Above != w.Above || g.Below != w.Below {
					t.Fatalf("round %d, %d-byte words: processor %d compiles differently from its written-out form\n%s\n%s",
						round, wb, got[n].ID, rep.String(), plain.String())
				}
			}
		}
	}
}

// randomProcessorBody is a small process for one branch of a random
// configuration IF: a link output of random expressions over i, d, k
// and variables, a call of the shared PROC, and an ordinary IF.
func randomProcessorBody(rng *rand.Rand) string {
	var sb strings.Builder
	sb.WriteString("CHAN out:\nPLACE out AT LINK1OUT:\nVAR a, b, c:\nSEQ\n")
	sb.WriteString("  a := i\n  b := (d + k)\n")
	fmt.Fprintf(&sb, "  c := %d\n", rng.Intn(50))
	for n := rng.Intn(3); n >= 0; n-- {
		fmt.Fprintf(&sb, "  out ! %s\n", genExpr(rng, [3]int64{}, 2).src)
	}
	if rng.Intn(2) == 0 {
		sb.WriteString("  emit(out, i + k)\n")
	}
	if rng.Intn(2) == 0 {
		fmt.Fprintf(&sb, "  IF\n    i > %d\n      out ! a\n    TRUE\n      out ! b\n", rng.Intn(4))
	}
	return sb.String()
}

// indent puts prefix before every line of text.
func indent(text, prefix string) string {
	var sb strings.Builder
	for _, line := range strings.SplitAfter(text, "\n") {
		if line != "" {
			sb.WriteString(prefix)
			sb.WriteString(line)
		}
	}
	return sb.String()
}
