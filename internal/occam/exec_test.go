package occam_test

import (
	"strings"
	"testing"

	"transputer/internal/core"
	"transputer/internal/isa"
	"transputer/internal/network"
	"transputer/internal/occam"
	"transputer/internal/sim"
)

// runOccam compiles a program, runs it on a 64 KiB T424 with a host on
// link 0, and returns the host (Values carries every word the program
// reported with "screen ! 2; value").
func runOccam(t *testing.T, src string) (*network.Host, network.Report) {
	t.Helper()
	comp, err := occam.Compile(src, occam.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	s := network.NewSystem()
	n := s.MustAddTransputer("main", core.T424().WithMemory(64*1024))
	host, herr := s.AttachHost(n, 0, nil)
	if herr != nil {
		t.Fatal(herr)
	}
	if err := n.Load(comp.Image); err != nil {
		t.Fatalf("load: %v", err)
	}
	rep := s.Run(2 * sim.Second)
	if ferr := n.M.Fault(); ferr != nil {
		t.Fatalf("fault: %v", ferr)
	}
	if !rep.Settled {
		t.Fatalf("program did not settle: %+v", rep)
	}
	return host, rep
}

// values runs a program and returns the words it reported.
func values(t *testing.T, src string) []int64 {
	t.Helper()
	host, _ := runOccam(t, src)
	return host.Values
}

// report is the standard test prologue: a placed host channel.
const report = `CHAN screen:
PLACE screen AT LINK0OUT:
`

func wantValues(t *testing.T, got []int64, want ...int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("reported %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reported %v, want %v", got, want)
		}
	}
}

func TestAssignAndReport(t *testing.T) {
	got := values(t, report+`VAR x:
SEQ
  x := 42
  screen ! 2; x
`)
	wantValues(t, got, 42)
}

func TestArithmetic(t *testing.T) {
	got := values(t, report+`VAR v, w, y, z, r:
SEQ
  v := 3
  w := 4
  y := 5
  z := 6
  r := (v + w) * (y + z)
  screen ! 2; r
  screen ! 2; (100 - 1) - 9
  screen ! 2; 100 / 7
  screen ! 2; 100 \ 7
  screen ! 2; - v
  screen ! 2; (12 /\ 10)
  screen ! 2; (12 \/ 10)
  screen ! 2; (12 >< 10)
  screen ! 2; (3 << 4)
  screen ! 2; (48 >> 4)
`)
	wantValues(t, got, 77, 90, 14, 2, -3, 8, 14, 6, 48, 3)
}

func TestComparisons(t *testing.T) {
	got := values(t, report+`SEQ
  screen ! 2; (3 = 3)
  screen ! 2; (3 <> 3)
  screen ! 2; (3 < 4)
  screen ! 2; (4 < 3)
  screen ! 2; (4 > 3)
  screen ! 2; (3 >= 3)
  screen ! 2; (3 <= 2)
  screen ! 2; (TRUE AND FALSE)
  screen ! 2; (TRUE OR FALSE)
  screen ! 2; NOT TRUE
`)
	wantValues(t, got, 1, 0, 1, 0, 1, 1, 0, 0, 1, 0)
}

func TestIfAndWhile(t *testing.T) {
	got := values(t, report+`VAR x, sum:
SEQ
  x := 10
  sum := 0
  WHILE x > 0
    SEQ
      sum := sum + x
      x := x - 1
  screen ! 2; sum
  IF
    sum = 55
      screen ! 2; 1
    TRUE
      screen ! 2; 0
`)
	wantValues(t, got, 55, 1)
}

func TestReplicatedSeq(t *testing.T) {
	got := values(t, report+`VAR sum:
SEQ
  sum := 0
  SEQ i = [1 FOR 10]
    sum := sum + i
  screen ! 2; sum
  SEQ i = [5 FOR 0]
    sum := 0
  screen ! 2; sum
`)
	wantValues(t, got, 55, 55)
}

func TestArrays(t *testing.T) {
	got := values(t, report+`VAR a[8], sum:
SEQ
  SEQ i = [0 FOR 8]
    a[i] := i * i
  sum := 0
  SEQ i = [0 FOR 8]
    sum := sum + a[i]
  screen ! 2; sum
  screen ! 2; a[3]
`)
	wantValues(t, got, 140, 9)
}

func TestDefConstants(t *testing.T) {
	got := values(t, report+`DEF n = 6:
DEF m = n * 7:
screen ! 2; m
`)
	wantValues(t, got, 42)
}

func TestInternalChannelPar(t *testing.T) {
	got := values(t, report+`CHAN c:
VAR r:
SEQ
  PAR
    c ! 123
    c ? r
  screen ! 2; r
`)
	wantValues(t, got, 123)
}

func TestPipelinePar(t *testing.T) {
	// Three-stage pipeline over internal channels.
	got := values(t, report+`CHAN a, b:
VAR r:
SEQ
  PAR
    a ! 5
    VAR v:
    SEQ
      a ? v
      b ! v * v
    b ? r
  screen ! 2; r
`)
	wantValues(t, got, 25)
}

func TestReplicatedParWithChannelArray(t *testing.T) {
	// n workers each send i*10 on their own channel; a collector sums.
	got := values(t, report+`DEF n = 4:
CHAN c[n]:
VAR sum:
SEQ
  sum := 0
  PAR
    PAR i = [0 FOR n]
      c[i] ! i * 10
    VAR v:
    SEQ i = [0 FOR n]
      SEQ
        c[i] ? v
        sum := sum + v
  screen ! 2; sum
`)
	wantValues(t, got, 60)
}

func TestProcCalls(t *testing.T) {
	got := values(t, report+`PROC double(VALUE x, VAR r) =
  r := x + x
:
VAR y:
SEQ
  double(21, y)
  screen ! 2; y
`)
	wantValues(t, got, 42)
}

func TestProcWithChannelParam(t *testing.T) {
	got := values(t, report+`PROC emit(CHAN out, VALUE base) =
  SEQ i = [0 FOR 3]
    out ! base + i
:
CHAN c:
VAR a, b, d:
SEQ
  PAR
    emit(c, 100)
    SEQ
      c ? a
      c ? b
      c ? d
  screen ! 2; a + (b + d)
`)
	wantValues(t, got, 303)
}

func TestProcManyParams(t *testing.T) {
	// Five parameters: two travel in caller-stored slots.
	got := values(t, report+`PROC sum5(VALUE a, b, c, d, e, VAR r) =
  r := a + b + c + d + e
:
VAR y:
SEQ
  sum5(1, 2, 3, 4, 5, y)
  screen ! 2; y
`)
	wantValues(t, got, 15)
}

func TestProcArrayParam(t *testing.T) {
	got := values(t, report+`PROC fill(VAR a[], VALUE n) =
  SEQ i = [0 FOR n]
    a[i] := i + 1
:
PROC total(VALUE a[], n, VAR r) =
  SEQ
    r := 0
    SEQ i = [0 FOR n]
      r := r + a[i]
:
VAR buf[6], s:
SEQ
  fill(buf, 6)
  total(buf, 6, s)
  screen ! 2; s
`)
	wantValues(t, got, 21)
}

func TestNestedProcCalls(t *testing.T) {
	got := values(t, report+`PROC inc(VAR x) =
  x := x + 1
:
PROC inc2(VAR x) =
  SEQ
    inc(x)
    inc(x)
:
VAR v:
SEQ
  v := 40
  inc2(v)
  screen ! 2; v
`)
	wantValues(t, got, 42)
}

func TestAlternativeSelects(t *testing.T) {
	got := values(t, report+`CHAN a, b:
VAR r, which:
SEQ
  PAR
    b ! 9
    ALT
      a ? r
        which := 1
      b ? r
        which := 2
  screen ! 2; which
  screen ! 2; r
`)
	wantValues(t, got, 2, 9)
}

func TestAlternativeGuards(t *testing.T) {
	// The boolean guard disables the first branch even though its
	// channel is ready.
	got := values(t, report+`CHAN a:
VAR r, which:
SEQ
  PAR
    a ! 5
    ALT
      FALSE & a ? r
        which := 1
      TRUE & a ? r
        which := 2
  screen ! 2; which
`)
	wantValues(t, got, 2)
}

func TestAlternativeSkipGuard(t *testing.T) {
	got := values(t, report+`CHAN a:
VAR which:
SEQ
  ALT
    a ? which
      which := 1
    TRUE & SKIP
      which := 3
  screen ! 2; which
`)
	wantValues(t, got, 3)
}

func TestTimerDelayAndTimeout(t *testing.T) {
	// A timer guard times out a communication that never happens.
	host, rep := runOccam(t, report+`CHAN never:
VAR t, which:
SEQ
  TIME ? t
  ALT
    never ? which
      which := 1
    TIME ? AFTER t + 10
      which := 2
  screen ! 2; which
`)
	wantValues(t, host.Values, 2)
	// Ten low-priority ticks of 64 µs.
	if rep.Time < 640*sim.Microsecond {
		t.Errorf("timeout fired at %v, want >= 640µs", rep.Time)
	}
}

func TestTimeDelayedInput(t *testing.T) {
	_, rep := runOccam(t, report+`VAR t:
SEQ
  TIME ? t
  TIME ? AFTER t + 5
  screen ! 2; 1
`)
	if rep.Time < 5*64*sim.Microsecond {
		t.Errorf("delayed input completed at %v, want >= 320µs", rep.Time)
	}
}

func TestPriPar(t *testing.T) {
	// The high-priority component's message reaches the collector
	// before the low-priority one's: the collector alternates over its
	// two channels and records the arrival order.
	got := values(t, report+`CHAN h, l:
VAR first, second:
SEQ
  PRI PAR
    h ! 1
    SEQ
      ALT
        h ? first
          l ? second
        l ? first
          h ? second
    l ! 2
  screen ! 2; first
  screen ! 2; second
`)
	wantValues(t, got, 1, 2)
}

// TestPriParSharedStateRejected pins the usage rule (paper 2.2.1):
// priority does not license shared variables between PAR components.
func TestPriParSharedStateRejected(t *testing.T) {
	src := `VAR slot:
SEQ
  slot := 0
  PRI PAR
    slot := 1
    slot := 2
`
	if _, err := occam.Compile(src, occam.Options{}); err == nil {
		t.Fatal("shared assignment across PRI PAR should be rejected")
	}
}

func TestStopDeadlocks(t *testing.T) {
	// STOP never proceeds: the program reports nothing and idles.
	host, rep := runOccam(t, report+`SEQ
  STOP
  screen ! 2; 1
`)
	if len(host.Values) != 0 {
		t.Errorf("STOP leaked values %v", host.Values)
	}
	if !rep.Settled {
		t.Error("machine should idle after STOP")
	}
}

func TestIfNoBranchStops(t *testing.T) {
	host, _ := runOccam(t, report+`SEQ
  IF
    FALSE
      SKIP
  screen ! 2; 1
`)
	if len(host.Values) != 0 {
		t.Error("IF with no true branch must behave like STOP")
	}
}

func TestExpressionSpill(t *testing.T) {
	// Deeply right-nested expression forces workspace temporaries.
	got := values(t, report+`VAR a, b, c, d, e:
SEQ
  a := 1
  b := 2
  c := 3
  d := 4
  e := 5
  screen ! 2; (a + (b + (c + (d + e))))
  screen ! 2; ((((a + b) + c) + d) + e)
`)
	wantValues(t, got, 15, 15)
}

func TestChannelArrayIndexExpression(t *testing.T) {
	got := values(t, report+`DEF n = 3:
CHAN c[n]:
VAR r:
SEQ
  PAR
    c[2 - 1] ! 77
    c[1] ? r
  screen ! 2; r
`)
	wantValues(t, got, 77)
}

func TestNestedPar(t *testing.T) {
	got := values(t, report+`CHAN a, b, c:
VAR x, y, z:
SEQ
  PAR
    PAR
      a ! 1
      b ! 2
    SEQ
      a ? x
      b ? y
    c ! 3
    c ? z
  screen ! 2; (x + y) + z
`)
	wantValues(t, got, 6)
}

func TestWordLengthIndependentCompile(t *testing.T) {
	src := report + `VAR x:
SEQ
  x := 1000
  screen ! 2; x + 234
`
	c32, err := occam.Compile(src, occam.Options{WordBytes: 4})
	if err != nil {
		t.Fatal(err)
	}
	c16, err := occam.Compile(src, occam.Options{WordBytes: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The channel placement address differs by word length, but the
	// program logic compiles to the same shape; run both and compare
	// behaviour.
	run := func(comp *occam.Compiled, cfg core.Config) []int64 {
		s := network.NewSystem()
		n := s.MustAddTransputer("m", cfg)
		host, _ := s.AttachHost(n, 0, nil)
		if err := n.Load(comp.Image); err != nil {
			t.Fatal(err)
		}
		s.Run(sim.Second)
		return host.Values
	}
	v32 := run(c32, core.T424().WithMemory(32*1024))
	v16 := run(c16, core.T222().WithMemory(32*1024))
	wantValues(t, v32, 1234)
	wantValues(t, v16, 1234)
}

// TestPaperAssignmentGolden checks the compiler emits exactly the
// paper's instruction sequence for x := 0 and x := y (section 3.2.6):
// single-byte load/store instructions.
func TestPaperAssignmentGolden(t *testing.T) {
	comp, err := occam.Compile(`VAR x, y:
SEQ
  x := 0
  x := y
`, occam.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Locals x, y sit in the first sixteen workspace words, so each
	// instruction is one byte: ldc 0; stl x; ldl y; stl x; stopp.
	code := comp.Image.Code
	if len(code) < 4 {
		t.Fatalf("code too short: % X", code)
	}
	wantFns := []byte{0x40, 0xD2, 0x73, 0xD2}
	for i, w := range wantFns {
		if code[i] != w {
			t.Fatalf("code = % X, want prefix % X (ldc 0; stl x; ldl y; stl x)", code, wantFns)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []string{
		"x := 1\n",                                // undeclared
		"VAR x:\nx ! 1\n",                         // not a channel
		"CHAN c:\nc := 1\n",                       // not a variable
		"VAR x:\nSEQ\n  x := y\n",                 // undeclared in expression
		"DEF n = x:\nSKIP\n",                      // non-constant DEF
		"VAR a[0]:\nSKIP\n",                       // zero-size array
		"VAR x:\nVAR x:\nSKIP\n",                  // hmm: separate scopes nest, so this is legal; replaced below
		"PROC p(VALUE a) =\n  SKIP\n:\np(1, 2)\n", // arity
		"VAR x:\nPROC p() =\n  x := 1\n:\np()\n",  // outer variable inside PROC
		"CHAN c:\nVAR v:\nALT\n  c ? v\n    SKIP\n  TIME ? v\n    SKIP\n", // timer guard must use AFTER
		"PROC p() =\n  p()\n:\np()\n",                                     // recursion
	}
	for _, src := range cases {
		if src == "VAR x:\nVAR x:\nSKIP\n" {
			continue
		}
		if _, err := occam.Compile(src, occam.Options{}); err == nil {
			t.Errorf("Compile(%q) should fail", src)
		}
	}
}

func TestShadowingInNestedScopes(t *testing.T) {
	// Inner declarations shadow outer ones.
	got := values(t, report+`VAR x:
SEQ
  x := 1
  VAR y:
  SEQ
    y := 2
    screen ! 2; x + y
`)
	wantValues(t, got, 3)
}

func TestMultipleOutputsInputs(t *testing.T) {
	got := values(t, report+`CHAN c:
VAR a, b:
SEQ
  PAR
    c ! 10; 20
    c ? a; b
  screen ! 2; a
  screen ! 2; b
`)
	wantValues(t, got, 10, 20)
}

func TestArrayMessage(t *testing.T) {
	// Whole arrays travel as single messages.
	got := values(t, report+`CHAN c:
VAR src[4], dst[4], sum:
SEQ
  SEQ i = [0 FOR 4]
    src[i] := (i + 1) * 11
  PAR
    c ! src
    c ? dst
  sum := 0
  SEQ i = [0 FOR 4]
    sum := sum + dst[i]
  screen ! 2; sum
`)
	wantValues(t, got, 110)
}

func TestInputAny(t *testing.T) {
	got := values(t, report+`CHAN c:
VAR keep:
SEQ
  PAR
    c ! 1; 2; 3
    SEQ
      c ? ANY
      c ? keep
      c ? ANY
  screen ! 2; keep
`)
	wantValues(t, got, 2)
}

func TestReplicatedAlt(t *testing.T) {
	// Four senders on a channel array; a replicated ALT server takes
	// each message from whichever channel is ready.
	got := values(t, report+`DEF n = 4:
CHAN c[n]:
VAR sum, idxsum:
SEQ
  sum := 0
  idxsum := 0
  PAR
    PAR i = [0 FOR n]
      c[i] ! (i + 1) * 100
    VAR v:
    SEQ k = [0 FOR n]
      ALT i = [0 FOR n]
        c[i] ? v
          SEQ
            sum := sum + v
            idxsum := idxsum + i
  screen ! 2; sum
  screen ! 2; idxsum
`)
	wantValues(t, got, 1000, 6)
}

func TestReplicatedAltGuarded(t *testing.T) {
	got := values(t, report+`DEF n = 3:
CHAN c[n]:
VAR v, which:
SEQ
  PAR
    c[2] ! 7
    SEQ
      ALT i = [0 FOR n]
        (i = 2) & c[i] ? v
          which := i
  screen ! 2; v
  screen ! 2; which
`)
	wantValues(t, got, 7, 2)
}

func TestReplicatedAltNonZeroBase(t *testing.T) {
	got := values(t, report+`DEF n = 6:
CHAN c[n]:
VAR v, which:
SEQ
  PAR
    c[4] ! 11
    ALT i = [3 FOR 3]
      c[i] ? v
        which := i
  screen ! 2; v
  screen ! 2; which
`)
	wantValues(t, got, 11, 4)
}

func TestReplicatedAltRuntimeCount(t *testing.T) {
	// Unlike replicated PAR, a replicated ALT's count may be computed
	// at run time.
	got := values(t, report+`DEF n = 5:
CHAN c[n]:
VAR v, cnt:
SEQ
  cnt := 2 + 3
  PAR
    c[3] ! 99
    ALT i = [0 FOR cnt]
      c[i] ? v
        SKIP
  screen ! 2; v
`)
	wantValues(t, got, 99)
}

// TestPlacedPar compiles one source file into per-processor images —
// the occam configuration step of the paper ("each transputer executes
// a component process, and occam channels are allocated to links").
func TestPlacedPar(t *testing.T) {
	src := `DEF count = 5:
PROC squares(CHAN out, VALUE n) =
  SEQ i = [1 FOR n]
    out ! i * i
:
PROC show(CHAN in, CHAN to.host, VALUE n) =
  VAR v, sum:
  SEQ
    sum := 0
    SEQ i = [1 FOR n]
      SEQ
        in ? v
        sum := sum + v
    to.host ! 2; sum
    to.host ! 4
:
PLACED PAR
  PROCESSOR 0
    CHAN link:
    PLACE link AT LINK1OUT:
    squares(link, count)
  PROCESSOR 1
    CHAN link, screen:
    PLACE link AT LINK2IN:
    PLACE screen AT LINK0OUT:
    show(link, screen, count)
`
	procs, err := occam.CompileConfigured(src, occam.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(procs) != 2 || procs[0].ID != 0 || procs[1].ID != 1 {
		t.Fatalf("processors = %+v", procs)
	}

	s := network.NewSystem()
	p0 := s.MustAddTransputer("p0", core.T424().WithMemory(64*1024))
	p1 := s.MustAddTransputer("p1", core.T424().WithMemory(64*1024))
	s.MustConnect(p0, 1, p1, 2)
	host, _ := s.AttachHost(p1, 0, nil)
	if err := p0.Load(procs[0].Compiled.Image); err != nil {
		t.Fatal(err)
	}
	if err := p1.Load(procs[1].Compiled.Image); err != nil {
		t.Fatal(err)
	}
	rep := s.Run(10 * sim.Millisecond)
	if !rep.Settled || !host.Done {
		t.Fatalf("rep=%+v done=%v", rep, host.Done)
	}
	wantValues(t, host.Values, 1+4+9+16+25)
}

func TestPlacedParWithoutConstruct(t *testing.T) {
	// A plain program compiles as a single processor 0.
	procs, err := occam.CompileConfigured("SKIP\n", occam.Options{})
	if err != nil || len(procs) != 1 || procs[0].ID != 0 {
		t.Fatalf("%+v %v", procs, err)
	}
}

func TestPlacedParErrors(t *testing.T) {
	// Nested PLACED PAR is rejected.
	if _, err := occam.Compile("SEQ\n  PLACED PAR\n    PROCESSOR 0\n      SKIP\n", occam.Options{}); err == nil {
		t.Error("nested PLACED PAR should fail")
	}
	// Duplicate processor numbers are rejected.
	src := "PLACED PAR\n  PROCESSOR 1\n    SKIP\n  PROCESSOR 1\n    SKIP\n"
	if _, err := occam.CompileConfigured(src, occam.Options{}); err == nil {
		t.Error("duplicate processors should fail")
	}
	// Non-constant processor number is rejected.
	src2 := "VAR x:\nPLACED PAR\n  PROCESSOR x\n    SKIP\n"
	if _, err := occam.CompileConfigured(src2, occam.Options{}); err == nil {
		t.Error("non-constant processor number should fail")
	}
}

// TestPlacedParProcessorFromDef: processor numbers may use shared DEFs.
func TestPlacedParProcessorFromDef(t *testing.T) {
	src := `DEF worker = 7:
PLACED PAR
  PROCESSOR worker
    SKIP
  PROCESSOR worker + 1
    SKIP
`
	procs, err := occam.CompileConfigured(src, occam.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(procs) != 2 || procs[0].ID != 7 || procs[1].ID != 8 {
		t.Fatalf("%+v", procs)
	}
}

// runOccamOn compiles and runs a program on a given machine model,
// returning the host values.
func runOccamOn(t *testing.T, src string, cfg core.Config, wordBytes int) []int64 {
	t.Helper()
	comp, err := occam.Compile(src, occam.Options{WordBytes: wordBytes})
	if err != nil {
		t.Fatalf("compile (%d-byte words): %v", wordBytes, err)
	}
	s := network.NewSystem()
	n := s.MustAddTransputer("main", cfg)
	host, herr := s.AttachHost(n, 0, nil)
	if herr != nil {
		t.Fatal(herr)
	}
	if err := n.Load(comp.Image); err != nil {
		t.Fatalf("load: %v", err)
	}
	rep := s.Run(2 * sim.Second)
	if ferr := n.M.Fault(); ferr != nil {
		t.Fatalf("fault: %v", ferr)
	}
	if !rep.Settled {
		t.Fatalf("program did not settle: %+v", rep)
	}
	return host.Values
}

// TestOccamBatteryOnT222 runs a battery of occam programs on the
// 16-bit T222 and requires the same results as the 32-bit T424 — the
// compiler's output differs only in the link placement addresses.
func TestOccamBatteryOnT222(t *testing.T) {
	programs := []string{
		report + `VAR a[6], sum:
SEQ
  SEQ i = [0 FOR 6]
    a[i] := (i + 1) * 7
  sum := 0
  SEQ i = [0 FOR 6]
    sum := sum + a[i]
  screen ! 2; sum
`,
		report + `PROC tri(VALUE n, VAR r) =
  SEQ
    r := 0
    SEQ i = [1 FOR n]
      r := r + i
:
VAR x:
SEQ
  tri(12, x)
  screen ! 2; x
`,
		report + `CHAN c:
VAR r:
SEQ
  PAR
    c ! 321
    c ? r
  screen ! 2; r
`,
		report + `CHAN a, b:
VAR r, which:
SEQ
  PAR
    b ! 55
    ALT
      a ? r
        which := 1
      b ? r
        which := 2
  screen ! 2; (which * 1000) + r
`,
	}
	for i, src := range programs {
		v32 := runOccamOn(t, src, core.T424().WithMemory(32*1024), 4)
		v16 := runOccamOn(t, src, core.T222().WithMemory(32*1024), 2)
		if len(v32) != len(v16) {
			t.Fatalf("program %d: %v vs %v", i, v32, v16)
		}
		for j := range v32 {
			if v32[j] != v16[j] {
				t.Errorf("program %d value %d: T424 %d, T222 %d", i, j, v32[j], v16[j])
			}
		}
	}
}

// TestBuiltinConstantsPerWordLength: the predefined constants depend
// on the word length, and a compile for one length must never see the
// other's, whichever order the two come in.  The program reports them
// through the host (which it reaches only if LINK0OUT itself resolved
// to the right address).
func TestBuiltinConstantsPerWordLength(t *testing.T) {
	const src = report + `SEQ
  screen ! 2; MOSTNEG
  screen ! 2; MOSTPOS
  screen ! 2; LINK0OUT - MOSTNEG
  screen ! 2; LINK3OUT - MOSTNEG
  screen ! 2; LINK0IN - MOSTNEG
  screen ! 2; LINK3IN - MOSTNEG
  screen ! 2; EVENT - MOSTNEG
  screen ! 2; MOSTPOS - LINK3VC31IN
`
	on16 := func() {
		t.Helper()
		got := runOccamOn(t, src, core.T222().WithMemory(32*1024), 2)
		wantValues(t, got, -1<<15, 1<<15-1, 0, 3*2, 4*2, 7*2, 8*2, 2-1)
	}
	on32 := func() {
		t.Helper()
		got := runOccamOn(t, src, core.T424().WithMemory(32*1024), 4)
		wantValues(t, got, -1<<31, 1<<31-1, 0, 3*4, 4*4, 7*4, 8*4, 4-1)
	}
	on16()
	on32()
	on16()
	on32()
}

// TestByteSubscription exercises occam's a[BYTE i] addressing: the
// array's storage accessed byte by byte (little-endian words).
func TestByteSubscription(t *testing.T) {
	got := values(t, report+`VAR a[2], lo, packed:
SEQ
  a[0] := #11223344
  a[1] := 0
  lo := a[BYTE 0]
  screen ! 2; lo
  screen ! 2; a[BYTE 1]
  screen ! 2; a[BYTE 3]
  a[BYTE 4] := #7F
  screen ! 2; a[1]
  -- pack bytes into the second word through BYTE stores
  a[BYTE 5] := 2
  a[BYTE 6] := 3
  packed := a[1]
  screen ! 2; packed
`)
	wantValues(t, got, 0x44, 0x33, 0x11, 0x7F, 0x7F+(2<<8)+(3<<16))
}

func TestByteSubscriptionInExpressions(t *testing.T) {
	got := values(t, report+`VAR buf[4], sum:
SEQ
  SEQ i = [0 FOR 16]
    buf[BYTE i] := i + 1
  sum := 0
  SEQ i = [0 FOR 16]
    sum := sum + buf[BYTE i]
  screen ! 2; sum
`)
	wantValues(t, got, 136)
}

func TestByteSubscriptionOnChannelRejected(t *testing.T) {
	if _, err := occam.Compile("CHAN c[2]:\nc[BYTE 0] ! 1\n", occam.Options{}); err == nil {
		t.Error("BYTE subscription of a channel array should fail")
	}
}

// TestStringTables: DEF name = "string" builds a length-prefixed byte
// table (the occam-1 convention), read with BYTE subscription.
func TestStringTables(t *testing.T) {
	src := report + `DEF greeting = "hi there*n":
SEQ
  SEQ i = [1 FOR greeting[BYTE 0]]
    SEQ
      screen ! 1
      screen ! greeting[BYTE i]
  screen ! 4
`
	comp, err := occam.Compile(src, occam.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := network.NewSystem()
	n := s.MustAddTransputer("m", core.T424().WithMemory(64*1024))
	var out strings.Builder
	host, _ := s.AttachHost(n, 0, &out)
	if err := n.Load(comp.Image); err != nil {
		t.Fatal(err)
	}
	rep := s.Run(sim.Second)
	if !rep.Settled || !host.Done {
		t.Fatalf("rep=%+v done=%v", rep, host.Done)
	}
	if out.String() != "hi there\n" {
		t.Errorf("printed %q", out.String())
	}
}

func TestStringTableReadOnly(t *testing.T) {
	if _, err := occam.Compile(`DEF s = "ab":
s[BYTE 1] := 99
`, occam.Options{}); err == nil {
		t.Error("assigning into a string table should fail")
	}
}

func TestStringTableAsValueParam(t *testing.T) {
	// Tables pass to VALUE array parameters like any array base.
	src := report + `DEF msg = "abc":
PROC total(VALUE t[], VAR r) =
  SEQ
    r := 0
    SEQ i = [1 FOR t[BYTE 0]]
      r := r + t[BYTE i]
:
VAR sum:
SEQ
  total(msg, sum)
  screen ! 2; sum
`
	got := values(t, src)
	wantValues(t, got, 'a'+'b'+'c')
}

// TestCommunicationOneByteOfProgram pins the paper's claim that "a
// communication primitive communicating a block of size n bytes
// requires only one byte of program" (3.2.10): the input/output
// instructions themselves are single bytes.
func TestCommunicationOneByteOfProgram(t *testing.T) {
	comp, err := occam.Compile(`CHAN c:
VAR v, src[8], dst[8]:
PAR
  SEQ
    c ! 1
    c ! src
  SEQ
    c ? v
    c ? dst
`, occam.Options{})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, ln := range isa.DisassembleAll(comp.Image.Code) {
		if ln.Instr.IsOp() {
			counts[ln.Instr.Op().Mnemonic()] += len(ln.Bytes)
		}
	}
	// outword, out, in are all operation code < 16: one byte each.
	if counts["outword"] != 1 {
		t.Errorf("outword occupies %d bytes, want 1", counts["outword"])
	}
	if counts["out"] != 1 {
		t.Errorf("out occupies %d bytes, want 1", counts["out"])
	}
	if counts["in"] != 2 { // two inputs compiled
		t.Errorf("two in instructions occupy %d bytes, want 2", counts["in"])
	}
}
