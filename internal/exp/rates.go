package exp

import (
	"fmt"
	"strings"

	"transputer/internal/apps/dbsearch"
	"transputer/internal/asm"
	"transputer/internal/core"
	"transputer/internal/isa"
	"transputer/internal/network"
	"transputer/internal/occam"
	"transputer/internal/sim"
)

// E11MIPSRate measures the execution rate on the paper's "typical
// sequences of commonly used instructions" — the assignment and
// expression mixes of its own tables — against the 15 MIPS figure for
// a 20 MHz part (section 3.2.1).
func E11MIPSRate() Result {
	r := Result{
		ID:    "E11",
		Title: "execution rate on typical sequences (paper 3.2.1)",
		Notes: "the paper's own table mix: loads, stores, add constant, add",
	}
	st, err := tableMix()
	if err != nil {
		r.Rows = append(r.Rows, Row{Label: "mix", Measured: "error: " + err.Error()})
		return r
	}
	mips := st.MIPS(50)
	r.Rows = append(r.Rows, Row{
		Label:    "assignment/expression mix at 20 MHz",
		Paper:    "15 MIPS",
		Measured: fmt.Sprintf("%.1f MIPS (%d instructions / %d cycles)", mips, st.Instructions, st.Cycles),
		OK:       mips > 13 && mips < 17,
	})
	return r
}

// tableMix runs a straight-line block from the paper's tables on a
// T424 and returns its statistics: the cost of typical sequences under
// the 3.2 cost table, which E11 reports and E9 scales to a board.
func tableMix() (core.Stats, error) {
	// x := 0; x := y; x + 2 folded into an accumulating mix.
	var sb strings.Builder
	for i := 0; i < 64; i++ {
		sb.WriteString("\tldc 0\n\tstl 1\n")                 // x := 0        (2 instr, 2 cycles)
		sb.WriteString("\tldl 2\n\tstl 1\n")                 // x := y        (2 instr, 3 cycles)
		sb.WriteString("\tldl 1\n\tadc 2\n\tstl 1\n")        // x := x + 2 (3 instr, 4 cycles)
		sb.WriteString("\tldl 1\n\tldl 2\n\tadd\n\tstl 1\n") // x := x + y (4 instr, 6 cycles)
	}
	sb.WriteString("\tstopp\n")
	return runT424(sb.String())
}

// runT424 assembles src for a T424 with 64 KiB, runs it for up to 10 ms
// of simulated time and returns its statistics.
func runT424(src string) (core.Stats, error) {
	m, err := loadT424(src)
	if err != nil {
		return core.Stats{}, err
	}
	core.Run(m, 10*sim.Millisecond)
	return m.Stats(), nil
}

// E12SingleByteFraction measures the fraction of executed operations
// encoded in a single byte on real workloads: "most of the executed
// operations (typically 80%) are encoded in a single byte" (paper
// 3.2.3/3.2.6).
func E12SingleByteFraction() Result {
	r := Result{
		ID:    "E12",
		Title: "single-byte instruction fraction (paper 3.2.3)",
	}
	// Each compiled program must reach 70%: the gate holds the compiler
	// near the paper's density, not to its own past.
	progs := []struct {
		label, src string
		bar        float64
	}{
		{"squares producer/consumer", `CHAN screen:
PLACE screen AT LINK0OUT:
DEF n = 20:
CHAN c:
VAR v, sum:
SEQ
  PAR
    SEQ i = [1 FOR n]
      c ! i * i
    SEQ
      sum := 0
      SEQ i = [1 FOR n]
        SEQ
          c ? v
          sum := sum + v
  screen ! 2
  screen ! sum
  screen ! 4
`, 0.70},
		{"array sort (insertion)", `CHAN screen:
PLACE screen AT LINK0OUT:
DEF n = 24:
VAR a[n], v, j, going:
SEQ
  SEQ i = [0 FOR n]
    a[i] := (n - i) * 3
  SEQ i = [1 FOR (n - 1)]
    SEQ
      v := a[i]
      j := i
      going := TRUE
      WHILE going
        IF
          (j > 0) AND (a[(j - 1)] > v)
            SEQ
              a[j] := a[(j - 1)]
              j := j - 1
          TRUE
            going := FALSE
      a[j] := v
  screen ! 2
  screen ! a[0]
  screen ! 4
`, 0.70},
	}
	row := func(label string, frac, bar float64, err error) {
		if err != nil {
			r.Rows = append(r.Rows, Row{Label: label, Measured: "error: " + err.Error()})
			return
		}
		r.Rows = append(r.Rows, Row{
			Label:    label,
			Paper:    "typically 80%",
			Measured: fmt.Sprintf("%.1f%% single byte", 100*frac),
			OK:       frac > bar,
		})
	}
	for _, p := range progs {
		frac, err := singleByteFraction(p.src)
		row(p.label, frac, p.bar, err)
	}
	frac, err := searchNodeSingleByteFraction()
	row("figure-7 search node (interior, 4x4 array)", frac, 0.70, err)
	// The paper's own instruction mix (the 3.2.6/3.2.9 tables) is
	// entirely single byte.  Compiled occam adds prefixed operations
	// (multiply, loop end, the alternative instructions), so it lands a
	// little lower.
	r.Notes = "compiled occam reaches 78-84% (see EXPERIMENTS.md)"
	mix := "\tldc 0\n\tstl 1\n\tldl 2\n\tstl 1\n\tldl 1\n\tadc 2\n\tstl 1\n"
	if st, err := runT424(strings.Repeat(mix, 32) + "\tstopp\n"); err == nil {
		frac := st.SingleByteFraction()
		r.Rows = append(r.Rows, Row{
			Label:    "the paper's table mix (loads, stores, add constant)",
			Paper:    "typically 80%",
			Measured: fmt.Sprintf("%.1f%% single byte", 100*frac),
			OK:       frac > 0.80,
		})
	}
	return r
}

// searchNodeSingleByteFraction is the single-byte fraction of an
// interior node of the 4x4 search array, node (1,1), over eight
// pipelined queries.
func searchNodeSingleByteFraction() (float64, error) {
	s, err := dbsearch.Build(dbsearch.Defaults16())
	if err != nil {
		return 0, err
	}
	if _, rep := s.RunSearches([]int64{5, 17, 33, 0, 63, 12, 40, 7}, sim.Second); !rep.Settled {
		return 0, fmt.Errorf("search did not settle")
	}
	n, _ := s.Net.Node("n1.1")
	return n.M.Stats().SingleByteFraction(), nil
}

func singleByteFraction(src string) (float64, error) {
	comp, err := occam.Compile(src, occam.Options{})
	if err != nil {
		return 0, err
	}
	net := network.NewSystem()
	n, err := net.AddTransputer("m", core.T424().WithMemory(64*1024))
	if err != nil {
		return 0, err
	}
	if _, err := net.AttachHost(n, 0, nil); err != nil {
		return 0, err
	}
	if err := n.Load(comp.Image); err != nil {
		return 0, err
	}
	rep := net.Run(sim.Second)
	if !rep.Settled {
		return 0, fmt.Errorf("workload did not settle")
	}
	return n.M.Stats().SingleByteFraction(), nil
}

// A2FixedWidthEncoding quantifies what the prefixing scheme saves:
// against a hypothetical fixed encoding of one opcode byte plus a
// full-word operand per instruction (the paper argues compact programs
// need less store and less instruction-fetch bandwidth, section 3.3).
func A2FixedWidthEncoding() Result {
	r := Result{
		ID:    "A2",
		Title: "ablation: prefix encoding vs fixed-width operands (paper 3.3)",
	}
	src := `CHAN screen:
PLACE screen AT LINK0OUT:
DEF n = 16:
VAR a[n], sum:
SEQ
  SEQ i = [0 FOR n]
    a[i] := i * i
  sum := 0
  SEQ i = [0 FOR n]
    sum := sum + a[i]
  screen ! 2
  screen ! sum
  screen ! 4
`
	comp, err := occam.Compile(src, occam.Options{})
	if err != nil {
		r.Rows = append(r.Rows, Row{Label: "compile", Measured: "error: " + err.Error()})
		return r
	}
	actual := len(comp.Image.Code)
	instrs := 0
	for _, ln := range isa.DisassembleAll(comp.Image.Code) {
		if ln.Instr.Size > 0 {
			instrs++
		}
	}
	fixed := instrs * 5 // one opcode byte + a 32-bit operand
	r.Rows = append(r.Rows, Row{
		Label:    fmt.Sprintf("array-sum program, %d instructions", instrs),
		Paper:    "prefixing keeps programs compact",
		Measured: fmt.Sprintf("%d bytes vs %d fixed-width (%.1fx smaller)", actual, fixed, float64(fixed)/float64(actual)),
		OK:       actual*2 < fixed,
	})
	avg := float64(actual) / float64(instrs)
	r.Rows = append(r.Rows, Row{
		Label:    "average instruction length",
		Paper:    "most executed operations are one byte",
		Measured: fmt.Sprintf("%.2f bytes", avg),
		OK:       avg < 2.5,
	})
	return r
}

// A3FetchBuffer prices the two-word instruction fetch buffer the paper
// describes (3.2.5): without it, every instruction byte costs an extra
// memory cycle, so the same run costs its cycles plus the bytes it
// executed.
func A3FetchBuffer() Result {
	r := Result{
		ID:    "A3",
		Title: "ablation: two-word instruction fetch buffer (paper 3.2.5)",
	}
	src := strings.Repeat("\tldl 1\n\tadc 1\n\tstl 1\n", 200) + "\tstopp\n"
	st, err := runT424(src)
	if err != nil {
		r.Rows = append(r.Rows, Row{Label: "run", Measured: "error"})
		return r
	}
	with, without := st.Cycles, st.Cycles+st.InstructionBytes
	r.Rows = append(r.Rows, Row{
		Label:    "with fetch buffer (the real design)",
		Paper:    "fetch uses spare memory cycles",
		Measured: fmt.Sprintf("%d cycles", with),
		OK:       true,
	})
	slowdown := float64(without) / float64(with)
	r.Rows = append(r.Rows, Row{
		Label:    "without fetch buffer",
		Paper:    "every byte costs an extra access",
		Measured: fmt.Sprintf("%d cycles (%.2fx slower)", without, slowdown),
		OK:       slowdown > 1.2,
	})
	return r
}

// A4WordLength runs identical program bytes on the 32-bit T424 and the
// 16-bit T222: word-length independence (paper 3.3) means identical
// results from identical code.
func A4WordLength() Result {
	r := Result{
		ID:    "A4",
		Title: "word-length independence: T424 vs T222 (paper 3.3)",
	}
	src := `
	ldc 100
	stl 1
	ldc 23
	ldl 1
	add
	stl 2
	ldl 2
	ldl 1
	mul
	stl 3
	stopp
`
	type out struct {
		locals [3]uint64
		cycles uint64
		code   string
	}
	run := func(cfg core.Config, bpw int) (out, error) {
		a, err := asm.Assemble(src, bpw)
		if err != nil {
			return out{}, err
		}
		m, err := core.New(cfg)
		if err != nil {
			return out{}, err
		}
		if err := m.Load(a.Image); err != nil {
			return out{}, err
		}
		core.Run(m, sim.Millisecond)
		return out{
			locals: [3]uint64{m.Local(1), m.Local(2), m.Local(3)},
			cycles: m.Stats().Cycles,
			code:   string(a.Image.Code),
		}, nil
	}
	o32, err1 := run(core.T424().WithMemory(32*1024), 4)
	o16, err2 := run(core.T222().WithMemory(32*1024), 2)
	if err1 != nil || err2 != nil {
		r.Rows = append(r.Rows, Row{Label: "run", Measured: "error"})
		return r
	}
	r.Rows = append(r.Rows, Row{
		Label:    "identical code bytes",
		Paper:    "instruction representation independent of word length",
		Measured: fmt.Sprintf("%v", o32.code == o16.code),
		OK:       o32.code == o16.code,
	})
	same := o32.locals == o16.locals
	r.Rows = append(r.Rows, Row{
		Label:    "identical results (100+23, then product)",
		Paper:    "behaves identically whatever the wordlength",
		Measured: fmt.Sprintf("%v (%d, %d, %d)", same, int64(o32.locals[0]), int64(o32.locals[1]), int64(o32.locals[2])),
		OK:       same,
	})
	r.Rows = append(r.Rows, Row{
		Label:    "multiply cost tracks word length",
		Paper:    "7+wordlength cycles: 39 vs 23",
		Measured: fmt.Sprintf("T424 %d cycles, T222 %d cycles (difference %d)", o32.cycles, o16.cycles, o32.cycles-o16.cycles),
		OK:       o32.cycles-o16.cycles == 16,
	})
	return r
}
