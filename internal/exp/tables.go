package exp

import (
	"fmt"

	"transputer/internal/asm"
	"transputer/internal/core"
	"transputer/internal/isa"
	"transputer/internal/sim"
)

// Experiments E1-E3: the instruction-sequence tables of paper sections
// 3.2.6, 3.2.7 and 3.2.9, measured by executing each fragment on the
// processor and counting bytes and cycles.

// measureFragment assembles setup+fragment+stopp and setup+stopp on a
// T424 and returns the fragment's code bytes and executed cycles.
func measureFragment(setup, fragment string) (bytes int, cycles uint64, err error) {
	run := func(src string) (*core.Machine, error) {
		m, err := loadT424(src)
		if err != nil {
			return nil, err
		}
		res := core.Run(m, 10*sim.Millisecond)
		if !res.Settled {
			return nil, fmt.Errorf("fragment did not settle")
		}
		if ferr := m.Fault(); ferr != nil {
			return nil, ferr
		}
		return m, nil
	}
	full, err := run(setup + fragment + "\n\tstopp\n")
	if err != nil {
		return 0, 0, err
	}
	base, err := run(setup + "\tstopp\n")
	if err != nil {
		return 0, 0, err
	}
	frag, err := asm.Assemble(fragment, 4)
	if err != nil {
		return 0, 0, err
	}
	return len(frag.Image.Code), full.Stats().Cycles - base.Stats().Cycles, nil
}

func fragmentRow(label, setup, fragment string, wantBytes int, wantCycles uint64) Row {
	bytes, cycles, err := measureFragment(setup, fragment)
	if err != nil {
		return Row{Label: label, Paper: "-", Measured: "error: " + err.Error()}
	}
	return Row{
		Label:    label,
		Paper:    fmt.Sprintf("%d bytes, %d cycles", wantBytes, wantCycles),
		Measured: fmt.Sprintf("%d bytes, %d cycles", bytes, cycles),
		OK:       bytes == wantBytes && cycles == wantCycles,
	}
}

// E1DirectFunctions reproduces the section 3.2.6 table: x := 0, x := y
// and the static-link assignment z := 1.
func E1DirectFunctions() Result {
	r := Result{
		ID:    "E1",
		Title: "direct function sequences (paper 3.2.6)",
		Notes: "x and y are locals; z is reached through a static link",
	}
	r.Rows = append(r.Rows,
		fragmentRow("x := 0", "", "\tldc 0\n\tstl 1", 2, 2),
		fragmentRow("x := y", "\tldc 7\n\tstl 2\n", "\tldl 2\n\tstl 1", 2, 3),
		fragmentRow("z := 1",
			"\tldpi zspace\n\tstl 2\n\tj zskip\n\talign\nzspace:\n\tword 0\nzskip:\n",
			"\tldc 1\n\tldl 2\n\tstnl 0", 3, 5),
	)
	return r
}

// E2Prefix754 reproduces the section 3.2.7 operand-register trace for
// loading #754, by single-stepping the operand register mechanism.
func E2Prefix754() Result {
	r := Result{
		ID:    "E2",
		Title: "prefixing: loading #754 (paper 3.2.7)",
	}
	code := isa.EncodeOperand(nil, isa.FnLdc, 0x754)
	wantBytes := []byte{0x27, 0x25, 0x44}
	enc := fmt.Sprintf("% X", code)
	r.Rows = append(r.Rows, Row{
		Label:    "encoding",
		Paper:    "prefix #7; prefix #5; load constant #4",
		Measured: enc,
		OK:       string(code) == string(wantBytes),
	})
	// Trace the operand register through the bytes, as the paper's
	// table does (it shows the accumulated nibbles after each prefix).
	oreg := uint64(0)
	traces := []struct {
		afterO uint64
		label  string
	}{
		{0x7, "after prefix #7: O register"},
		{0x75, "after prefix #5: O register"},
	}
	for i, tr := range traces {
		b := code[i]
		oreg = (oreg | uint64(b&0xF)) << 4
		r.Rows = append(r.Rows, Row{
			Label:    tr.label,
			Paper:    fmt.Sprintf("#%X", tr.afterO),
			Measured: fmt.Sprintf("#%X", oreg>>4),
			OK:       oreg>>4 == tr.afterO,
		})
	}
	// Final A register via execution.
	m := core.MustNew(core.T424().WithMemory(16 * 1024))
	img := core.Image{Code: append(append([]byte{}, code...), isa.EncodeOperand(nil, isa.FnStl, 1)...), WsBelow: 16, WsAbove: 8}
	img.Code = append(img.Code, isa.EncodeOp(nil, isa.OpStopp)...)
	_ = m.Load(img)
	core.Run(m, sim.Millisecond)
	r.Rows = append(r.Rows, Row{
		Label:    "A register after load constant #4",
		Paper:    "#754",
		Measured: fmt.Sprintf("#%X", m.Local(1)),
		OK:       m.Local(1) == 0x754,
	})
	return r
}

// E3ExpressionEvaluation reproduces the section 3.2.9 table: x + 2 and
// (v+w)*(y+z), with multiply at 7+wordlength cycles.
func E3ExpressionEvaluation() Result {
	r := Result{
		ID:    "E3",
		Title: "expression evaluation (paper 3.2.9)",
		Notes: "multiply totals 7+wordlength cycles; 39 on the 32-bit T424",
	}
	setup := "\tldc 3\n\tstl 1\n\tldc 4\n\tstl 2\n\tldc 5\n\tstl 3\n\tldc 6\n\tstl 4\n"
	r.Rows = append(r.Rows,
		fragmentRow("x + 2", setup, "\tldl 1\n\tadc 2", 2, 3),
		fragmentRow("(v + w) * (y + z)", setup,
			"\tldl 1\n\tldl 2\n\tadd\n\tldl 3\n\tldl 4\n\tadd\n\tmul", 8, 49),
	)
	return r
}
