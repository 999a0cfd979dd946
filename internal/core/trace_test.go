package core_test

import (
	"fmt"
	"strings"
	"testing"

	"transputer/internal/core"
	"transputer/internal/isa"
	"transputer/internal/probe"
)

// TestTraceLabelDisasmAgree checks that the three ways a code address
// becomes text — the instruction trace, the profiler's label for an
// unattributed address and the disassembly listing — give the same
// name for every direct function and every operation, minimally
// encoded, on a 32-bit and a 16-bit machine.  The operands are those a
// word of the machine holds, so the trace's signed word is the value
// isa.Decode reads from the bytes.
func TestTraceLabelDisasmAgree(t *testing.T) {
	common := []int64{0, 1, 15, 16, -1, -16, -17, 255, -256, -300, 0x754}
	models := []struct {
		cfg      core.Config
		operands []int64
	}{
		{core.T424(), append(common[:len(common):len(common)], 1<<20, 0x7FFFFFFF, -0x80000000)},
		{core.T222(), append(common[:len(common):len(common)], 0x7FFF, -0x8000)},
	}
	type enc struct {
		code []byte
		want string // the full name, "" where the three only have to agree
	}
	for _, md := range models {
		var cases []enc
		for f := isa.Function(0); f < 16; f++ {
			if f == isa.FnPfix || f == isa.FnNfix || f == isa.FnOpr {
				continue
			}
			for _, v := range md.operands {
				cases = append(cases, enc{isa.EncodeOperand(nil, f, v), fmt.Sprintf("%s %d", f.Name(), v)})
			}
		}
		for _, op := range isa.Ops() {
			cases = append(cases, enc{isa.EncodeOp(nil, op), op.Name()})
		}
		for _, c := range cases {
			trace := traceText(t, md.cfg, c.code)
			label := profileLabel(c.code)
			listing := strings.TrimSuffix(isa.Sdisassemble(c.code), "\n")
			if strings.Count(listing, "\n") != 0 {
				t.Fatalf("% X is more than one instruction:\n%s", c.code, listing)
			}
			if trace != c.want || label != c.want || !strings.HasSuffix(listing, "  "+c.want) {
				t.Errorf("%s % X: trace %q, profiler label %q, listing %q; want %q",
					md.cfg.Name, c.code, trace, label, listing, c.want)
			}
		}
	}
}

// traceText runs the first instruction of code on a fresh machine and
// returns the trace's text for it.
func traceText(t *testing.T, cfg core.Config, code []byte) string {
	t.Helper()
	m := core.MustNew(cfg.WithMemory(16 * 1024))
	if err := m.Load(core.Image{Code: code, WsBelow: 16, WsAbove: 16}); err != nil {
		t.Fatal(err)
	}
	var text string
	m.SetTrace(func(e core.TraceEvent) {
		if text == "" {
			text = e.Instr.String()
		}
	})
	m.Step()
	return text
}

// profileLabel is the profiler's label for a sample at the start of
// code, which no source mark covers.
func profileLabel(code []byte) string {
	const start = 0x1000
	tgt := &probe.Target{Counts: map[uint64]uint64{start: 1}, Running: 1}
	tp := probe.Resolve(tgt, probe.ResolveOptions{CodeStart: start, Code: code})
	return tp.Buckets[0].Source
}
