package exp

import (
	"fmt"

	"transputer/internal/asm"
	"transputer/internal/core"
	"transputer/internal/isa"
	"transputer/internal/sim"
)

// E4CommunicationCycles measures the cost of internal channel
// communication as a function of message size and compares it with the
// paper's max(24, 21+8n/wordlength) formula (section 3.2.10).
//
// Method: a parent outputs an n-byte block to a child over an internal
// channel.  The total cycle count varies only with the completing
// side's transfer cost, so the per-size delta from the 4-byte baseline
// isolates the formula's size term.
func E4CommunicationCycles() Result {
	r := Result{
		ID:    "E4",
		Title: "message communication cost, max(24, 21+8n/wordlength) cycles (paper 3.2.10)",
		Notes: "measured as the completing side's charge, from run-to-run cycle deltas",
	}
	sizes := []int{1, 4, 16, 64, 256}
	base, err := commRunCycles(4)
	if err != nil {
		r.Rows = append(r.Rows, Row{Label: "baseline", Measured: "error: " + err.Error()})
		return r
	}
	baseCost := isa.CommunicationCycles(4, 32)
	for _, n := range sizes {
		total, err := commRunCycles(n)
		if err != nil {
			r.Rows = append(r.Rows, Row{Label: fmt.Sprintf("%d bytes", n), Measured: "error: " + err.Error()})
			continue
		}
		measured := int64(baseCost) + int64(total) - int64(base)
		want := int64(isa.CommunicationCycles(n, 32))
		r.Rows = append(r.Rows, Row{
			Label:    fmt.Sprintf("%3d bytes", n),
			Paper:    fmt.Sprintf("%d cycles", want),
			Measured: fmt.Sprintf("%d cycles", measured),
			OK:       measured == want,
		})
	}
	return r
}

// commRunCycles runs a parent/child block transfer of n bytes and
// returns the machine's total cycle count.
func commRunCycles(n int) (uint64, error) {
	// The byte count is loaded from a data word so the instruction
	// stream is identical for every size: cycle deltas between runs
	// then isolate the communication charge itself.
	src := fmt.Sprintf(`
	mint
	stl 3
	ldc 2
	stl 1
	ldpi cont
	stl 0
	ldc child-after
	ldlp -80
	startp
after:
	ajw -40
	ldpi buf
	ldlp 43
	ldpi cnt
	ldnl 0
	out
	ldlp 40
	endp
child:
	ldpi buf
	adc 512
	ldlp 83
	ldpi cnt
	ldnl 0
	in
	ldlp 80
	endp
cont:
	stopp
	align
cnt:
	word %d
buf:
	space 1024
`, n)
	m, err := loadT424(src)
	if err != nil {
		return 0, err
	}
	res := core.Run(m, 10*sim.Millisecond)
	if !res.Settled || m.Fault() != nil {
		return 0, fmt.Errorf("transfer run failed: settled=%v fault=%v", res.Settled, m.Fault())
	}
	return m.Stats().Cycles, nil
}

// E5PrioritySwitch measures the latency from a high-priority process
// becoming ready (while a low-priority process is executing long
// instructions) to its first instruction completing, and the cost of
// switching back down.  Paper 3.2.4: at most 58 cycles up, 17 cycles
// down.
func E5PrioritySwitch() Result {
	r := Result{
		ID:    "E5",
		Title: "priority switch latency (paper 3.2.4)",
		Notes: "worst case over wakeups injected at every point of a long block move",
	}
	worst, down, err := measurePrioritySwitch()
	if err != nil {
		r.Rows = append(r.Rows, Row{Label: "switch", Measured: "error: " + err.Error()})
		return r
	}
	r.Rows = append(r.Rows, Row{
		Label:    "priority 1 -> priority 0 (worst case)",
		Paper:    "<= 58 cycles",
		Measured: fmt.Sprintf("%d cycles", worst),
		OK:       worst <= isa.MaxPriority1To0Cycles,
	})
	r.Rows = append(r.Rows, Row{
		Label:    "priority 0 -> priority 1",
		Paper:    "17 cycles",
		Measured: fmt.Sprintf("%d cycles", down),
		OK:       down == isa.ResumeLowCycles,
	})
	return r
}

// measurePrioritySwitch determines the worst-case latency between a
// high-priority process becoming ready and its dispatch.  A wakeup
// lands, in the worst case, just after the processor committed to the
// longest uninterruptible execution slice; the latency is that slice
// plus the preemption charge.  Both parts are measured: the slice
// bound from a block-move-heavy low-priority loop (long instructions
// execute in installments precisely so this bound stays small), and
// the preemption charge from an injected wakeup.  The downward cost is
// measured when the high process stops and the interrupted
// low-priority process resumes.
func measurePrioritySwitch() (worstUp uint64, down uint64, err error) {
	const moveLoop = `
loop:
	ldpi buf
	ldpi buf
	adc 512
	ldc 400
	move
	j loop
	align
buf:
	space 1024
`
	// Longest uninterruptible slice under a move-heavy load.
	m, err := loadT424(moveLoop)
	if err != nil {
		return 0, 0, err
	}
	maxSlice := 0
	for i := 0; i < 400; i++ {
		if c := m.Step(); c > maxSlice {
			maxSlice = c
		}
	}

	// Preemption charge: inject a high-priority jump loop at an
	// instruction boundary; the next step preempts and runs the high
	// process's first instruction (a 3-cycle jump).
	m2, err := loadT424(moveLoop)
	if err != nil {
		return 0, 0, err
	}
	highIptr, highW := plantHigh(m2, isa.EncodeOperand(nil, isa.FnJ, -2)) // j to itself
	for i := 0; i < 7; i++ {
		m2.Step()
	}
	m2.StartProcess(highW, highIptr, core.PriorityHigh)
	stepCost := m2.Step()
	if m2.Wdesc != highW|core.PriorityHigh {
		return 0, 0, fmt.Errorf("high process not dispatched after preemption")
	}
	preemptCost := stepCost - 3 // subtract the jump itself
	worstUp = uint64(maxSlice + preemptCost)

	// Downward switch: the high process executes a single stop
	// process; the step that runs it carries the preemption charge,
	// the stop itself, and the restoration of the interrupted
	// low-priority state.  Subtracting the known instruction costs
	// isolates the downward charge.
	const simpleLoop = "loop:\n\tldc 0\n\tstl 1\n\tj loop\n"
	m3, err := loadT424(simpleLoop)
	if err != nil {
		return 0, 0, err
	}
	hi3, hw3 := plantHigh(m3, isa.EncodeOp(nil, isa.OpStopp))
	const injectAt = 9
	for i := 0; i < injectAt; i++ {
		m3.Step()
	}
	m3.StartProcess(hw3, hi3, core.PriorityHigh)
	stoppCycles, _ := isa.OpCycles(isa.OpStopp, 32)
	step := m3.Step() // preempt + stopp + resume interrupted state
	down = uint64(step - preemptCost - stoppCycles)
	if m3.Wdesc == hw3|core.PriorityHigh {
		return 0, 0, fmt.Errorf("high process still current after stopping")
	}
	return worstUp, down, nil
}

// loadT424 assembles src and loads it on a T424 with 64 KiB.
func loadT424(src string) (*core.Machine, error) {
	a, err := asm.Assemble(src, 4)
	if err != nil {
		return nil, err
	}
	m, err := core.New(core.T424().WithMemory(64 * 1024))
	if err != nil {
		return nil, err
	}
	if err := m.Load(a.Image); err != nil {
		return nil, err
	}
	return m, nil
}

// plantHigh writes a high-priority process's code after the loaded
// image and returns its instruction and workspace pointers.
func plantHigh(m *core.Machine, code []byte) (iptr, wptr uint64) {
	iptr = m.EntryWptr() + 4*128
	m.WriteBytes(iptr, code)
	wptr = m.EntryWptr() + 4*64
	return iptr, wptr
}
