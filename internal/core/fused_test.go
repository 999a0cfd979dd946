package core_test

import (
	"fmt"
	"strings"
	"testing"

	"transputer/internal/asm"
	"transputer/internal/core"
)

// StepRun runs three idioms as one step each — array load, compare and
// branch, loop end — but only when the whole idiom would run record by
// record in the same batch, none faulting.  Each case of
// TestFusedIdiomSplits loops over the idioms the way one of those
// conditions fails somewhere inside them, and holds the cached machine
// to a stepwise one after every batch: a fused step that ran when it
// should have split shows as a state, counter or fault that differs.

// searchLoop is the figure-7 search's inner loop as occam compiles it,
// all three idioms in order:
//
//	SEQ i = [0 FOR passes]   -- control block at local ctl
//	  IF a[index] = key      -- a at local arr, key at local 4
//	    hits := hits + 1     -- local 6
//
// where index, computed into local 3 from the loop index, is the
// caller's code.  It starts at label go and stops at the end.
func searchLoop(arr, ctl, passes int, index string) string {
	return fmt.Sprintf(`go:	ldc 0
	stl %[2]d
	ldc %[3]d
	stl %[5]d
loop:
%[4]s	stl 3
	ldl 3
	ldlp %[1]d
	wsub
	ldnl 0
	ldl 4
	diff
	eqc 0
	cj skip
	ldl 6
	adc 1
	stl 6
skip:	ldlp %[2]d
	ldc end-loop
	lend
end:	stopp
`, arr, ctl, passes, index, ctl+1)
}

// low2 keeps the index inside a two-word array.
const low2 = "\tldl 1\n\tldc 1\n\tand\n"

// fusedDifferential runs img on a cached machine, StepRun batches
// bounded by budget, against a stepwise one with its memory fully
// backed, comparing them after every batch, and returns the cached
// machine.  prep is applied to both after loading.
func fusedDifferential(t *testing.T, img core.Image, cfg core.Config, prep func(*core.Machine), budget func(batch int) int64) *core.Machine {
	t.Helper()
	on, off := core.MustNew(cfg), core.MustNew(cfg)
	off.SetBlockCache(false)
	core.BackFully(off)
	for _, m := range []*core.Machine{on, off} {
		if err := m.Load(img); err != nil {
			t.Fatal(err)
		}
		if prep != nil {
			prep(m)
		}
	}
	for batch := 0; batch < 5000; batch++ {
		ran, _ := on.StepRun(budget(batch))
		if ran == 0 {
			ran = on.Step()
		}
		if ran == 0 {
			off.Step()
		}
		for off.Cycles() < on.Cycles() && off.Step() != 0 {
		}
		compareMachines(t, batch, on, off)
		if ran == 0 || on.Halted() || on.Idle() {
			break
		}
	}
	return on
}

func TestFusedIdiomSplits(t *testing.T) {
	every := func(batch int) int64 { return int64(1+batch%17) * core.CycleNs }
	wide := func(int) int64 { return 5000 * core.CycleNs }
	var slices []int
	for ts := 20; ts <= 60; ts++ {
		slices = append(slices, ts)
	}
	cases := []struct {
		name string
		src  string
		// timeslices are run one after the other (none when empty).
		timeslices []int
		prep       func(m *core.Machine)
		budget     func(batch int) int64
		// ahead drives the program through the run-ahead checker, its
		// link engine writing into the open input buffer.
		ahead bool
		// fused says some idiom must have run as one step; every case
		// splits some.
		fused bool
		fault bool // the program must end in a memory fault
	}{
		{name: "the budget ends inside an idiom, at every point", budget: every, fused: true,
			src: "\tws 32 32\n" + searchLoop(10, 1, 300, low2)},
		{name: "the slice falls due before lend", budget: wide, timeslices: slices, fused: true,
			// Two processes share the loop, so a slice that ends moves
			// the machine to the other; one slice length or another
			// falls due between the loop end's head and its lend.
			src: "\tws 96 16\n\tldpi go\n\tldlp -40\n\tstnl -1\n\tldlp -40\n\tadc 1\n\trunp\n" +
				searchLoop(10, 1, 100, low2)},
		{name: "the index leaves the backing, then memory", budget: wide, fused: true, fault: true,
			// 64 words a pass: unbacked memory reads zero, and then the
			// load past the end faults on ldnl.
			src: "\tws 32 32\n" + searchLoop(10, 1, 1000, "\tldl 1\n\tldc 64\n\tprod\n")},
		{name: "a misaligned workspace faults on the array load's head", budget: wide, fault: true,
			src:  "\tws 32 32\n\tldl 1\n\tldlp 10\n\twsub\n\tldnl 0\n\tstopp\n",
			prep: func(m *core.Machine) { m.Wdesc += 2 }},
		{name: "a misaligned workspace faults on the compare's head", budget: wide, fault: true,
			src:  "\tws 32 32\n\tldl 1\n\tdiff\n\teqc 0\n\tcj out\nout:\tstopp\n",
			prep: func(m *core.Machine) { m.Wdesc += 2 }},
		{name: "a loop control block outside memory faults on lend", budget: wide, fault: true,
			src: "\tws 32 32\nhead:\tldlp 5000\n\tldc end-head\n\tlend\nend:\tstopp\n"},
		{name: "a store rewrites the compare's code", budget: every, fused: true,
			// Each pass stores eqc k, k the pass count's low bits, over
			// the compare's eqc: the block holding both is decoded anew.
			src: `	ws 32 32
	ldc 40
	stl 3
loop:	ldl 3
	ldc 15
	and
	ldc #C0
	or
	ldpi site
	sb
	ldl 1
	ldl 2
	diff
site:	eqc 0
	cj skip
	ldl 6
	adc 1
	stl 6
skip:	ldl 3
	adc -1
	stl 3
	ldl 3
	cj done
	j loop
done:	stopp
`},
		{name: "lend rewrites the block it ends", budget: every, fused: true, fault: true,
			// The workspace is the loop's own code: its control block is
			// the first eight bytes, all ldc, which each lend changes —
			// the index counting up, the count down — until the count's
			// low byte turns 0x3F, an ldnl that faults.
			src: `	ldpi blk
	gajw
	align
blk:	ldc 0
	ldc 0
	ldc 0
	ldc 0
	ldc 15
	ldc 0
	ldc 0
	ldc 0
	ldlp 0
	ldc end-blk
	lend
end:	stopp
`},
		{name: "running ahead, an open buffer covers the array words", ahead: true, fused: true,
			// A 32-word buffer, all of it searched.
			src: strings.Replace(waitLow("\tldlp 5\n\tmint\n\tldnlp 4\n\tldc 128\n\tin\n",
				searchLoop(45, 1, 400, "\tldl 1\n\tldc 31\n\tand\n")), "ws 96 16", "ws 96 48", 1)},
		{name: "running ahead, an open buffer covers the loop control block", ahead: true, fused: true,
			src: waitLow("\tldlp 5\n\tmint\n\tldnlp 4\n\tldc 8\n\tin\n", searchLoop(10, 45, 400, low2))},
		{name: "running ahead, an open buffer covers the loop end's code", ahead: true, fused: true,
			src: waitLow("\tldpi skip\n\tmint\n\tldnlp 4\n\tldc 4\n\tin\n", searchLoop(10, 1, 400, low2))},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a, err := asm.Assemble(c.src, 4)
			if err != nil {
				t.Fatal(err)
			}
			var f core.FusedStats
			if c.ahead {
				for seed := int64(1); seed <= 8; seed++ {
					f.Add(runAheadDifferential(t, a.Image, 4, false, seed))
				}
			} else {
				timeslices := c.timeslices
				if len(timeslices) == 0 {
					timeslices = []int{0} // no slicing
				}
				for _, ts := range timeslices {
					cfg := core.T424().WithMemory(16 * 1024)
					cfg.TimesliceCycles = ts
					m := fusedDifferential(t, a.Image, cfg, c.prep, c.budget)
					if (m.Fault() != nil) != c.fault {
						t.Errorf("fault %v, want one: %v", m.Fault(), c.fault)
					}
					f.Add(m.FusedStats())
				}
			}
			if (f.Steps > 0) != c.fused || f.Splits == 0 {
				t.Errorf("%+v: want steps %v and splits", f, c.fused)
			}
		})
	}
	// Running ahead, an idiom that would touch what an open transfer
	// may write splits, and the batch stops at the constituent that
	// touches it, or at the head when the transfer covers the code.
	for _, c := range []runAheadCase{
		{name: "running ahead, an array load from an open buffer stops at ldnl", exit: core.AheadHazard, ran: true,
			src: waitLow(inputLocal5, "go:\tldc 1\n\tstl 3\n\tldl 3\n\tldlp 44\n\twsub\nstop:\tldnl 0\n\tj go\n")},
		{name: "running ahead, a loop end on a control block in an open buffer stops at lend", exit: core.AheadHazard, ran: true,
			src: waitLow(inputLocal5, "go:\tldc 1\n\tstl 1\n\tldlp 45\n\tldc 9\nstop:\tlend\n\tj go\n")},
		{name: "running ahead, a loop end whose code is in an open buffer stops at its head", exit: core.AheadHazard, ran: true,
			src: waitLow("\tldpi stop\n\tmint\n\tldnlp 4\n\tldc 2\n\tin\n",
				"go:\tldc 1\n\tstl 1\n\tldc 0\n\tcj stop\n\tstopp\nstop:\tldlp 2\n\tldc 9\n\tlend\n\tj go\n")},
		{name: "running ahead, a batch that may not run ahead does not start at an idiom", exit: core.AheadWait,
			src: waitLow("\tldlp 5\n\tmint\n\tldnlp 8\n\tldc 4\n\tin\n",
				"go:\tldl 1\n\tldlp 10\n\twsub\n\tldnl 0\n\tstl 2\n\tj go\n")},
	} {
		t.Run(c.name, func(t *testing.T) {
			if f := runAheadStop(t, c).FusedStats(); f.Splits == 0 {
				t.Errorf("%+v: want a split", f)
			}
		})
	}
}
