package core_test

import (
	"testing"

	"transputer/internal/asm"
	"transputer/internal/core"
	"transputer/internal/probe"
)

// Each case of TestRunAheadStops runs a small program on a machine whose
// link engine the test owns (fakeLinks, see blockcache_fuzz_test.go)
// until the process that is to run ahead reaches `go` with the other
// one blocked, then calls RunAhead with time to spare: it must stop
// where the delivery-independence rule says, for the reason it says,
// having executed everything before that and faulted on nothing.

// waitLow starts a low-priority child 40 words below the main process,
// which then executes wait and blocks: the child runs from `go`, seeing
// the main process's local n as its own local 40+n.
func waitLow(wait, child string) string {
	return `
	ws 96 16
	ldpi go
	ldlp -40
	stnl -1
	ldlp -40
	adc 1
	runp
` + wait + `
	stopp
` + child
}

const (
	inputLocal5  = "\tldlp 5\n\tmint\n\tldnlp 4\n\tldc 4\n\tin\n"
	outputLocal5 = "\tldlp 5\n\tmint\n\tldnlp 0\n\tldc 4\n\tout\n"
	// spin is a loop no delivery reaches; the cases that must not start
	// at all end with it.
	spin = "go:\tldc 1\nstop:\tstl 1\n\tj go\n"
)

// runAheadCase is a program and where RunAhead must stop in it.
type runAheadCase struct {
	name string
	src  string
	exit core.AheadExit
	// ran says whether instructions before `stop` run ahead; otherwise
	// RunAhead must refuse at `go`, where `stop` is not.
	ran       bool
	timeslice int
	haltOnErr bool
	prep      func(m *core.Machine) // applied before the program runs
}

var runAheadCases = []runAheadCase{
	{name: "load from an open input buffer", exit: core.AheadHazard, ran: true,
		src: waitLow(inputLocal5, "go:\tldc 1\n\tstl 1\nstop:\tldl 45\n\tcj go\n\tj go\n")},
	{name: "byte load from an open input buffer", exit: core.AheadHazard, ran: true,
		src: waitLow(inputLocal5, "go:\tldlp 45\n\tadc 3\nstop:\tlb\n\tcj go\n\tj go\n")},
	{name: "store into an open output buffer", exit: core.AheadHazard, ran: true,
		src: waitLow(outputLocal5, "go:\tldc 1\n\tstl 1\n\tldc 7\n\tldlp 44\nstop:\tstnl 1\n\tj go\n")},
	{name: "code inside an open input buffer", exit: core.AheadHazard, ran: true,
		src: waitLow("\tldpi stop\n\tmint\n\tldnlp 4\n\tldc 2\n\tin\n",
			"go:\tldc 1\n\tstl 1\n\tldc 0\n\tcj stop\n\tstopp\nstop:\tldc 1\n\tldc 2\n\tstl 2\n\tj go\n")},
	{name: "the waiting process's link word", exit: core.AheadHazard, ran: true,
		src: waitLow(inputLocal5, "go:\tldc 1\n\tstl 1\nstop:\tldl 38\n\tcj go\n\tj go\n")},
	{name: "the run queue's tail link word", exit: core.AheadHazard, ran: true,
		// A second child, 60 words down, is queued behind the first: its
		// link word is where the woken main process will be chained.
		src: "\tldpi idle\n\tldlp -60\n\tstnl -1\n" + waitLow("\tldlp -60\n\tadc 1\n\trunp\n"+inputLocal5,
			"go:\tldc 1\n\tstl 1\nstop:\tldl -22\n\tcj go\n\tj go\nidle:\tstopp\n")},
	{name: "a load outside memory", exit: core.AheadHazard, ran: true,
		src: waitLow(inputLocal5, "go:\tldc 1\n\tstl 1\n\tldc 0\nstop:\tldnl 0\n\tj go\n")},
	{name: "a loop control block outside memory", exit: core.AheadHazard, ran: true,
		src: waitLow(inputLocal5, "go:\tldc 1\n\tstl 1\n\tldc 0\n\tldc 2\nstop:\tlend\n\tj go\n")},
	{name: "a jump with the timeslice used up", exit: core.AheadSliceDue, ran: true, timeslice: 40,
		src: waitLow(inputLocal5, "go:\tldc 1\n\tstl 1\n\tldc 1000\n\tldc 1000\n\tprod\n\tstl 2\nstop:\tj go\n")},
	{name: "a loop end with the timeslice used up", exit: core.AheadSliceDue, ran: true, timeslice: 40,
		src: waitLow(inputLocal5, "go:\tldc 9\n\tstl 3\nhead:\tldc 1000\n\tldc 1000\n\tprod\n\tstl 1\n"+
			"\tldlp 2\n\tldc after-head\nstop:\tlend\nafter:\tstopp\n")},
	{name: "an impure operation", exit: core.AheadImpure, ran: true,
		src: waitLow(inputLocal5, "go:\tldc 1\n\tstl 1\nstop:\tldtimer\n\tstl 2\n\tj go\n")},
	{name: "nothing in the way", exit: core.AheadBound, ran: true,
		src: waitLow(inputLocal5, "go:\tldc 1\n\tstl 1\n\tldl 44\n\tstl 46\n\tj go\nstop:\n")},
	{name: "nothing in the way, in memory not yet backed", exit: core.AheadBound, ran: true,
		// The buffer and the loop's load and store lie far above the
		// program, in memory the host has not backed: all inside memory.
		src: waitLow("\tmint\n\tldnlp 3000\n\tmint\n\tldnlp 4\n\tldc 4\n\tin\n",
			"go:\tmint\n\tldnlp 2000\n\tldnl 0\n\tmint\n\tstnl 2500\n\tj go\nstop:\n")},
	{name: "error halting armed", exit: core.AheadImpure, haltOnErr: true,
		src: waitLow(inputLocal5, spin)},
	{name: "a wait on the event channel", exit: core.AheadWait,
		src: waitLow("\tldlp 5\n\tmint\n\tldnlp 8\n\tldc 4\n\tin\n", spin)},
	{name: "an alternative armed on a link", exit: core.AheadWait,
		src: waitLow("\talt\n\tldc 1\n\tmint\n\tldnlp 4\n\tenbc\n\taltwt\n", spin)},
	{name: "an input buffer outside memory", exit: core.AheadWait,
		src: waitLow("\tldc 0\n\tmint\n\tldnlp 4\n\tldc 4\n\tin\n", spin)},
	{name: "a second process waiting on a channel end in use", exit: core.AheadWait,
		// The process started first inputs on link 0 after the main
		// process already has: its wait has no direction record.
		src: "\tws 96 16\n\tldpi also\n\tldlp -60\n\tstnl -1\n\tldlp -60\n\tadc 1\n\trunp\n" +
			waitLow(inputLocal5, spin+"also:\n"+inputLocal5+"\tstopp\n")},
	{name: "virtual channels mapped", exit: core.AheadWait,
		src:  waitLow(inputLocal5, spin),
		prep: func(m *core.Machine) { m.MapVChan(m.VChanInAddr(0, 0), 0, 0, false) }},
	{name: "a probe bus attached", exit: core.AheadOff,
		src:  waitLow(inputLocal5, spin),
		prep: func(m *core.Machine) { m.AttachProbe(probe.NewBus()) }},
	{name: "a trace hook attached", exit: core.AheadOff,
		src:  waitLow(inputLocal5, spin),
		prep: func(m *core.Machine) { m.SetTrace(func(core.TraceEvent) {}) }},
	{name: "the block cache off", exit: core.AheadOff,
		src:  waitLow(inputLocal5, spin),
		prep: func(m *core.Machine) { m.SetBlockCache(false) }},
	{name: "a high-priority process waiting under a low-priority one", exit: core.AheadWait,
		// The child, started at high priority, preempts, blocks on its
		// input and lets the main process go on.
		src: "\tws 96 16\n\tldpi child\n\tldlp -40\n\tstnl -1\n\tldlp -40\n\trunp\n" + spin +
			"child:\n" + inputLocal5 + "\tstopp\n"},
}

func TestRunAheadStops(t *testing.T) {
	for _, c := range runAheadCases {
		t.Run(c.name, func(t *testing.T) { runAheadStop(t, c) })
	}
}

// runAheadStop runs c's program to go, then ahead, and checks where and
// why it stopped; it returns the machine.
func runAheadStop(t *testing.T, c runAheadCase) *core.Machine {
	t.Helper()
	a, err := asm.Assemble(c.src, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.T424().WithMemory(16 * 1024)
	cfg.HaltOnError = c.haltOnErr
	if c.timeslice != 0 {
		cfg.TimesliceCycles = c.timeslice
	}
	m := core.MustNew(cfg)
	links := &fakeLinks{m: m}
	m.Attach(nil, links)
	if err := m.Load(a.Image); err != nil {
		t.Fatal(err)
	}
	if c.prep != nil {
		c.prep(m)
	}
	at := func(label string) uint64 { return m.CodeStart() + uint64(a.Labels[label]) }
	for steps := 0; m.Iptr != at("go") || m.WaitingProcesses() == 0; steps++ {
		if m.Step() == 0 || steps == 200 {
			t.Fatalf("never reached go with a process waiting: Iptr %#x, fault %v", m.Iptr, m.Fault())
		}
	}
	before := m.Cycles()
	total, _, exit := m.RunAhead(1000 * core.CycleNs)
	if exit != c.exit {
		t.Errorf("exit %v, want %v", exit, c.exit)
	}
	if m.Cycles() != before+uint64(total) {
		t.Errorf("ran %d cycles, reported %d", m.Cycles()-before, total)
	}
	switch {
	case m.Halted() || m.Fault() != nil || m.ErrorFlag():
		t.Errorf("halted=%v fault=%v error=%v", m.Halted(), m.Fault(), m.ErrorFlag())
	case c.exit == core.AheadBound:
		if total < 1000 {
			t.Errorf("ran %d cycles of 1000", total)
		}
	case c.ran && (total == 0 || m.Iptr != at("stop")):
		t.Errorf("ran %d cycles and stopped at %#x, want stop at %#x", total, m.Iptr, at("stop"))
	case !c.ran && (total != 0 || m.Iptr != at("go")):
		t.Errorf("ran %d cycles to %#x, want none", total, m.Iptr)
	}
	return m
}
