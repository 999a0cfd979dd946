package core_test

import (
	"fmt"
	"testing"

	"transputer/internal/apps/dbsearch"
	"transputer/internal/core"
	"transputer/internal/network"
	"transputer/internal/occam"
	"transputer/internal/probe"
	"transputer/internal/sim"
)

// A machine's cold part (core's coldState) holds what only a
// preemption, a forced halt, the event channel or a probe bus uses.  These
// tests check that the arrays it was split out for never allocate it,
// that each of its uses does, and that a fresh one reads as a reset
// machine.

// TestSearchArrayStaysCold: after four queries through the
// 128-transputer search no machine holds a cold part.
func TestSearchArrayStaysCold(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the 128-node array")
	}
	s, err := dbsearch.Build(dbsearch.Defaults128())
	if err != nil {
		t.Fatal(err)
	}
	keys := []int64{5, 17, 29, 41}
	got, rep := s.RunSearches(keys, 10*sim.Second)
	if !rep.Settled || len(got) != len(keys) {
		t.Fatalf("settled=%v answers=%d", rep.Settled, len(got))
	}
	for _, n := range s.Net.Nodes() {
		if core.HasCold(n.M) {
			t.Errorf("node %s holds a cold part", n.Name)
		}
	}
}

// TestIdleArrayStaysCold: nor does any machine of an array whose nodes
// all wait for input that never comes (the array network's
// TestIdleNodeAllocGuard prices).
func TestIdleArrayStaysCold(t *testing.T) {
	r, err := occam.Compile("CHAN in:\nPLACE in AT LINK0IN:\nVAR x:\nin ? x\n", occam.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const rows, cols = 4, 8
	s := network.NewSystem()
	at := make([]*network.Node, rows*cols)
	for i := range at {
		at[i] = s.MustAddTransputer(fmt.Sprintf("n%d", i), core.T424().WithMemory(16*1024))
		if err := at[i].Load(r.Image); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c+1 < cols; c++ {
			s.MustConnect(at[r*cols+c], 1, at[r*cols+c+1], 0)
		}
		if r+1 < rows {
			s.MustConnect(at[r*cols], 3, at[(r+1)*cols], 2)
		}
	}
	if rep := s.Run(sim.Second); !rep.Settled || len(rep.Blocked) != rows*cols {
		t.Fatalf("the idle array did not settle with every node waiting: %d of %d blocked", len(rep.Blocked), rows*cols)
	}
	for _, n := range at {
		if core.HasCold(n.M) {
			t.Errorf("node %s holds a cold part", n.Name)
		}
	}
}

// faultSource reads a word far above memory.
const faultSource = `
	ldc 0
	ldnl 0         -- address 0 is the middle of the address space
	stopp
`

// TestColdPartOnFirstUse: each use of the cold part allocates it, and
// loading a program drops it again.
func TestColdPartOnFirstUse(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  string
		use  func(*core.Machine) // before the run
	}{
		{name: "a preemption", src: preemptSource},
		{name: "an event channel input", src: eventInputSource},
		{name: "a forced halt and restart", src: "\tstopp\n", use: func(m *core.Machine) {
			m.ForceHalt("test")
			if !m.ClearForcedHalt() {
				t.Error("the forced halt did not clear")
			}
		}},
		{name: "a probe bus with flows", src: parallelCommSource,
			use: func(m *core.Machine) { m.AttachProbe(probe.NewBus()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := core.MustNew(core.T424().WithMemory(64 * 1024))
			img := assemble(t, tc.src)
			if err := m.Load(img); err != nil {
				t.Fatal(err)
			}
			if core.HasCold(m) {
				t.Fatal("a loaded machine holds a cold part")
			}
			if tc.use != nil {
				tc.use(m)
			}
			core.Run(m, sim.Millisecond)
			if !core.HasCold(m) {
				t.Fatal("no cold part after its use")
			}
			if err := m.Load(img); err != nil {
				t.Fatal(err)
			}
			if core.HasCold(m) {
				t.Error("loading again kept the cold part")
			}
		})
	}
	// The controls: the flows case's program with no bus touches
	// nothing cold, and nor does a memory fault, whose record the byte
	// and word accessors write inline.
	for _, src := range []string{parallelCommSource, faultSource} {
		m := core.MustNew(core.T424().WithMemory(64 * 1024))
		if err := m.Load(assemble(t, src)); err != nil {
			t.Fatal(err)
		}
		core.Run(m, sim.Millisecond)
		if core.HasCold(m) {
			t.Errorf("%q allocated the cold part", src)
		}
		if want := src != parallelCommSource; (m.Fault() != nil) != want {
			t.Errorf("%q: fault %v, want one: %v", src, m.Fault(), want)
		}
	}
}

// TestFreshColdPartReadsReset: a cold part allocated by one use (a
// forced halt and restart) leaves the event channel as a reset machine
// has it, with no process waiting, so an event raised before the input
// is latched rather than waking a process at address 0.
func TestFreshColdPartReadsReset(t *testing.T) {
	m := core.MustNew(core.T424().WithMemory(64 * 1024))
	if err := m.Load(assemble(t, eventInputSource)); err != nil {
		t.Fatal(err)
	}
	m.ForceHalt("test")
	if !m.ClearForcedHalt() || !core.HasCold(m) {
		t.Fatal("the halt and restart did not allocate the cold part")
	}
	if err := m.Fault(); err != nil {
		t.Fatalf("a restarted machine reports %v", err)
	}
	m.RaiseEvent()
	res := core.Run(m, sim.Millisecond)
	if !res.Settled || m.Local(1) != 1 || m.Fault() != nil {
		t.Fatalf("latched event not consumed: settled=%v local1=%d fault=%v", res.Settled, m.Local(1), m.Fault())
	}
}
