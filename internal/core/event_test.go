package core_test

import (
	"testing"

	"transputer/internal/core"
	"transputer/internal/sim"
)

// The event channel (paper 2.2.2): an external stimulus completes a
// process's input from the EVENT address.

// eventInputSource inputs from the event channel and then sets local 1.
const eventInputSource = `
	ldlp 0
	mint
	ldnlp 8        -- the event channel word
	ldc 0
	in
	ldc 1
	stl 1
	stopp
`

func TestEventLatched(t *testing.T) {
	// The event arrives before the process inputs: it is latched.
	m := core.MustNew(core.T424().WithMemory(64 * 1024))
	img := assemble(t, eventInputSource)
	if err := m.Load(img); err != nil {
		t.Fatal(err)
	}
	m.RaiseEvent() // before execution: latched
	res := core.Run(m, sim.Millisecond)
	if !res.Settled || m.Local(1) != 1 {
		t.Fatalf("latched event not consumed: settled=%v local1=%d", res.Settled, m.Local(1))
	}
}

func TestEventWakesWaiter(t *testing.T) {
	m := core.MustNew(core.T424().WithMemory(64 * 1024))
	img := assemble(t, eventInputSource)
	if err := m.Load(img); err != nil {
		t.Fatal(err)
	}
	// Run until the process blocks on the event.
	for i := 0; i < 20 && !m.Idle(); i++ {
		m.Step()
	}
	if !m.Idle() {
		t.Fatal("process should be blocked on the event channel")
	}
	if m.Local(1) == 1 {
		t.Fatal("process ran past the event input")
	}
	m.RaiseEvent()
	res := core.Run(m, sim.Millisecond)
	if !res.Settled || m.Local(1) != 1 {
		t.Fatalf("event wakeup failed: %v %d", res.Settled, m.Local(1))
	}
}

func TestEventAlternative(t *testing.T) {
	// ALT over the event channel and an internal channel: the event
	// fires first.
	m := core.MustNew(core.T424().WithMemory(64 * 1024))
	img := assemble(t, `
	mint
	stl 3          -- a channel nobody uses
	alt
	ldc 1
	mint
	ldnlp 8
	enbc
	ldc 1
	ldlp 3
	enbc
	altwt
	ldc b0-dend
	ldc 1
	mint
	ldnlp 8
	disc
	ldc b1-dend
	ldc 1
	ldlp 3
	disc
	altend
dend:
b0:
	ldlp 0
	mint
	ldnlp 8
	ldc 0
	in
	ldc 10
	stl 1
	stopp
b1:
	ldc 20
	stl 1
	stopp
`)
	if err := m.Load(img); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40 && !m.Idle(); i++ {
		m.Step()
	}
	if !m.Idle() {
		t.Fatal("alternative should be waiting")
	}
	m.RaiseEvent()
	res := core.Run(m, sim.Millisecond)
	if !res.Settled || m.Local(1) != 10 {
		t.Fatalf("event branch not selected: settled=%v local1=%d", res.Settled, m.Local(1))
	}
}

func TestOutputOnEventFaults(t *testing.T) {
	m := core.MustNew(core.T424().WithMemory(64 * 1024))
	img := assemble(t, "\tldc 1\n\tmint\n\tldnlp 8\n\toutword\n\tstopp\n")
	if err := m.Load(img); err != nil {
		t.Fatal(err)
	}
	core.Run(m, sim.Millisecond)
	if m.Fault() == nil {
		t.Error("output on the event channel should fault")
	}
}
