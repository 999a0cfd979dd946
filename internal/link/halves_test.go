package link

import (
	"testing"

	"transputer/internal/core"
	"transputer/internal/raceflag"
	"transputer/internal/sim"
)

// TestFreshEngineHoldsNoHalves: an engine allocates a link's halves
// only when the link is wired or driven, so an unwired end costs the
// host nothing.
func TestFreshEngineHoldsNoHalves(t *testing.T) {
	k := sim.NewKernel()
	m := core.MustNew(core.T424().WithMemory(16 * 1024))
	e := NewEngine(k, m)
	e.SetReliable(true, 0, 0)
	e.SetStopAndWait(true)
	e.Halt()
	e.Resume()
	for l := range e.outs {
		if e.outs[l] != nil || e.ins[l] != nil || e.Connected(l) {
			t.Errorf("link %d of a fresh engine holds halves", l)
		}
		if down, _ := e.LinkDown(l); down {
			t.Errorf("link %d of a fresh engine is down", l)
		}
	}
	peer := NewEngine(k, core.MustNew(core.T424().WithMemory(16*1024)))
	Connect(e, 2, peer, 1)
	for l := range e.outs {
		if got := e.outs[l] != nil; got != (l == 2) {
			t.Errorf("after wiring link 2, link %d holds halves: %v", l, got)
		}
	}
	if e.outs[2].rel.timeout != DefaultRelTimeout || !e.ins[2].rel.on || !e.ins[2].stopAndWait {
		t.Error("halves allocated after the mode setters did not take their modes")
	}
	e.BeginOutput(core.End(0), m.MemStart(), 4, nil)
	if e.outs[0] == nil || e.ins[0] == nil || e.Connected(0) {
		t.Error("an output on unwired link 0 did not allocate its halves, or wired it")
	}
	if raceflag.Enabled {
		return // the race detector's instrumentation allocates
	}
	if n := testing.AllocsPerRun(100, func() { engineSink = NewEngine(k, m) }); n != 1 {
		t.Errorf("a fresh engine costs %.0f allocations, want the engine's alone", n)
	}
}

var engineSink *Engine

// TestModesBeforeConnect: the mode setters reach halves allocated
// after them, so setting the error-detecting or stop-and-wait mode
// before the link is wired moves the same bytes at the same instants,
// with the same wire counters, as setting it after.
func TestModesBeforeConnect(t *testing.T) {
	type result struct {
		got          [5]byte
		sentAt, recd sim.Time
		ab, ba       WireStats
	}
	msg := []byte{1, 2, 3, 4, 5}
	run := func(setMode func(*Engine), before bool) result {
		k := sim.NewKernel()
		ma := core.MustNew(core.T424().WithMemory(16 * 1024))
		mb := core.MustNew(core.T424().WithMemory(16 * 1024))
		ea, eb := NewEngine(k, ma), NewEngine(k, mb)
		if before {
			setMode(ea)
			setMode(eb)
		}
		Connect(ea, 2, eb, 1)
		if !before {
			setMode(ea)
			setMode(eb)
		}
		var r result
		ma.WriteBytes(ma.MemStart(), msg)
		ea.BeginOutput(core.End(2), ma.MemStart(), len(msg), func() { r.sentAt = k.Now() })
		eb.BeginInput(core.End(1), mb.MemStart(), len(msg), func() { r.recd = k.Now() })
		k.Run()
		copy(r.got[:], mb.ReadBytes(mb.MemStart(), len(msg)))
		r.ab, r.ba = ea.WireStats(2), eb.WireStats(1)
		return r
	}
	for _, mode := range []struct {
		name string
		set  func(*Engine)
	}{
		{"reliable", func(e *Engine) { e.SetReliable(true, 0, 0) }},
		{"stop-and-wait", func(e *Engine) { e.SetStopAndWait(true) }},
	} {
		after, before := run(mode.set, false), run(mode.set, true)
		if string(after.got[:]) != string(msg) || after.recd == 0 {
			t.Errorf("%s: received %v at %v", mode.name, after.got, after.recd)
		}
		if before != after {
			t.Errorf("%s set before Connect: %+v, after it: %+v", mode.name, before, after)
		}
		if plain := run(func(*Engine) {}, false); plain == after {
			t.Errorf("%s: the mode changed nothing: %+v", mode.name, plain)
		}
	}
}
