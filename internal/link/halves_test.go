package link

import (
	"testing"
	"unsafe"

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

// TestEngineSize pins an engine within Go's 192-byte size class and a
// link's output half within the 160-byte class.  The multiplexers, the
// liveness monitor and the verdict callback, which only multiplexed,
// monitored or routed engines use, moved behind the engine's routed
// pointer; the error-detecting sender's retry state moved behind the
// half's retry pointer, its mode staying inline.  They were 280 and 200
// bytes, in the 288- and 208-byte classes; an array has an engine a
// node and two output halves a wired link.
func TestEngineSize(t *testing.T) {
	if n := unsafe.Sizeof(Engine{}); n > 192 {
		t.Errorf("Engine is %d bytes, over 192", n)
	}
	if n := unsafe.Sizeof(outHalf{}); n > 160 {
		t.Errorf("outHalf is %d bytes, over 160", n)
	}
}

// TestPlainLinkStaysCold: a message over a plain wired link allocates
// neither the engines' routed parts nor the senders' retry state; the
// setters that need them, and the error-detecting mode's traffic, do.
func TestPlainLinkStaysCold(t *testing.T) {
	run := func(set func(*Engine)) (ea, eb *Engine) {
		k := sim.NewKernel()
		ma := core.MustNew(core.T424().WithMemory(16 * 1024))
		mb := core.MustNew(core.T424().WithMemory(16 * 1024))
		ea, eb = NewEngine(k, ma), NewEngine(k, mb)
		set(ea)
		set(eb)
		Connect(ea, 2, eb, 1)
		ea.BeginOutput(core.End(2), ma.MemStart(), 4, nil)
		eb.BeginInput(core.End(1), mb.MemStart(), 4, nil)
		k.Run()
		return ea, eb
	}
	ea, eb := run(func(*Engine) {})
	if ea.routed != nil || eb.routed != nil || ea.outs[2].retry != nil || eb.outs[1].retry != nil {
		t.Error("a plain transfer allocated a routed part or retry state")
	}
	if ea, _ := run(func(e *Engine) { e.SetReliable(true, 0, 0) }); ea.routed != nil || ea.outs[2].retry == nil {
		t.Errorf("reliable traffic: routed part %v, retry state %v; want none and some", ea.routed != nil, ea.outs[2].retry != nil)
	}
	for _, c := range []struct {
		name string
		set  func(*Engine)
	}{
		{"SetHeartbeat", func(e *Engine) { e.SetHeartbeat() }},
		{"OnVerdict", func(e *Engine) { e.OnVerdict(func(int, bool) {}) }},
		{"EnableVChans", func(e *Engine) { e.EnableVChans(0, 2) }},
	} {
		if ea, _ := run(c.set); ea.routed == nil {
			t.Errorf("%s left the routed part unallocated", c.name)
		}
	}
}
