// The Engine ties the stack's layers to one machine's four links: it
// implements core.External (machine-memory transfers and alternative
// input) on top of the byte-transfer layer, owns per-link mode switches
// (stop-and-wait, error detecting, heartbeats, virtual channels), and
// carries the fault surface (hooks, sever, restore) down to the wires.
package link

import (
	"transputer/internal/core"
	"transputer/internal/probe"
	"transputer/internal/sim"
)

// Engine implements core.External for one machine: four link output
// halves and four input halves.  Unconnected links never complete a
// transfer, exactly like real hardware with nothing wired to the pins.
type Engine struct {
	k    sim.Clock
	m    *core.Machine
	outs [core.NumLinks]*outHalf
	ins  [core.NumLinks]*inHalf
	bus  *probe.Bus

	// mux holds the per-link virtual-channel multiplexers; nil entries
	// are links carrying a single conversation (see vchan.go).
	mux [core.NumLinks]*Mux

	// hb is the liveness monitor state (see heartbeat.go); onBeat is
	// told every verdict change.
	hb     heartbeat
	onBeat func(link int, up bool)

	// credit counts what acknowledge credit (see xfer.go) did at this
	// engine's ends of its links.
	credit CreditStats
}

// CreditStats counts acknowledge-credit events at one engine (or, summed,
// a system): diagnostics of the simulator, not of the simulated machine,
// but deterministic and the same at every partition and worker count.
type CreditStats struct {
	Granted         uint64 // acknowledges sent carrying a grant
	Credited        uint64 // acknowledges booked on credit instead of sent
	Revoked         uint64 // grants withdrawn because this end began sending
	UnackedAtRevoke uint64 // bytes in flight a revocation un-acknowledged
	UnackedAtCut    uint64 // bytes in flight a cut un-acknowledged
	LateCompletions uint64 // credited acknowledges that delayed a frame
}

// Add accumulates another engine's counters.
func (c *CreditStats) Add(o CreditStats) {
	c.Granted += o.Granted
	c.Credited += o.Credited
	c.Revoked += o.Revoked
	c.UnackedAtRevoke += o.UnackedAtRevoke
	c.UnackedAtCut += o.UnackedAtCut
	c.LateCompletions += o.LateCompletions
}

// CreditStats returns the engine's acknowledge-credit counters.
func (e *Engine) CreditStats() CreditStats { return e.credit }

// NewEngine builds a link engine for a machine and attaches it.  The
// clock is the machine's own scheduling domain — a standalone kernel
// or a coordinator shard.
func NewEngine(k sim.Clock, m *core.Machine) *Engine {
	e := &Engine{k: k, m: m}
	for i := range e.outs {
		e.outs[i] = &outHalf{eng: e, link: i}
		e.ins[i] = &inHalf{eng: e, link: i}
	}
	return e
}

// AttachProbe connects the engine's wires and senders to a probe bus.
func (e *Engine) AttachProbe(b *probe.Bus) { e.bus = b }

// resolve finds the link an external channel end is on and, when the
// link is multiplexed, its mux.  ok is false when c names no end this
// engine has: a link out of range, a vchan of a plain link, the link's
// own end on a multiplexed one (the mux owns that byte stream), or a
// vchan past the mux's count.  Every entry point below dispatches on
// what it returns, so a plain link and a vchan share one method each.
func (e *Engine) resolve(c core.End) (l int, m *Mux, ok bool) {
	l = c.Link()
	if c < 0 || l >= core.NumLinks {
		return 0, nil, false
	}
	vc := c.VC()
	if m = e.mux[l]; m == nil {
		return l, nil, vc < 0
	}
	return l, m, vc >= 0 && vc < m.n
}

// HandoffFlow implements core.External: the machine tells the engine
// which flow the output about to begin on end c belongs to.
func (e *Engine) HandoffFlow(c core.End, flow uint64) {
	switch l, m, ok := e.resolve(c); {
	case !ok:
	case m != nil:
		m.out[c.VC()].flow = flow
	default:
		e.outs[l].flow = flow
	}
}

// TransferFlow implements core.External: the flow carried by the last
// packet (on a vchan, the last chunk) that arrived on input end c.
func (e *Engine) TransferFlow(c core.End) uint64 {
	switch l, m, ok := e.resolve(c); {
	case !ok:
		return 0
	case m != nil:
		return m.in[c.VC()].flow
	default:
		return e.ins[l].flow
	}
}

// emit stamps and publishes a probe event under the engine's machine.
// Callers must have checked e.bus != nil.
//
//tvet:ignore probeguard the nil-bus fast path is the caller's contract, per the doc line above
func (e *Engine) emit(ev probe.Event) {
	ev.Time = e.k.Now()
	ev.Node = e.m.Name()
	ev.Cycles = e.m.Cycles()
	e.bus.Publish(ev)
}

// Connect wires link la of engine a to link lb of engine b with a pair
// of signal lines.  Engines on the same clock domain get the
// synchronous fast path; engines on different ports of one coordinator
// get posted delivery with the coordinator's lookahead as the wire's
// propagation delay.
func Connect(a *Engine, la int, b *Engine, lb int) {
	ab := newWire(a.k, a.outs[la], a.ins[la], b.ins[lb], b.outs[lb])
	ba := newWire(b.k, b.outs[lb], b.ins[lb], a.ins[la], a.outs[la])
	ab.from, ab.to, ab.prop = sim.CrossPath(a.k, b.k)
	ba.from, ba.to, ba.prop = sim.CrossPath(b.k, a.k)
}

// Connected reports whether link i has been wired.
func (e *Engine) Connected(i int) bool {
	return i >= 0 && i < core.NumLinks && e.outs[i].wire != nil
}

// WireStats returns the traffic counters of link i's outgoing line.
func (e *Engine) WireStats(i int) WireStats {
	if !e.Connected(i) {
		return WireStats{}
	}
	return e.outs[i].wire.stats
}

// BeginOutput starts transmitting count bytes from machine memory on
// end c.  A sender already busy means two processes share one channel
// end, and an end the engine does not have is a misplaced channel —
// occam program errors both; mirror hardware by corrupting nothing and
// hanging, for the watchdog to report.
func (e *Engine) BeginOutput(c core.End, ptr uint64, count int, done func()) {
	l, m, ok := e.resolve(c)
	if !ok {
		return
	}
	if m != nil {
		m.send(c.VC(), e.m.ReadBytes(ptr, count), done)
		return
	}
	o := e.outs[l]
	if o.active {
		return
	}
	if count == 0 {
		done()
		return
	}
	o.start(nil, ptr, count, done)
}

// BeginInput starts receiving count bytes into machine memory on end c.
func (e *Engine) BeginInput(c core.End, ptr uint64, count int, done func()) {
	l, m, ok := e.resolve(c)
	if !ok {
		return
	}
	if m != nil {
		mem := e.m
		m.recv(c.VC(), count, func(buf []byte) {
			mem.WriteBytes(ptr, buf)
			done()
		})
		return
	}
	in := e.ins[l]
	if in.active {
		return
	}
	if count == 0 {
		done()
		return
	}
	in.start(nil, ptr, count, done)
}

// SetStopAndWait switches this engine's receivers between the paper's
// overlapped acknowledge (false, the default) and a plain
// stop-and-wait handshake (true).
func (e *Engine) SetStopAndWait(v bool) {
	for _, in := range e.ins {
		in.stopAndWait = v
	}
}

// SetReliable switches every half of this engine into error-detecting
// mode (CRC trailer, NAK, timeout retransmission with a bounded retry
// budget) or back to the paper protocol.  Both ends of every wired link
// must agree; set the mode before any traffic flows.  A zero timeout or
// retry count selects the defaults.
func (e *Engine) SetReliable(on bool, timeout sim.Time, maxRetries int) {
	if timeout <= 0 {
		timeout = DefaultRelTimeout
	}
	if maxRetries <= 0 {
		maxRetries = DefaultRelRetries
	}
	for i := range e.outs {
		e.outs[i].rel.on = on
		e.outs[i].rel.timeout = timeout
		e.outs[i].rel.maxRetries = maxRetries
		e.ins[i].rel.on = on
	}
}

// SetFaultHook installs (or with nil, removes) a fault-injection hook
// on link i's outgoing signal line.
func (e *Engine) SetFaultHook(i int, h FaultHook) {
	if e.Connected(i) {
		e.outs[i].wire.hook = h
	}
}

// SeverLink cuts both signal lines of link i at the current instant:
// nothing queued or in flight is delivered afterwards, exactly like a
// cable pulled mid-run.  When the link crosses ports, the cut is
// observed at the far end one propagation delay later: this end's
// outgoing wire and inbound gate die now, the peer's die at now+prop —
// a packet already in flight may still land before the cut reaches it.
func (e *Engine) SeverLink(i int) {
	if !e.Connected(i) {
		return
	}
	w := e.outs[i].wire
	if w.severed {
		// Already cut (e.g. a halt's SeverAll after a sever of the same
		// link, or both ends halting): the first cut killed both
		// directions, and the probe stream shows one sever a cut.
		return
	}
	w.setCut(true)
	if e.bus != nil {
		e.emit(probe.Event{Kind: probe.LinkSever, Link: i})
	}
}

// SeverAll cuts every connected link of the engine; used when a fault
// campaign halts the whole node.
func (e *Engine) SeverAll() {
	for i := range e.outs {
		e.SeverLink(i)
	}
}

// RestoreLink reconnects both signal lines of link i, reversing
// SeverLink with the same propagation discipline: this end's wire and
// inbound gate revive now, the peer's revive one propagation later.
func (e *Engine) RestoreLink(i int) {
	if !e.Connected(i) {
		return
	}
	e.outs[i].wire.setCut(false)
}

// EnableInput arms alternative-input readiness signalling on end c.
func (e *Engine) EnableInput(c core.End, ready func()) bool {
	l, m, ok := e.resolve(c)
	switch {
	case !ok:
		return false
	case m != nil:
		return m.enable(c.VC(), ready)
	}
	in := e.ins[l]
	if in.bufferValid {
		return true
	}
	in.armed = ready
	return false
}

// DisableInput disarms signalling on end c and reports data
// availability.
func (e *Engine) DisableInput(c core.End) bool {
	l, m, ok := e.resolve(c)
	switch {
	case !ok:
		return false
	case m != nil:
		return m.disable(c.VC())
	}
	in := e.ins[l]
	in.armed = nil
	return in.bufferValid
}
