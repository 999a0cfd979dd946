// The Engine ties the stack's layers to one machine's four links: it
// implements core.External (machine-memory transfers and alternative
// input) on top of the byte-transfer layer, owns per-link mode switches
// (stop-and-wait, error detecting, heartbeats, virtual channels), and
// carries the fault surface (hooks, sever, halt and resume) down to the
// wires.
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
	k sim.Clock
	m *core.Machine
	// outs and ins hold each link's two halves, allocated together when
	// the link is wired or an entry point first drives it (see out); an
	// untouched link, most of a large array's, holds nil in both.
	outs [core.NumLinks]*outHalf
	ins  [core.NumLinks]*inHalf
	bus  *probe.Bus

	// stopAndWait and rel are the modes the setters last chose, which
	// halves allocated later take; beat is set by SetHeartbeat, which
	// configures the liveness monitor (routed.hb).
	stopAndWait bool
	beat        bool
	rel         relMode

	// credit counts what acknowledge credit (see xfer.go) did at this
	// engine's ends of its links.
	credit CreditStats

	// routed holds what only a multiplexed, monitored or routed engine
	// uses; nil until the first of EnableVChans, SetHeartbeat and
	// OnVerdict (see useRouted).
	routed *routedState
}

// routedState is the part of an engine a plain array never touches,
// kept behind one pointer so it costs such an engine nothing.
type routedState struct {
	// mux holds the per-link virtual-channel multiplexers; nil entries
	// are links carrying a single conversation (see vchan.go).
	mux [core.NumLinks]*Mux

	// hb is the liveness monitor state (see heartbeat.go); onVerdict
	// is told every verdict change and every spent retry budget.
	hb        heartbeat
	onVerdict func(link int, up bool)
}

// useRouted returns the engine's routed part, allocating it on first
// use.
func (e *Engine) useRouted() *routedState {
	if e.routed == nil {
		e.routed = &routedState{}
	}
	return e.routed
}

// muxOf returns link l's multiplexer, nil for a link carrying a single
// conversation.
func (e *Engine) muxOf(l int) *Mux {
	if e.routed == nil {
		return nil
	}
	return e.routed.mux[l]
}

// verdict tells the OnVerdict callback, if any, link l's new verdict.
func (e *Engine) verdict(l int, up bool) {
	if e.routed != nil && e.routed.onVerdict != nil {
		e.routed.onVerdict(l, up)
	}
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
// or a coordinator shard.  A host end's engine has no machine (m is
// nil): it moves byte slices on its link 0 and has no probe bus.
func NewEngine(k sim.Clock, m *core.Machine) *Engine {
	return &Engine{k: k, m: m}
}

// out returns link l's output half, allocating the link's two halves,
// in the engine's current modes, the first time.  Only the entry points
// from the machine, the host and the wiring come here: a half reaches
// its sibling through the arrays directly, since halves come in pairs.
func (e *Engine) out(l int) *outHalf {
	if e.outs[l] == nil {
		e.addHalves(l)
	}
	return e.outs[l]
}

// in is out's twin for the input half.
func (e *Engine) in(l int) *inHalf {
	if e.ins[l] == nil {
		e.addHalves(l)
	}
	return e.ins[l]
}

// addHalves allocates link l's two halves in the engine's modes.
func (e *Engine) addHalves(l int) {
	o := &outHalf{eng: e, link: l}
	o.rel = e.rel
	in := &inHalf{eng: e, link: l, stopAndWait: e.stopAndWait}
	in.rel.on = e.rel.on
	e.outs[l], e.ins[l] = o, in
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
	if m = e.muxOf(l); m == nil {
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
		e.out(l).flow = flow
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
		return e.in(l).flow
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
	ab := newWire(a.k, a.out(la), a.in(la), b.in(lb), b.out(lb))
	ba := newWire(b.k, b.out(lb), b.in(lb), a.in(la), a.out(la))
	ab.from, ab.to, ab.prop = sim.CrossPath(a.k, b.k)
	ba.from, ba.to, ba.prop = sim.CrossPath(b.k, a.k)
}

// Connected reports whether link i has been wired.
func (e *Engine) Connected(i int) bool {
	return i >= 0 && i < core.NumLinks && e.outs[i] != nil && e.outs[i].wire != nil
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
	o := e.out(l)
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
	in := e.in(l)
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
	e.stopAndWait = v
	for _, in := range e.ins {
		if in != nil {
			in.stopAndWait = v
		}
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
	e.rel = relMode{on: on, timeout: timeout, maxRetries: maxRetries}
	for i, o := range e.outs {
		if o != nil {
			o.rel = e.rel
			e.ins[i].rel.on = on
		}
	}
}

// SetFaultHook installs (or with nil, removes) a fault-injection hook
// on link i's outgoing signal line.
func (e *Engine) SetFaultHook(i int, h FaultHook) {
	if e.Connected(i) {
		e.outs[i].wire.hook = h
	}
}

// SeverLink cuts link i for good at the current instant: nothing
// queued or in flight is delivered afterwards, exactly like a cable
// pulled mid-run.  When the link crosses ports, the cut is observed at
// the far end one propagation delay later: this end's outgoing wire and
// inbound gate die now, the peer's die at now+prop — a packet already
// in flight may still land before the cut reaches it.
func (e *Engine) SeverLink(i int) { e.cut(i, cutCable) }

// Halt powers the board's links off with it: the liveness monitor stops,
// every link is cut, here now and at its far end one propagation later,
// and every sender is paused, until Resume.  Once its wires drain, a
// halted engine has no event left.
func (e *Engine) Halt() {
	e.StopHeartbeat()
	for i, o := range e.outs {
		if o != nil {
			e.cut(i, cutHalt)
			o.park()
		}
	}
}

// Resume powers the links back on after a Halt: each link whose only
// cut was this halt carries traffic again at this end now and at the
// far end one propagation later, and each end's error-detecting sender
// resends the byte the halt froze.  A severed cable stays cut, and so
// does a link whose far board is still halted, until that board
// resumes too.  The liveness monitor starts again.
func (e *Engine) Resume() {
	for _, o := range e.outs {
		if o != nil && o.cuts&cutHalt != 0 {
			o.wire.setCut(cutHalt, false)
		}
	}
	e.StartHeartbeat()
}

// cut adds cause c to link i's end.  The probe stream shows one sever a
// cut: an event only when the end was whole.
func (e *Engine) cut(i int, c uint8) {
	if !e.Connected(i) || e.outs[i].cuts&c != 0 {
		return
	}
	o := e.outs[i]
	whole := o.cuts == 0
	o.wire.setCut(c, true)
	if whole && e.bus != nil {
		e.emit(probe.Event{Kind: probe.LinkSever, Link: i})
	}
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
	in := e.in(l)
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
	in := e.in(l)
	in.armed = nil
	return in.bufferValid
}
