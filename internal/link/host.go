package link

import "transputer/internal/sim"

// HostEnd is one end of a link wired to the host development system
// rather than to another transputer (the paper's workstation of section
// 4.1 is programmed this way: transputers talk to peripherals over
// standard links).  It is link 0 of an engine with no machine, so it
// speaks the same protocol through the same halves, and traffic to and
// from the host is paced exactly like inter-transputer traffic.  A host
// end never beats (see Engine.monitored).
type HostEnd struct {
	e *Engine
}

// NewHostEnd creates an unconnected host link end.  A host end wired
// to a node's engine should share that node's clock (its shard), so
// host traffic stays on the synchronous fast path.
func NewHostEnd(k sim.Clock) *HostEnd { return &HostEnd{e: NewEngine(k, nil)} }

// ConnectHost wires link l of a transputer's engine to the host end.
func ConnectHost(e *Engine, l int, h *HostEnd) { Connect(e, l, h.e, 0) }

// ConnectHosts wires two host ends back to back; used to test the
// protocol machinery in isolation.
func ConnectHosts(a, b *HostEnd) { Connect(a.e, 0, b.e, 0) }

// SetStopAndWait switches the host end's receiver between overlapped
// and stop-and-wait acknowledges (see Engine.SetStopAndWait).
func (h *HostEnd) SetStopAndWait(v bool) { h.e.SetStopAndWait(v) }

// SetReliable switches the host end into or out of error-detecting
// mode (see Engine.SetReliable); both ends of the wire must agree.
func (h *HostEnd) SetReliable(on bool, timeout sim.Time, maxRetries int) {
	h.e.SetReliable(on, timeout, maxRetries)
}

// RecvProgress reports the state of an in-flight Recv: how many bytes
// have arrived of how many expected.  A host end left mid-message when
// the system settles has hit an EOF-like stall (severed link, halted
// peer, or a peer that stopped mid-protocol).
func (h *HostEnd) RecvProgress() (got, want int, active bool) {
	in := h.e.ins[0]
	return in.received, in.count, in.active
}

// SendProgress reports the state of an in-flight Send: how many bytes
// have been acknowledged of how many queued.
func (h *HostEnd) SendProgress() (sent, want int, active bool) {
	o := h.e.outs[0]
	return o.sent, o.count, o.active
}

// Send transmits data to the far end, calling done when the final byte
// has been acknowledged.  Like the engine's Send, it returns false and
// does nothing when the end is unwired or already sending.
func (h *HostEnd) Send(data []byte, done func()) bool { return h.e.Send(0, data, done) }

// Recv receives exactly n bytes from the far end, then calls fn with
// them.  It returns false and does nothing when the end is unwired or
// already receiving.
func (h *HostEnd) Recv(n int, fn func([]byte)) bool { return h.e.Recv(0, n, fn) }
