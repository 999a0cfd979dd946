package link

import "transputer/internal/sim"

// HostEnd is one end of a link wired to the host development system
// rather than to another transputer (the paper's workstation of section
// 4.1 is programmed this way: transputers talk to peripherals over
// standard links).  It speaks the same bit-level protocol, so traffic
// to and from the host is paced exactly like inter-transputer traffic.
type HostEnd struct {
	k   sim.Clock
	out *outHalf
	in  *inHalf
}

// NewHostEnd creates an unconnected host link end.  A host end wired
// to a node's engine should share that node's clock (its shard), so
// host traffic stays on the synchronous fast path.
func NewHostEnd(k sim.Clock) *HostEnd {
	return &HostEnd{k: k, out: &outHalf{}, in: &inHalf{}}
}

// ConnectHost wires link l of a transputer's engine to the host end.
func ConnectHost(e *Engine, l int, h *HostEnd) {
	newWire(e.k, e.outs[l], e.ins[l], h.in, h.out) // transputer -> host
	newWire(e.k, h.out, h.in, e.ins[l], e.outs[l]) // host -> transputer
}

// SetStopAndWait switches the host end's receiver between overlapped
// and stop-and-wait acknowledges (see Engine.SetStopAndWait).
func (h *HostEnd) SetStopAndWait(v bool) { h.in.stopAndWait = v }

// SetReliable switches the host end into or out of error-detecting
// mode (see Engine.SetReliable); both ends of the wire must agree.
func (h *HostEnd) SetReliable(on bool, timeout sim.Time, maxRetries int) {
	if timeout <= 0 {
		timeout = DefaultRelTimeout
	}
	if maxRetries <= 0 {
		maxRetries = DefaultRelRetries
	}
	h.out.rel.on = on
	h.out.rel.timeout = timeout
	h.out.rel.maxRetries = maxRetries
	h.in.rel.on = on
}

// RecvProgress reports the state of an in-flight Recv: how many bytes
// have arrived of how many expected.  A host end left mid-message when
// the system settles has hit an EOF-like stall (severed link, halted
// peer, or a peer that stopped mid-protocol).
func (h *HostEnd) RecvProgress() (got, want int, active bool) {
	return h.in.received, h.in.count, h.in.active
}

// SendProgress reports the state of an in-flight Send: how many bytes
// have been acknowledged of how many queued.
func (h *HostEnd) SendProgress() (sent, want int, active bool) {
	return h.out.sent, h.out.count, h.out.active
}

// ConnectHosts wires two host ends back to back; used to test the
// protocol machinery in isolation.
func ConnectHosts(a, b *HostEnd) {
	newWire(a.k, a.out, a.in, b.in, b.out)
	newWire(b.k, b.out, b.in, a.in, a.out)
}

// Send transmits data to the transputer, calling done when the final
// byte has been acknowledged.  Like the engine's Send, it returns false
// and does nothing when the end is already sending.
func (h *HostEnd) Send(data []byte, done func()) bool {
	if h.out.active {
		return false
	}
	if len(data) == 0 {
		if done != nil {
			done()
		}
		return true
	}
	h.out.start(append([]byte(nil), data...), 0, len(data), done)
	return true
}

// Recv receives exactly n bytes from the transputer, then calls fn with
// them.  It returns false and does nothing when the end is already
// receiving.
func (h *HostEnd) Recv(n int, fn func([]byte)) bool {
	if h.in.active {
		return false
	}
	if n == 0 {
		fn(nil)
		return true
	}
	buf := make([]byte, n)
	h.in.start(buf, 0, n, func() { fn(buf) })
	return true
}
