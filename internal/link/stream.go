// Stream API — raw byte streams over the transfer layer.
//
// The routing layer (internal/route) drives link engines directly,
// from the node's own shard, without involving the machine: Send and
// Recv move byte slices where BeginOutput/BeginInput move machine
// memory, over the same ends.  The resynchronisation and recovery
// entry points live here too: they are what the self-healing layer
// calls when a link comes back after an outage.
package link

import "transputer/internal/core"

// LinkDown reports whether link i's sender exhausted its retry budget
// in error-detecting mode, and how many retries it spent.
func (e *Engine) LinkDown(i int) (down bool, retries int) {
	if i < 0 || i >= core.NumLinks {
		return false, 0
	}
	return e.outs[i].rel.failed, e.outs[i].rel.retries
}

// Send transmits the given bytes on end c without involving the
// machine: down the whole link, or over one vchan of a multiplexed one.
// The data is copied.  Returns false when the end is not this engine's
// (see resolve), the link is unwired, or the end's sender is already
// busy; done fires when the final byte has been acknowledged.
func (e *Engine) Send(c core.End, data []byte, done func()) bool {
	l, m, ok := e.resolve(c)
	switch {
	case !ok:
		return false
	case m != nil:
		return m.send(c.VC(), append([]byte(nil), data...), done)
	case !e.Connected(l):
		return false
	}
	o := e.outs[l]
	if o.active {
		return false
	}
	if len(data) == 0 {
		if done != nil {
			done()
		}
		return true
	}
	o.start(append([]byte(nil), data...), 0, len(data), done)
	return true
}

// Recv receives n bytes from end c without involving the machine,
// handing the filled buffer to done.  Returns false when the end is not
// this engine's, the link is unwired, or the end's receiver is already
// busy.  On a vchan, done may fire synchronously when staged bytes
// already satisfy the request.
func (e *Engine) Recv(c core.End, n int, done func([]byte)) bool {
	l, m, ok := e.resolve(c)
	switch {
	case !ok:
		return false
	case m != nil:
		return m.recv(c.VC(), n, done)
	case !e.Connected(l):
		return false
	}
	in := e.ins[l]
	if in.active {
		return false
	}
	if n <= 0 {
		if done != nil {
			done(nil)
		}
		return true
	}
	buf := make([]byte, n)
	in.start(buf, 0, n, func() {
		if done != nil {
			done(buf)
		}
	})
	return true
}

// ResyncLink aborts whatever transfer is in progress on link l in both
// directions and resets the error-detecting sequence state to its
// power-on values.  The routing layer performs this handshake on both
// ends when a link comes back after an outage, so the two halves agree
// on a fresh byte stream; bytes of the old stream are discarded.
// Transfer completion callbacks of the aborted transfers never fire.
// A virtual-channel multiplexer on the link is reset to its power-on
// state too: chunks and credit of the old stream belong to the old
// stream.
func (e *Engine) ResyncLink(l int) {
	if l < 0 || l >= core.NumLinks {
		return
	}
	o := e.outs[l]
	o.cancelRetryTimer()
	o.active = false
	o.done = nil
	o.stalledAtStart = false
	o.rel.failed = false
	o.rel.retries = 0
	o.rel.seq = 0
	if o.wire != nil {
		// Queued frames belong to the abandoned stream.
		o.wire.clearQueues()
	}
	in := e.ins[l]
	in.active = false
	in.done = nil
	in.armed = nil
	in.bufferValid = false
	in.rel.expect = 0
	if m := e.mux[l]; m != nil {
		m.resync()
	}
}

// RecoverLink revives link l's sender after a freeze-restart outage
// without losing the byte in flight.  It only applies in
// error-detecting mode: the alternating sequence bit makes the
// retransmission exactly-once whether the outage swallowed the
// original byte or only its acknowledge.  Plain-mode transfers cannot
// be recovered safely (no sequence bit to dedup a blind resend) and
// stay stalled for the watchdog to report.
func (e *Engine) RecoverLink(l int) {
	if l < 0 || l >= core.NumLinks || !e.Connected(l) {
		return
	}
	o := e.outs[l]
	if !o.rel.on {
		return
	}
	o.rel.failed = false
	o.rel.retries = 0
	if !o.active {
		return
	}
	if o.stalledAtStart {
		// The transfer never began; send its first byte now.
		o.stalledAtStart = false
		o.sendByte()
		return
	}
	if !o.acked {
		o.cancelRetryTimer()
		o.sendReliable(o.rel.cur, true)
	}
}
