// Stream API — raw byte streams over the transfer layer.
//
// The routing layer (internal/route) drives link engines directly,
// from the node's own shard, without involving the machine: Send and
// Recv move byte slices where BeginOutput/BeginInput move machine
// memory, over the same ends.  A stream is never reset: the
// error-detecting mode carries it exactly once across an outage, and
// the recovery entry point here resumes a sender that stopped in one.
package link

import "transputer/internal/core"

// LinkDown reports whether link i's error-detecting sender has stopped
// for a dead link — its retry budget spent, or paused at a halt or a
// down verdict — and how many retries it spent.
func (e *Engine) LinkDown(i int) (down bool, retries int) {
	if i < 0 || i >= core.NumLinks || e.outs[i] == nil || e.outs[i].retry == nil {
		return false, 0
	}
	return e.outs[i].retry.failed, e.outs[i].retry.retries
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

// RecoverLink resumes link l's error-detecting sender where an outage
// stopped it, without losing the byte in flight: the router calls it
// when the heartbeat hears the peer of a sender that spent its retry
// budget, and an end whose last cut clears does the same (see
// setCause).  The alternating sequence bit makes the resend
// exactly-once whether the outage swallowed the original byte or only
// its acknowledge.  Plain-mode transfers cannot be recovered safely (no
// sequence bit to dedup a blind resend) and stay stalled for the
// watchdog to report.
func (e *Engine) RecoverLink(l int) {
	if e.Connected(l) {
		e.outs[l].recover()
	}
}

func (o *outHalf) recover() {
	if !o.rel.on {
		return
	}
	r := o.useRetry()
	r.failed = false
	r.retries = 0
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
		o.sendReliable(r.cur, true)
	}
}
