// Error-detecting link mode.
//
// The paper's link protocol (section 2.3, figure 1) assumes perfect
// wires: a data packet is always delivered and always acknowledged.
// This file adds an opt-in mode for imperfect wires, layered on the
// same two signal lines:
//
//   - every data packet carries a one-bit sequence number and an 8-bit
//     CRC trailer covering the payload and the sequence bit
//     (RelDataBits = 20 bit times instead of 11);
//   - the receiver checks the trailer, NAKs corrupt packets, and
//     acknowledges good ones with the sequence bit echoed back
//     (RelAckBits = 3 bit times);
//   - the sender retransmits on NAK or when no acknowledge arrives
//     within a timeout, up to a bounded retry budget; exhausting the
//     budget declares the link down and leaves the blocked process for
//     the deadlock watchdog to report, and a sender whose board halts
//     or whose link the heartbeat declares down stops the same way;
//   - the alternating sequence bit lets the receiver recognise a
//     retransmission whose original acknowledge was lost, re-acknowledge
//     it, and deliver the byte exactly once.
//
// Unlike figure 1's overlapped acknowledge, a receiver in this mode can
// only acknowledge after the whole packet (and its trailer) has
// arrived, and the acknowledge means "accepted" — delivered to a
// waiting process or placed in the single-byte buffer — rather than
// "consumed".  A data byte arriving while the buffer is occupied is
// ignored without acknowledgement; the sender's paced retries carry it
// until the buffered byte is consumed or the retry budget runs out.
package link

import (
	"transputer/internal/probe"
	"transputer/internal/sim"
)

// Defaults for SetReliable: the timeout is ~45 data-packet times at the
// standard rate, and the budget tolerates ~0.3 ms of silence before
// declaring a link dead.
const (
	DefaultRelTimeout = 10 * sim.Microsecond
	DefaultRelRetries = 32
)

// crc8 is the ATM-HEC polynomial x^8+x^2+x+1 (0x07) over the payload
// and sequence bit of a data packet.
func crc8(payload, seq byte) byte {
	crc := payload
	for bit := 0; bit < 8; bit++ {
		if crc&0x80 != 0 {
			crc = crc<<1 ^ 0x07
		} else {
			crc <<= 1
		}
	}
	crc ^= seq
	for bit := 0; bit < 8; bit++ {
		if crc&0x80 != 0 {
			crc = crc<<1 ^ 0x07
		} else {
			crc <<= 1
		}
	}
	return crc
}

// relMode is the error-detecting mode an engine's senders run in.
type relMode struct {
	on         bool
	timeout    sim.Time
	maxRetries int
}

// relRetry is the error-detecting-mode state of one outHalf, allocated
// by its first use (useRetry): a half in the paper's protocol holds
// only its relMode.
type relRetry struct {
	seq        byte // sequence bit of the byte in flight
	cur        byte // payload of the byte in flight
	retries    int  // retries spent on the current byte
	timer      sim.EventID
	timerArmed bool
	onTimeout  func() // the half's retryTimeout, bound once
	failed     bool   // retry budget exhausted; link declared down
}

// useRetry returns the half's retry state, allocating it on first use.
func (o *outHalf) useRetry() *relRetry {
	if o.retry == nil {
		o.retry = &relRetry{}
	}
	return o.retry
}

// failed reports whether the sender has stopped for a dead link (see
// LinkDown).
func (o *outHalf) failed() bool { return o.retry != nil && o.retry.failed }

// relReceiver is the error-detecting-mode state of one inHalf.
type relReceiver struct {
	on     bool
	expect byte // next sequence bit expected
}

// sendReliable queues the current byte with its trailer.  retrans
// marks a resend, which the wire counts separately from goodput.
func (o *outHalf) sendReliable(b byte, retrans bool) {
	r := o.useRetry()
	r.cur = b
	o.wire.send(packet{
		kind:    pktData,
		rel:     true,
		bits:    RelDataBits,
		payload: b,
		seq:     r.seq,
		crc:     crc8(b, r.seq),
		flow:    o.flow,
		retrans: retrans,
	})
}

// relTxEnd arms the retransmit timer once the packet's bits are out,
// unless the sender is paused.
func (o *outHalf) relTxEnd() {
	o.txEnded = true
	if !o.acked && !o.failed() {
		o.txEndAt = o.wire.k.Now()
		o.armRetryTimer()
	}
}

func (o *outHalf) armRetryTimer() {
	o.cancelRetryTimer()
	r := o.useRetry()
	if r.onTimeout == nil {
		r.onTimeout = o.retryTimeout
	}
	r.timer = o.wire.k.After(o.rel.timeout, r.onTimeout)
	r.timerArmed = true
}

func (o *outHalf) cancelRetryTimer() {
	if r := o.retry; r != nil && r.timerArmed {
		o.wire.k.Cancel(r.timer)
		r.timerArmed = false
	}
}

func (o *outHalf) retryTimeout() {
	o.retry.timerArmed = false
	if !o.active || o.acked || o.retry.failed {
		return
	}
	o.retransmit()
}

// retransmit resends the current byte, or declares the link down when
// the retry budget is spent.  A spent budget pauses the sender with its
// byte still current, for RecoverLink to resend.
func (o *outHalf) retransmit() {
	r := o.useRetry()
	r.retries++
	if r.retries > o.rel.maxRetries {
		r.failed = true
		if o.eng.bus != nil {
			o.eng.emit(probe.Event{Kind: probe.LinkDown, Link: o.link,
				Arg: int64(o.rel.maxRetries), Flow: o.flow})
		}
		o.eng.verdict(o.link, false)
		return
	}
	if o.eng.bus != nil {
		o.eng.emit(probe.Event{Kind: probe.LinkRetransmit, Link: o.link,
			Arg: int64(r.retries), Flow: o.flow})
	}
	o.sendReliable(r.cur, true)
}

// park pauses a sender whose acknowledge cannot come — its board is
// halted, or the heartbeat has declared its link down — in the state a
// spent retry budget leaves: no retry timer, its byte current, for
// RecoverLink to resend.  Nothing is sent into a dead link.
func (o *outHalf) park() {
	if o.rel.on && o.active && !o.acked {
		o.cancelRetryTimer()
		o.useRetry().failed = true
	}
}

// relAckArrived handles an acknowledge carrying the given sequence bit.
func (o *outHalf) relAckArrived(seq byte) {
	o.heard()
	r := o.useRetry()
	if !o.active || o.acked || r.failed || seq != r.seq {
		return // stale or duplicate acknowledge
	}
	o.cancelRetryTimer()
	if o.txEnded && o.eng.bus != nil {
		if stall := o.eng.k.Now() - o.txEndAt; stall > 0 {
			o.eng.emit(probe.Event{Kind: probe.AckStall, Link: o.link, Dur: stall,
				Flow: o.flow})
		}
	}
	o.acked = true
	r.retries = 0
	r.seq ^= 1
	o.advance()
}

// relNakArrived handles a negative acknowledge: the receiver saw a
// corrupt trailer; resend at once.
func (o *outHalf) relNakArrived() {
	o.heard()
	if !o.active || o.acked || o.failed() {
		return
	}
	o.cancelRetryTimer()
	o.retransmit()
}

// relDataArrive handles a data packet in error-detecting mode.  The
// flow is noted even for corrupt packets — the flow's bits did reach
// this node, and the NAK that answers them should stay on the flow.
func (in *inHalf) relDataArrive(p packet) {
	in.heard()
	in.noteFlow(p.flow)
	if crc8(p.payload, p.seq) != p.crc {
		in.sendNak()
		return
	}
	if p.seq != in.rel.expect {
		// A retransmission of the previous byte: our acknowledge was
		// lost.  Re-acknowledge without delivering twice.
		in.sendRelAck(p.seq)
		return
	}
	switch {
	case in.active:
		in.sendRelAck(p.seq)
		in.rel.expect ^= 1
		in.store(p.payload)
	case !in.bufferValid:
		// No process waiting: accept into the single-byte buffer and
		// acknowledge; the buffered byte is consumed by a later input.
		in.buffer = p.payload
		in.bufferValid = true
		in.sendRelAck(p.seq)
		in.rel.expect ^= 1
		if in.armed != nil {
			ready := in.armed
			in.armed = nil
			ready()
		}
	default:
		// Buffer occupied: stay silent.  The sender's timeout-paced
		// retries redeliver the byte once there is room.
	}
}

func (in *inHalf) sendRelAck(seq byte) {
	in.ackWire.send(packet{kind: pktAck, rel: true, bits: RelAckBits, seq: seq, flow: in.flow})
}

func (in *inHalf) sendNak() {
	if in.eng.bus != nil {
		in.eng.emit(probe.Event{Kind: probe.LinkNak, Link: in.link, Flow: in.flow})
	}
	in.ackWire.send(packet{kind: pktNak, rel: true, bits: NakBits, flow: in.flow})
}
