// Byte-transfer layer — the paper's data/acknowledge protocol.
//
// An outHalf clocks a message out one byte at a time, advancing only
// when the current byte has both finished transmitting and been
// acknowledged ("the sending process may proceed only after the
// acknowledge for the final byte of the message has been received").
// An inHalf issues the overlapped acknowledge of figure 1 the instant a
// data packet starts arriving — if a process is waiting — and owns the
// single-byte buffer that catches a byte no process was ready for.
// A transfer's source or sink is either a byte slice (host devices, the
// routing layer's raw streams, the vchan multiplexer) or the engine's
// machine memory, so a message costs no per-transfer closures and a
// byte no allocation on either end.
//
// Acknowledge credit.  Once a process is waiting for n bytes, the next n
// acknowledges are already decided, so where no one can observe or delay
// them the receiver promises them instead of sending them: a real
// acknowledge carries a grant (inHalf.sendAck), the sender marks that
// many bytes credited and counts each acknowledged as it starts
// (outHalf.sendByte), and the receiver books the acknowledge each would
// have drawn — same counters, same instant, same busy line — without a
// frame (inHalf.dataStart).  Three things end a promise early: the
// receiving engine needing the line for data of its own (revoke), a cut
// (cutCredit), and an acknowledge that carries no grant.  DESIGN.md §15
// has the time arithmetic; any run someone is watching takes the
// per-packet path, which is the reference.
package link

import (
	"transputer/internal/probe"
	"transputer/internal/sim"
)

// outHalf is the sending side of one channel of a link.
type outHalf struct {
	wire *wire // this end's outgoing signal line for the link

	// eng and link are the engine and link this half belongs to.
	eng  *Engine
	link int

	active bool
	// The message being sent: buf when non-nil, else count bytes of the
	// engine's machine memory at ptr.
	buf     []byte
	ptr     uint64
	count   int
	sent    int
	done    func()
	txEnded bool // current byte finished transmitting
	acked   bool // current byte acknowledged
	// stalledAtStart marks a transfer that start() could not begin
	// because the link had been declared down: no byte of it is on the
	// wire, so recovery must send the first byte rather than retransmit.
	stalledAtStart bool
	// cuts is the set of causes this end of the link is cut for (see
	// setCut); the end carries traffic only while it is empty.
	cuts uint8
	// txEndAt records when the current byte finished transmitting, for
	// measuring the wait for its acknowledge.
	txEndAt sim.Time

	// credit is how many more bytes the far end has promised to
	// acknowledge; ackAt is when the acknowledge of the latest byte sent
	// on credit would have landed (set by the wire as the frame starts),
	// which is what a cut compares with the clock.
	credit int
	ackAt  sim.Time

	// flow is the probe flow identity of the transfer in progress,
	// handed over by the machine (core.External's HandoffFlow); every
	// packet of the transfer carries it.  Zero when untraced.
	flow uint64

	// retry is the error-detecting-mode state, nil until that mode
	// first uses it (see reliable.go).
	retry *relRetry
}

// inHalf is the receiving side of one channel of a link.
type inHalf struct {
	ackWire *wire // this end's outgoing line, used for acknowledges

	active bool
	// Where the message lands: buf when non-nil, else count bytes of the
	// engine's machine memory at ptr.
	buf      []byte
	ptr      uint64
	count    int
	received int
	done     func()

	buffer      byte
	bufferValid bool
	armed       func() // alternative-input readiness callback

	// ackSentAtStart records whether the acknowledge for the byte
	// currently in flight was issued at reception start.
	ackSentAtStart bool

	// granted is how many more bytes this half has promised to
	// acknowledge and has not yet seen start; never below the sender's
	// credit, and equal to it when no credited byte is in flight.
	granted int

	// eng and link are the engine and link this half belongs to.
	eng  *Engine
	link int

	// flow is the probe flow identity carried by the packets arriving on
	// this half — acknowledges and NAKs echo it back so the retry tail
	// stays on the flow; flowSeen is the last flow for which a
	// FlowArrive event was published (once per flow, on its first
	// packet).
	flow     uint64
	flowSeen uint64

	// expect is the sequence bit the error-detecting mode expects next
	// (see reliable.go).
	expect byte
}

// start begins sending count bytes: buf's when it is non-nil, else the
// engine's machine memory from ptr.
func (o *outHalf) start(buf []byte, ptr uint64, count int, done func()) {
	o.active = true
	o.buf, o.ptr = buf, ptr
	o.count = count
	o.sent = 0
	o.done = done
	o.stalledAtStart = false
	if o.wire == nil || o.failed() {
		// Unconnected or failed link: waits forever (until recovery).
		o.stalledAtStart = o.failed()
		return
	}
	// Data is about to share the line with the acknowledges this end's
	// receiver promised: from here on they queue like any frame, so they
	// must be frames.
	o.eng.ins[o.link].revoke()
	o.sendByte()
}

func (o *outHalf) sendByte() {
	var b byte
	if o.buf != nil {
		b = o.buf[o.sent]
	} else {
		b = o.eng.m.ByteAt(o.ptr + uint64(o.sent))
	}
	o.txEnded = false
	o.acked = false
	if o.eng.rel.on {
		o.sendReliable(b, false)
		return
	}
	p := packet{kind: pktData, bits: DataBits, payload: b, flow: o.flow}
	if o.credit > 0 {
		o.credit--
		o.acked = true
		p.credited = true
	}
	o.wire.send(p)
}

func (o *outHalf) txEnd() {
	o.txEnded = true
	if !o.acked {
		o.txEndAt = o.eng.k.Now()
	}
	o.advance()
}

// ackArrived takes a real acknowledge and the credit it grants, which
// replaces whatever credit was held: an acknowledge without a grant
// ends the promise.
func (o *outHalf) ackArrived(grant int) {
	o.heard()
	// An ack landing after the byte finished transmitting stalls the
	// sender for the difference (the overlapped acknowledge of figure 1
	// exists to make this zero in the streaming case).
	if o.txEnded && !o.acked && o.eng.bus != nil {
		if stall := o.eng.k.Now() - o.txEndAt; stall > 0 {
			o.eng.emit(probe.Event{Kind: probe.AckStall, Link: o.link,
				Dur: stall, Flow: o.flow})
		}
	}
	o.acked = true
	o.credit = grant
	o.advance()
}

// creditRevoked hears the far end withdraw its promise, still owing
// owed acknowledges by its own count.  If that is more than the credit
// left here, the byte now on the wire went out on credit after the far
// end stopped honouring it: it is unacknowledged again, and the far end
// acknowledges it for real when its reception starts.  The revocation
// was posted before that byte's reception start and lands a lookahead
// later, inside two lookaheads of the byte's own start — long before
// its transmission ends, so no one has acted on the acknowledge yet.
func (o *outHalf) creditRevoked(owed int) {
	if owed > o.credit {
		o.acked = false
		o.ackAt = 0
		o.eng.credit.UnackedAtRevoke++
	}
	o.credit = 0
}

// cutCredit ends both promises at a cut, at this end: the one its
// receiver made, and the one its sender holds, where the acknowledge of
// a byte sent on credit is lost iff it would have landed strictly after
// now (at this very instant the delivery precedes the event that cuts,
// as it does per packet).
func (o *outHalf) cutCredit() {
	o.credit = 0
	o.eng.ins[o.link].granted = 0
	if o.ackAt > o.wire.k.Now() {
		o.acked = false
		o.ackAt = 0
		o.eng.credit.UnackedAtCut++
	}
}

// advance moves to the next byte once the current byte has both
// finished transmitting and been acknowledged.
func (o *outHalf) advance() {
	if !o.active || !o.txEnded || !o.acked {
		return
	}
	o.sent++
	if o.sent == o.count {
		o.active = false
		done := o.done
		o.done = nil
		if done != nil {
			done()
		}
		return
	}
	o.sendByte()
}

// start begins receiving count bytes: into buf when it is non-nil, else
// into the engine's machine memory from ptr.
func (in *inHalf) start(buf []byte, ptr uint64, count int, done func()) {
	in.active = true
	in.buf, in.ptr = buf, ptr
	in.count = count
	in.received = 0
	in.done = done
	if in.bufferValid {
		// A byte arrived before the process was ready; consume it and
		// release the withheld acknowledge.  (In error-detecting mode
		// the acknowledge went out when the byte was accepted into the
		// buffer, so none is owed here.)
		b := in.buffer
		in.bufferValid = false
		in.store(b)
		if !in.eng.rel.on {
			in.sendAck(0)
		}
	}
}

// dataStart fires when a data packet begins arriving: the acknowledge
// goes out immediately if a process is waiting, making streaming
// continuous.  The flow is noted before the overlapped acknowledge is
// built so the ack already carries it.  A byte sent on credit this half
// still honours has been counted acknowledged by its sender already:
// the books record the acknowledge it would have drawn, now, and the
// line is busy for its two bit times, but nothing is transmitted.  (A
// credited byte arriving after the promise was withdrawn is an ordinary
// byte: its sender has been told.)
func (in *inHalf) dataStart(flow uint64, credited bool) {
	in.heard()
	in.noteFlow(flow)
	if credited && in.granted > 0 {
		in.granted--
		w := in.ackWire
		dur := int64(AckBits) * w.bitNs
		w.stats.Acks++
		w.stats.BusyNs += dur
		w.creditUntil = w.k.Now() + sim.Time(dur)
		in.ackSentAtStart = true
		in.eng.credit.Credited++
		return
	}
	in.ackSentAtStart = false
	if in.active && !in.eng.stopAndWait {
		in.sendAck(1)
		in.ackSentAtStart = true
	}
}

// noteFlow records the flow arriving on this half and publishes a
// FlowArrive event the first time each flow's packets reach this node —
// the instant the flow crosses the wire and joins this node's timeline.
func (in *inHalf) noteFlow(flow uint64) {
	if flow == 0 {
		return
	}
	in.flow = flow
	if flow == in.flowSeen || in.eng.bus == nil {
		return
	}
	in.flowSeen = flow
	// Stamped with time and node but not the machine cycle counter: the
	// receiving CPU runs asynchronously to its link hardware, and its
	// cycle count at this instant depends on simulator batching (the
	// block cache), not on architecture.
	in.eng.bus.Publish(probe.Event{Kind: probe.FlowArrive, Link: in.link, Flow: flow,
		Time: in.eng.k.Now(), Node: in.eng.m.Name()})
}

// dataArrive fires when the data packet completes.
func (in *inHalf) dataArrive(p packet) {
	in.heard()
	in.noteFlow(p.flow)
	b := p.payload
	if in.active {
		in.store(b)
		if !in.ackSentAtStart {
			// The process turned up while the byte was in flight.
			in.sendAck(0)
		}
		return
	}
	// No process waiting: hold the byte in the single-byte buffer; the
	// acknowledge is withheld until a process inputs it.
	in.buffer = b
	in.bufferValid = true
	if in.armed != nil {
		ready := in.armed
		in.armed = nil
		ready()
	}
}

func (in *inHalf) store(b byte) {
	if in.buf != nil {
		in.buf[in.received] = b
	} else {
		in.eng.m.SetByteAt(in.ptr+uint64(in.received), b)
	}
	in.received++
	if in.received == in.count {
		in.active = false
		done := in.done
		in.done = nil
		if done != nil {
			done()
		}
	}
}

// sendAck transmits an acknowledge.  While the input stays open the
// acknowledge also grants credit for every byte the input still wants
// beyond the one acknowledged — pending is 1 when that byte has not been
// stored yet — provided nothing can observe or delay an acknowledge on
// this link (mayGrant).
func (in *inHalf) sendAck(pending int) {
	p := packet{kind: pktAck, bits: AckBits, flow: in.flow}
	in.granted = 0
	if in.active && in.mayGrant() {
		in.granted = min(in.count-in.received-pending, maxGrant)
		p.grant = uint32(in.granted)
		if in.granted > 0 {
			in.eng.credit.Granted++
		}
	}
	in.ackWire.send(p)
}

// mayGrant reports whether the acknowledges of this link, in this
// direction, are unobservable and undelayable: the two ends on
// different ports (a host end shares its node's), neither with a probe
// bus or a liveness monitor, the plain protocol with the overlapped
// acknowledge, no multiplexer, no fault hook on either line, the cable
// whole, and the acknowledge line idle with this end sending no data on
// it.  Everything read of the far
// end is configuration, settled before traffic flows.
func (in *inHalf) mayGrant() bool {
	w := in.ackWire
	if w.to == nil {
		return false // one clock: there is no post to save
	}
	far := w.rx.out // the half sending to this one
	e, fe := in.eng, far.eng
	return e.bus == nil && fe.bus == nil &&
		!e.beat && !fe.beat &&
		!e.rel.on && !e.stopAndWait &&
		e.muxOf(in.link) == nil && fe.muxOf(far.link) == nil &&
		w.hook == nil && far.wire.hook == nil &&
		w.tx.cuts == 0 && !e.outs[in.link].active && !w.busy && w.queueEmpty()
}

// revoke withdraws whatever credit this half has outstanding, telling
// the sender how much of it is still owed here — the sender's own count
// is one lower if a credited byte is on its way (see creditRevoked).
// The notice travels like any signal on the line, one lookahead.
func (in *inHalf) revoke() {
	if in.granted == 0 {
		return
	}
	w := in.ackWire
	w.from.PostMsg(w.to, w.k.Now()+w.prop, w.rx, sim.Msg{A: rxRevoke, B: uint64(in.granted)})
	in.granted = 0
	in.eng.credit.Revoked++
}
