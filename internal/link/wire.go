// Wire scheduler — the bottom layer of the protocol stack.
//
// A wire is one one-directional signal line: a serializer that clocks
// frames out at bit rate, gives acknowledges priority over data (so a
// long data stream in one direction cannot starve the acknowledges of
// the reverse channel), consults the fault-injection hook once per
// frame, and carries deliveries to the receiving end — synchronously
// when both ends share a clock domain, as typed posts between their
// ports with propagation latency when they do not.  A frame in flight
// is a small pointer-free value: the wire knows its two ends, so a
// packet carries no callbacks and crossing ports costs no allocation.
// Everything above this layer deals in whole packets; only this file
// knows about bit times, fault actions and port crossings.
package link

import (
	"transputer/internal/probe"
	"transputer/internal/sim"
)

// packetKind distinguishes the frames multiplexed down a signal line.
type packetKind uint8

const (
	pktData packetKind = iota
	pktAck
	pktNak
	pktBeat
)

// packet is one frame queued on a wire — plain data, no pointers.  What
// happens when it lands, and who hears that it has left, follows from
// its kind and framing and from the wire's two ends (see rxEnd.arrive
// and wire.finishTx).  The sender is always told its bits are out —
// transmitting hardware cannot tell they were lost — while the
// receiving end sees nothing of a packet a fault drops or a cut
// overtakes.
type packet struct {
	kind     packetKind
	rel      bool   // error-detecting-mode framing (see reliable.go)
	retrans  bool   // a resend of a byte already counted as goodput
	credited bool   // data byte sent on acknowledge credit (see xfer.go)
	bits     uint8  // frame length in bit times
	payload  byte   // data byte (pktData)
	seq      byte   // sequence bit (error-detecting mode)
	crc      byte   // check trailer (error-detecting mode)
	grant    uint32 // acknowledge credit granted with this ack (see xfer.go)
	flow     uint64 // probe flow identity carried across the wire; 0 untraced
}

// What a posted message asks of the receiving end (low byte of word A).
const (
	rxArrive  = iota // the packed packet has fully arrived
	rxStart          // a plain data packet has begun arriving
	rxSever          // the far end was cut one propagation ago; word B is the cause as this end counts it
	rxRestore        // the far end lost that cause
	rxRevoke         // the far end withdrew its acknowledge credit; word B is what it still owed
)

// Word A's bits above the packed packet: the credited flag, and above
// it the grant, which bounds the credit one acknowledge can carry.
const (
	creditedFlag = 1 << 41
	grantShift   = 42
	maxGrant     = 1<<(64-grantShift) - 1
)

// msg packs the fields a receiver reads into a post's two words: word A
// is op | kind<<8 | payload<<16 | seq<<24 | crc<<32 | rel<<40 |
// creditedFlag | grant<<grantShift, word B the flow identity.
func (p packet) msg(op uint64) sim.Msg {
	a := op | uint64(p.kind)<<8 | uint64(p.payload)<<16 | uint64(p.seq)<<24 | uint64(p.crc)<<32 |
		uint64(p.grant)<<grantShift
	if p.rel {
		a |= 1 << 40
	}
	if p.credited {
		a |= creditedFlag
	}
	return sim.Msg{A: a, B: p.flow}
}

// unpack reverses msg.
func unpack(m sim.Msg) packet {
	return packet{kind: packetKind(m.A >> 8), payload: byte(m.A >> 16), seq: byte(m.A >> 24),
		crc: byte(m.A >> 32), rel: m.A>>40&1 != 0, credited: m.A&creditedFlag != 0,
		grant: uint32(m.A >> grantShift), flow: m.B}
}

// FaultAction describes what an injected fault does to one packet.
// The zero value leaves the packet untouched.
type FaultAction struct {
	// Drop loses the packet in transit: the sender still clocks the bits
	// out, but the receiver never sees them.
	Drop bool
	// Corrupt is an XOR mask applied to a data packet's payload.
	Corrupt byte
	// Delay holds the wire for extra time before the bits go out.
	Delay sim.Time
}

// FaultHook is consulted once per packet as it starts transmission on a
// wire; isCtl reports a control packet (acknowledge or NAK) rather than
// a data byte.  Hooks are installed by the fault-injection subsystem
// and must be deterministic for a given call sequence.
type FaultHook func(isCtl bool) FaultAction

// rxEnd is the receiving end of a wire: the far halves its frames are
// addressed to.  It lives in the receiving engine's clock domain —
// posted frames are delivered to it there — and admits them only while
// its own end of the link is whole (out.cuts), so a cut kills in-flight
// packets without touching sender state.
type rxEnd struct {
	in  *inHalf  // takes the wire's data packets and beats
	out *outHalf // takes its acknowledges and NAKs
}

// Receive implements sim.Receiver: a message posted by the wire's
// sending end lands in the receiver's kernel.
func (rx *rxEnd) Receive(m sim.Msg) {
	switch op := m.A & 0xff; {
	case op == rxSever, op == rxRestore:
		// A cause of the far end's cut has propagated (see setCut).
		rx.out.setCause(uint8(m.B), op == rxSever)
	case rx.out.cuts != 0:
		// This end is cut: the frame is lost.
	case op == rxStart:
		rx.in.dataStart(m.B, m.A&creditedFlag != 0)
	case op == rxRevoke:
		rx.out.creditRevoked(int(m.B))
	default:
		rx.arrive(unpack(m))
	}
}

// Why a link end is cut (outHalf.cuts).  The causes are independent
// facts, so an end keeps a set of them and carries traffic only while
// the set is empty: a severed cable is cut for good, and a halted board
// cuts its own ends and, one propagation later, its peers'.
const (
	cutCable    uint8 = 1 << iota // the cable is severed
	cutHalt                       // this end's board is halted
	cutPeerHalt                   // the far end's board is halted
)

// setCut adds (on) or clears cause c at this end of the link whose
// outgoing line is w, now, and at the far end when the change has
// propagated — at once when both ends share a clock.  A halt here is a
// halted peer there.
func (w *wire) setCut(c uint8, on bool) {
	w.tx.setCause(c, on)
	if c == cutHalt {
		c = cutPeerHalt
	}
	if w.to == nil {
		w.rx.out.setCause(c, on)
		return
	}
	op := uint64(rxRestore)
	if on {
		op = rxSever
	}
	w.from.PostMsg(w.to, w.k.Now()+w.prop, w.rx, sim.Msg{A: op, B: uint64(c)})
}

// setCause adds or clears one cause of this end's cut.  Acknowledge
// credit dies with the link, in both directions: an acknowledge that
// would have landed after this instant is lost with the rest.  When the
// last cause clears, the end's error-detecting sender resends the byte
// the outage froze.
func (o *outHalf) setCause(c uint8, on bool) {
	if on {
		o.cuts |= c
		o.cutCredit()
		return
	}
	if was := o.cuts; was&c != 0 {
		if o.cuts = was &^ c; o.cuts == 0 {
			o.recover()
		}
	}
}

// arrive hands a completed packet to the half it is addressed to.
func (rx *rxEnd) arrive(p packet) {
	switch {
	case p.kind == pktBeat:
		rx.in.beatArrive()
	case p.kind == pktNak:
		rx.out.relNakArrived()
	case p.kind == pktAck && p.rel:
		rx.out.relAckArrived(p.seq)
	case p.kind == pktAck:
		rx.out.ackArrived(int(p.grant))
	case p.rel:
		rx.in.relDataArrive(p)
	default:
		rx.in.dataArrive(p)
	}
}

// wire is a one-directional signal line.  A wire lives entirely in
// the sending engine's clock domain; when the receiver is on another
// port, deliveries are posted with prop latency instead of running
// synchronously.
type wire struct {
	k     sim.Clock
	bitNs int64
	busy  bool
	// The two priority queues are head-indexed rings over reusable
	// backing arrays: a busy wire queues and drains a packet per frame,
	// and popping by reslicing would force the next append to
	// reallocate every time.
	acks     []packet // pending acknowledges and naks (sent first)
	ackHead  int
	data     []packet // pending data bytes
	dataHead int
	stats    WireStats

	// tx is the sending half whose data frames this line carries: it is
	// told when each one's bits are out, and its engine and link number
	// attribute the wire's probe events.  Nothing queued or in flight is
	// delivered while its end is cut (tx.cuts).  rx is the receiving end.
	tx *outHalf
	rx *rxEnd

	// from and to are set when the receiving end lives on another port:
	// frames are then posted from one to the other, reception-start
	// signals prop (the coordinator's conservative lookahead) after the
	// frame starts.  The post is the same whether the two ports share a
	// shard or not; the receiving end's cut is the gate either way.
	from, to *sim.Port
	prop     sim.Time

	// cur is the frame currently on the wire and curDropped whether a
	// fault lost it; txDone is the cached frame-completion callback.
	// Only one frame is in flight per wire at a time (busy), so the
	// in-flight state lives here instead of in a per-frame closure.
	cur        packet
	curDropped bool
	txDone     func()

	// creditUntil is the end of the latest acknowledge this line carried
	// on credit (see inHalf.dataStart): the books say the line is busy
	// until then, but no completion event exists unless a frame is sent
	// inside the interval (see send).
	creditUntil sim.Time

	// hook, when non-nil, injects faults into this wire's traffic.
	hook FaultHook
}

// newWire builds the signal line that carries tx's data frames and
// ackFrom's acknowledges to the far end's halves.
func newWire(k sim.Clock, tx *outHalf, ackFrom *inHalf, in *inHalf, out *outHalf) *wire {
	w := &wire{k: k, bitNs: BitNs, tx: tx, rx: &rxEnd{in: in, out: out}}
	w.txDone = w.finishTx
	tx.wire = w
	ackFrom.ackWire = w
	return w
}

// queueEmpty reports whether nothing is waiting behind the frame (if
// any) currently on the wire.
func (w *wire) queueEmpty() bool {
	return w.ackHead == len(w.acks) && w.dataHead == len(w.data)
}

func (w *wire) send(p packet) {
	if p.kind != pktData {
		if w.ackHead == len(w.acks) {
			w.acks, w.ackHead = w.acks[:0], 0
		}
		w.acks = append(w.acks, p)
	} else {
		if w.dataHead == len(w.data) {
			w.data, w.dataHead = w.data[:0], 0
		}
		w.data = append(w.data, p)
	}
	if w.busy {
		return
	}
	// (creditUntil is zero on a line that never carried a credited
	// acknowledge, which then costs no look at the clock.)
	if w.creditUntil != 0 && w.creditUntil > w.k.Now() {
		// A credited acknowledge is still on the line.  Only now does
		// its completion need to be an event: the frame just queued
		// starts when it fires.  That the event is scheduled late, and
		// so sequenced after local events it would have preceded, cannot
		// show (DESIGN.md §15, "lazy completion").
		w.busy = true
		w.cur, w.curDropped = packet{kind: pktAck}, true
		w.k.Schedule(w.creditUntil, w.txDone)
		w.tx.eng.credit.LateCompletions++
		return
	}
	w.transmitNext()
}

func (w *wire) transmitNext() {
	var p packet
	switch {
	case w.ackHead < len(w.acks):
		p = w.acks[w.ackHead]
		w.ackHead++
	case w.dataHead < len(w.data):
		p = w.data[w.dataHead]
		w.dataHead++
	default:
		w.busy = false
		return
	}
	w.busy = true
	isCtl := p.kind != pktData
	var act FaultAction
	if w.hook != nil {
		act = w.hook(isCtl)
	}
	dur := int64(p.bits)*w.bitNs + int64(act.Delay)
	w.stats.BusyNs += dur
	switch {
	case p.kind == pktAck:
		w.stats.Acks++
	case p.kind == pktNak:
		w.stats.Naks++
	case p.kind == pktBeat:
		w.stats.Beats++
	case p.retrans:
		w.stats.Retransmits++
	default:
		w.stats.DataBytes++
	}
	corrupt := act.Corrupt != 0 && p.kind == pktData
	if corrupt {
		p.payload ^= act.Corrupt
	}
	cut := w.tx.cuts != 0
	dropped := act.Drop || cut
	// The wire's probe events are attributed to the engine whose sending
	// half it serves; no event is built unless a bus is there to hear it.
	if e := w.tx.eng; e.bus != nil {
		link := w.tx.link
		e.emit(probe.Event{Kind: probe.WirePacket, Link: link,
			Ack: isCtl, Bytes: boolByte(!isCtl), Dur: sim.Time(dur), Flow: p.flow})
		if act.Delay > 0 {
			e.emit(probe.Event{Kind: probe.FaultDelay, Link: link, Ack: isCtl, Dur: act.Delay, Flow: p.flow})
		}
		if corrupt {
			e.emit(probe.Event{Kind: probe.FaultCorrupt, Link: link, Arg: int64(act.Corrupt), Flow: p.flow})
		}
		if act.Drop && !cut {
			e.emit(probe.Event{Kind: probe.FaultDrop, Link: link, Ack: isCtl, Flow: p.flow})
		}
	}
	// Reception start — which fires the overlapped acknowledge — exists
	// only for the paper's plain data frame; an error-detecting receiver
	// must see the trailer first.
	starts := p.kind == pktData && !p.rel
	switch {
	case dropped:
	case w.to != nil:
		// Receiver on another port: both signals are posted to its end of
		// the wire, which gates them on that end's cut (a cut is observed
		// at the far end one propagation later; anything arriving after
		// that is lost).  Packet completion keeps its exact wire timing —
		// every frame lasts at least an acknowledge (2 bit times), which
		// is precisely the coordinator's lookahead, so start+dur is
		// always a legal cross-port instant.
		// Only the reception-start signal is deferred by the propagation
		// delay.  Sender-side bookkeeping stays local.
		start := w.k.Now()
		if p.credited {
			// The acknowledge this byte travels on would land one
			// propagation and one acknowledge frame from now.
			w.tx.ackAt = start + w.prop + sim.Time(AckBits*w.bitNs)
		}
		if starts {
			w.from.PostMsg(w.to, start+w.prop, w.rx, p.msg(rxStart))
		}
		w.from.PostMsg(w.to, start+sim.Time(dur), w.rx, p.msg(rxArrive))
	case starts:
		w.rx.in.dataStart(p.flow, p.credited)
	}
	w.cur = p
	w.curDropped = dropped
	w.k.After(sim.Time(dur), w.txDone)
}

// finishTx fires when the frame on the wire completes: deliver (unless
// it was posted ahead, lost, or the wire was cut while the frame was in
// flight), tell the sending half its data frame is out, and start the
// next queued frame.
func (w *wire) finishTx() {
	p := w.cur
	if w.to == nil && !w.curDropped && w.tx.cuts == 0 {
		w.rx.arrive(p)
	}
	if p.kind == pktData {
		if p.rel {
			w.tx.relTxEnd()
		} else {
			w.tx.txEnd()
		}
	}
	w.transmitNext()
}

func boolByte(b bool) int {
	if b {
		return 1
	}
	return 0
}
