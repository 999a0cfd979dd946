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
package link

import (
	"transputer/internal/probe"
	"transputer/internal/sim"
)

// outHalf is the sending side of one channel of a link.
type outHalf struct {
	wire *wire // this end's outgoing signal line for the link

	// eng and link attribute ack-stall probe events; nil for host ends.
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
	// txEndAt records when the current byte finished transmitting, for
	// measuring the wait for its acknowledge.
	txEndAt sim.Time

	// flow is the probe flow identity of the transfer in progress,
	// handed over by the machine (core.FlowExternal); every packet of
	// the transfer carries it.  Zero when untraced.
	flow uint64

	// rel is the error-detecting-mode sender state (see reliable.go).
	rel relSender
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

	// stopAndWait suppresses the overlapped acknowledge: the ack is
	// only sent after the data byte has fully arrived.  Used by the
	// ablation benchmarks to quantify what figure 1's early
	// acknowledge buys.
	stopAndWait bool

	// eng and link attribute NAK probe events; nil for host ends.
	eng  *Engine
	link int

	// flow is the probe flow identity carried by the packets arriving on
	// this half — acknowledges and NAKs echo it back so the retry tail
	// stays on the flow; flowSeen is the last flow for which a
	// FlowArrive event was published (once per flow, on its first
	// packet).
	flow     uint64
	flowSeen uint64

	// rel is the error-detecting-mode receiver state (see reliable.go).
	rel relReceiver
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
	if o.wire == nil || o.rel.failed {
		// Unconnected or failed link: waits forever (until recovery).
		o.stalledAtStart = o.rel.failed
		return
	}
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
	if o.rel.on {
		o.sendReliable(b, false)
		return
	}
	o.wire.send(packet{kind: pktData, bits: DataBits, payload: b, flow: o.flow})
}

func (o *outHalf) txEnd() {
	o.txEnded = true
	if !o.acked && o.eng != nil {
		o.txEndAt = o.eng.k.Now()
	}
	o.advance()
}

func (o *outHalf) ackArrived() {
	o.heard()
	// An ack landing after the byte finished transmitting stalls the
	// sender for the difference (the overlapped acknowledge of figure 1
	// exists to make this zero in the streaming case).
	if o.txEnded && !o.acked && o.eng != nil && o.eng.bus != nil {
		if stall := o.eng.k.Now() - o.txEndAt; stall > 0 {
			o.eng.emit(probe.Event{Kind: probe.AckStall, Link: o.link,
				Dur: stall, Flow: o.flow})
		}
	}
	o.acked = true
	o.advance()
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
		if !in.rel.on {
			in.sendAck()
		}
	}
}

// dataStart fires when a data packet begins arriving: the acknowledge
// goes out immediately if a process is waiting, making streaming
// continuous.  The flow is noted before the overlapped acknowledge is
// built so the ack already carries it.
func (in *inHalf) dataStart(flow uint64) {
	in.heard()
	in.noteFlow(flow)
	in.ackSentAtStart = false
	if in.active && !in.stopAndWait {
		in.sendAck()
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
	if flow == in.flowSeen || in.eng == nil || in.eng.bus == nil {
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
			in.sendAck()
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

func (in *inHalf) sendAck() {
	in.ackWire.send(packet{kind: pktAck, bits: AckBits, flow: in.flow})
}
