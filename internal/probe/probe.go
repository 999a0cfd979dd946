// Package probe is the system-wide observability bus: a structured
// event stream that every layer of the simulator — scheduler, channels,
// timers, link wires, host devices — publishes into, and that timeline
// exporters, metrics aggregators and the sampling profiler consume.
//
// The bus is zero-overhead when detached: publishers hold a *Bus that
// is nil until an observer attaches one, and every emit site is guarded
// by a single nil check.  Events are stamped with both simulated time
// and the publishing node's machine cycle counter, so instruction
// traces, scheduler activity and wire occupancy can all be laid on one
// timeline.
package probe

import "transputer/internal/sim"

// Kind classifies a probe event.
type Kind uint8

const (
	// ProcDispatch: a process began executing on the node's CPU.  Dur
	// carries any scheduler switch charge paid for this dispatch (e.g.
	// restoring interrupted low-priority state); Depth is the run-queue
	// depth of the process's priority after dispatch.
	ProcDispatch Kind = iota
	// ProcStop: the executing process left the CPU (blocked, stopped,
	// timesliced or preempted).
	ProcStop
	// ProcReady: a process joined a run queue.  Depth is the queue
	// depth after the enqueue.
	ProcReady
	// Preempt: a low-priority process was preempted by a high-priority
	// one; Dur is the state-save charge in simulated time.
	Preempt
	// Timeslice: the current low-priority process exhausted its slice
	// and moved to the back of its queue.
	Timeslice
	// ChanBlock: a process arrived first at an internal channel
	// rendezvous and descheduled.  Addr is the channel word; Out
	// reports the direction.
	ChanBlock
	// ChanRendezvous: both parties met on an internal channel and the
	// message was copied.  Addr is the channel word, Bytes the message
	// length, Arg the partner's process descriptor.
	ChanRendezvous
	// TimerWait: a process blocked on a timer input; Arg is the wakeup
	// clock value.
	TimerWait
	// TimerFire: a timer released a waiting process.
	TimerFire
	// EventPin: the external event pin was raised (the paper's
	// interrupt mechanism).
	EventPin
	// LinkXferStart: a process handed a message to the link engine and
	// descheduled.  Link is the link index, Bytes the length, Out the
	// direction.
	LinkXferStart
	// LinkXferEnd: the link engine completed a transfer and the process
	// was rescheduled.
	LinkXferEnd
	// WirePacket: a packet occupied a link signal line.  Link is the
	// link index at the publishing node, Ack distinguishes acknowledge
	// packets from data bytes, Dur is the wire occupancy.
	WirePacket
	// AckStall: a sender finished transmitting a byte and then waited
	// Dur for its acknowledge — dead time figure 1's overlapped acks
	// exist to eliminate.
	AckStall
	// HostCommand: a host device decoded a protocol command; Arg is the
	// command word.
	HostCommand
	// FaultDrop: an injected fault swallowed a packet on a wire.  Link is
	// the link index at the publishing node, Ack distinguishes the packet
	// class.
	FaultDrop
	// FaultCorrupt: an injected fault flipped bits of a data packet's
	// payload; Arg is the XOR mask applied.
	FaultCorrupt
	// FaultDelay: an injected fault held a packet on the wire for an
	// extra Dur before its bits went out.
	FaultDelay
	// LinkNak: a receiver in error-detecting link mode rejected a data
	// packet with a bad check trailer and asked for a retransmission.
	LinkNak
	// LinkRetransmit: a sender in error-detecting link mode resent the
	// current byte (after a NAK or an acknowledge timeout); Arg is the
	// retry number.
	LinkRetransmit
	// LinkDown: a sender in error-detecting link mode exhausted its retry
	// budget and declared the link dead; Arg is the retry limit.
	LinkDown
	// LinkSever: an injected fault cut a link's wires at this instant.
	LinkSever
	// NodeHalt: an injected fault stopped the node's processor.
	NodeHalt
	// Deadlock: the watchdog found this process blocked with simulated
	// time unable to advance.  Proc, Addr and Link describe what it was
	// waiting for; Arg encodes the core.BlockKind.
	Deadlock
	// FlowArrive: the first packet of a message flow reached this node's
	// link receiver — the instant a flow crosses the wire and joins the
	// receiving node's timeline.  Link is the receiving link index, Flow
	// the flow identity carried by the packet.
	FlowArrive
	// Heartbeat: the liveness monitor changed its verdict on a link's
	// peer.  Arg is 1 when the peer came (back) up, 0 when it was
	// declared unresponsive; Dur is the observed silence.
	Heartbeat
	// RouteChange: the routing layer recomputed this node's next-hop
	// table after a link verdict or a link-state advertisement; Arg is
	// the number of destinations currently reachable.
	RouteChange
	// NodeRestart: a restart rule revived this halted node.
	NodeRestart
	// RouteReplay: an origin re-injected an end-to-end message whose
	// acknowledgement had not arrived; Arg is the replay attempt number.
	RouteReplay
	// RouteDeliver: an end-to-end routed message reached its destination
	// and was handed to the application in order; Arg is the message
	// sequence number, Bytes the payload length.
	RouteDeliver
	// VChanChunk: the virtual-channel multiplexer put one data chunk on
	// a link's wire.  Link is the link index, Arg the virtual channel,
	// Bytes the chunk payload length, Flow the message's flow identity.
	VChanChunk
	// VChanCredit: the multiplexer granted flow-control credit back to
	// the peer's sender.  Link is the link index, Arg the virtual
	// channel, Bytes the credit granted.
	VChanCredit
	// VChanDeliver: a complete message was handed to a virtual
	// channel's consumer.  Link is the link index, Arg the virtual
	// channel, Bytes the message length, Flow the flow identity carried
	// by its chunks.
	VChanDeliver

	numKinds
)

var kindNames = [numKinds]string{
	ProcDispatch:   "proc.dispatch",
	ProcStop:       "proc.stop",
	ProcReady:      "proc.ready",
	Preempt:        "preempt",
	Timeslice:      "timeslice",
	ChanBlock:      "chan.block",
	ChanRendezvous: "chan.rendezvous",
	TimerWait:      "timer.wait",
	TimerFire:      "timer.fire",
	EventPin:       "event.pin",
	LinkXferStart:  "link.xfer.start",
	LinkXferEnd:    "link.xfer.end",
	WirePacket:     "wire.packet",
	AckStall:       "ack.stall",
	HostCommand:    "host.command",
	FaultDrop:      "fault.drop",
	FaultCorrupt:   "fault.corrupt",
	FaultDelay:     "fault.delay",
	LinkNak:        "link.nak",
	LinkRetransmit: "link.retransmit",
	LinkDown:       "link.down",
	LinkSever:      "link.sever",
	NodeHalt:       "node.halt",
	Deadlock:       "deadlock",
	FlowArrive:     "flow.arrive",
	Heartbeat:      "heartbeat",
	RouteChange:    "route.change",
	NodeRestart:    "node.restart",
	RouteReplay:    "route.replay",
	RouteDeliver:   "route.deliver",
	VChanChunk:     "vchan.chunk",
	VChanCredit:    "vchan.credit",
	VChanDeliver:   "vchan.deliver",
}

// String returns the event kind's dotted name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one observation.  Only the fields meaningful for the Kind
// are set; the rest are zero.
type Event struct {
	// Time is the simulated instant of the event.
	Time sim.Time
	// Cycles is the publishing node's machine cycle counter.
	Cycles uint64
	// Node names the publishing transputer.
	Node string
	Kind Kind

	// Proc is a process descriptor (workspace pointer | priority).
	Proc uint64
	// Pri is the priority concerned (0 high, 1 low).
	Pri int
	// Addr is a channel word address.
	Addr uint64
	// Link is a link index.
	Link int
	// Bytes is a message or packet payload length.
	Bytes int
	// Dur is a duration: wire occupancy, switch charge, stall time.
	Dur sim.Time
	// Depth is a run-queue depth after the transition.
	Depth int
	// Ack marks acknowledge packets.
	Ack bool
	// Out marks the output direction of a transfer.
	Out bool
	// Arg carries kind-specific extra data.
	Arg int64
	// Flow is the causal message-flow identity this event belongs to
	// (see FlowTable); zero when the event is not part of a flow, or
	// when no probe bus was attached at the instant the flow would have
	// been assigned.
	Flow uint64
	// IP is the publishing process's instruction pointer at the emit
	// site, set on communication events (ChanBlock, ChanRendezvous,
	// LinkXferStart/End) so flows can be annotated with occam source
	// lines.  Zero elsewhere.
	IP uint64
}

// Flow identities pack an origin (the allocating node's creation
// ordinal, assigned by the network layer) and a per-origin sequence
// number into one word, so they are globally unique, deterministic,
// and cheap to carry in packets.
const flowSeqBits = 40

// PackFlow builds a flow identity from an origin and a sequence number.
func PackFlow(origin, seq uint64) uint64 {
	return origin<<flowSeqBits | seq&(1<<flowSeqBits-1)
}

// FlowOrigin extracts the origin half of a flow identity.
func FlowOrigin(flow uint64) uint64 { return flow >> flowSeqBits }

// FlowSeq extracts the sequence half of a flow identity.
func FlowSeq(flow uint64) uint64 { return flow & (1<<flowSeqBits - 1) }

// Bus fans events out to its subscribers.  It is used from the single
// simulation goroutine only.
//
// An event reaches every subscriber by reference: Publish copies it
// once into the bus's one slot, PublishRef not at all, and each
// subscriber is handed the same *Event.  The contract that makes this
// safe: a subscriber reads the event during its call and neither keeps
// the pointer (it copies what it keeps) nor publishes on the bus it is
// handling (that would overwrite the slot under the subscribers still
// to come).
type Bus struct {
	subs []func(*Event)
	slot Event
}

// NewBus returns an empty bus.
func NewBus() *Bus { return &Bus{} }

// Subscribe registers a consumer that takes its own copy of each event.
// Subscribers are invoked in subscription order, synchronously with the
// publisher.
func (b *Bus) Subscribe(fn func(Event)) { b.SubscribeRef(func(e *Event) { fn(*e) }) }

// SubscribeRef registers a consumer that reads each event in place; see
// Bus for what it may do with the pointer.
func (b *Bus) SubscribeRef(fn func(*Event)) { b.subs = append(b.subs, fn) }

// Publish delivers an event to every subscriber.
func (b *Bus) Publish(e Event) {
	b.slot = e
	b.PublishRef(&b.slot)
}

// PublishRef delivers the event e points to to every subscriber without
// copying it; *e must not change until PublishRef returns.
func (b *Bus) PublishRef(e *Event) {
	for _, fn := range b.subs {
		fn(e)
	}
}
