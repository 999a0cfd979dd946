package core

import (
	"transputer/internal/isa"
	"transputer/internal/probe"
)

// Channel communication (paper, 3.2.10).
//
// A channel between processes on the same transputer is a single word
// in memory; a channel between transputers is a link.  The input
// message and output message instructions use the address of the
// channel to decide which, "allowing a process to be written and
// compiled without knowledge of where its channels are connected."
//
// A process prepares by loading a pointer to the buffer, the channel
// identity and the byte count: C = pointer, B = channel, A = count.
//
// Communication takes place when both processes are ready: the first
// process to become ready stores its descriptor in the channel word and
// its buffer pointer in its workspace, then deschedules; the second
// performs the copy and reschedules it.

// commInlineCycleLimit is the largest communication cost charged within
// a single uninterruptible step; longer transfers are finished as an
// interruptible cycle burn so the priority-switch latency bound holds.
const commInlineCycleLimit = 48

// outputMessage implements the output message operation.
func (m *Machine) outputMessage() int {
	count := int(m.Areg)
	chAddr := m.Breg
	ptr := m.Creg
	m.stats.MessagesOut++
	if m.isEventChannel(chAddr) {
		m.fault("output on the event channel", chAddr)
		return 1
	}
	if x := m.externalEnd(chAddr); x != nil {
		if !x.output {
			m.fault("output on input "+x.end.noun()+" channel", chAddr)
			return 1
		}
		return m.externalTransfer(x, chAddr, ptr, count)
	}

	chWord := m.word(chAddr)
	w := m.wptr()
	if chWord == m.notProcess() {
		// First at the rendezvous: wait for the inputter.
		m.setWord(chAddr, m.Wdesc)
		m.setWordIndex(w, wsPointer, ptr)
		if m.bus != nil {
			m.emit(probe.Event{Kind: probe.ChanBlock, Proc: m.Wdesc, Addr: chAddr, Out: true,
				Flow: m.offerFlow(chAddr), IP: m.Iptr})
		}
		m.blockOnComm(BlockChanOut, chAddr, -1)
		return isa.CommunicationCycles(0, m.wordBits)
	}

	partnerW := wptrOf(chWord)
	state := m.wordIndex(partnerW, wsState)
	switch state {
	case m.altEnabling(), m.altReady():
		// The inputter is enabling or has already seen a ready guard:
		// mark the channel ready and wait to be collected.
		m.setWord(chAddr, m.Wdesc)
		m.setWordIndex(w, wsPointer, ptr)
		m.setWordIndex(partnerW, wsState, m.altReady())
		if m.bus != nil {
			m.emit(probe.Event{Kind: probe.ChanBlock, Proc: m.Wdesc, Addr: chAddr, Out: true,
				Flow: m.offerFlow(chAddr), IP: m.Iptr})
		}
		m.blockOnComm(BlockChanOut, chAddr, -1)
		return isa.CommunicationCycles(0, m.wordBits)
	case m.altWaiting():
		// The inputter is descheduled inside alt wait: wake it.
		m.setWord(chAddr, m.Wdesc)
		m.setWordIndex(w, wsPointer, ptr)
		m.setWordIndex(partnerW, wsState, m.altReady())
		m.wake(chWord)
		if m.bus != nil {
			m.emit(probe.Event{Kind: probe.ChanBlock, Proc: m.Wdesc, Addr: chAddr, Out: true,
				Flow: m.offerFlow(chAddr), IP: m.Iptr})
		}
		m.blockOnComm(BlockChanOut, chAddr, -1)
		return isa.CommunicationCycles(0, m.wordBits)
	}

	// The inputter is already waiting: copy the message to its buffer
	// and reschedule it.
	dst := m.wordIndex(partnerW, wsPointer)
	m.copyBytes(dst, ptr, count)
	m.setWord(chAddr, m.notProcess())
	m.stats.BytesOut += uint64(count)
	if m.bus != nil {
		m.emit(probe.Event{Kind: probe.ChanRendezvous, Proc: m.Wdesc, Addr: chAddr,
			Bytes: count, Arg: int64(chWord), Flow: m.takeFlow(chAddr), IP: m.Iptr})
	}
	return m.completeTransfer(chWord, count)
}

// inputMessage implements the input message operation.
func (m *Machine) inputMessage() int {
	count := int(m.Areg)
	chAddr := m.Breg
	ptr := m.Creg
	m.stats.MessagesIn++
	if m.isEventChannel(chAddr) {
		return m.eventInput()
	}
	if x := m.externalEnd(chAddr); x != nil {
		if x.output {
			m.fault("input on output "+x.end.noun()+" channel", chAddr)
			return 1
		}
		return m.externalTransfer(x, chAddr, ptr, count)
	}

	chWord := m.word(chAddr)
	w := m.wptr()
	if chWord == m.notProcess() {
		m.setWord(chAddr, m.Wdesc)
		m.setWordIndex(w, wsPointer, ptr)
		if m.bus != nil {
			m.emit(probe.Event{Kind: probe.ChanBlock, Proc: m.Wdesc, Addr: chAddr,
				Flow: m.offerFlow(chAddr), IP: m.Iptr})
		}
		m.blockOnComm(BlockChanIn, chAddr, -1)
		return isa.CommunicationCycles(0, m.wordBits)
	}

	// The outputter is waiting: copy from its buffer.
	partnerW := wptrOf(chWord)
	src := m.wordIndex(partnerW, wsPointer)
	m.copyBytes(ptr, src, count)
	m.setWord(chAddr, m.notProcess())
	m.stats.BytesIn += uint64(count)
	if m.bus != nil {
		m.emit(probe.Event{Kind: probe.ChanRendezvous, Proc: m.Wdesc, Addr: chAddr,
			Bytes: count, Arg: int64(chWord), Flow: m.takeFlow(chAddr), IP: m.Iptr})
	}
	return m.completeTransfer(chWord, count)
}

// completeTransfer charges the communication cost and reschedules the
// partner.  Costs beyond the inline limit are burned interruptibly, the
// partner being rescheduled when the burn completes.
func (m *Machine) completeTransfer(partner uint64, count int) int {
	cost := isa.CommunicationCycles(count, m.wordBits)
	if cost <= commInlineCycleLimit {
		m.wake(partner)
		return cost
	}
	m.longOp = &longOpState{
		burnCycles: cost - commInlineCycleLimit,
		onDone:     func() { m.wake(partner) },
	}
	return commInlineCycleLimit
}

// extXfer is the machine's record of one external transfer between the
// message instruction that starts it and the engine's completion call.
// An external channel end — a link direction, or a mapped vchan word —
// carries one transfer at a time, so the record (and the completion
// callback bound to it, built on first use) belongs to the end and
// starting a message allocates nothing.
type extXfer struct {
	end    End
	output bool
	busy   bool
	extra  bool // not an end's own record: counted in extraXfers
	ptr    uint64
	count  int
	wdesc  uint64
	ip     uint64
	flow   uint64
	done   func() // m.finishExternal(x), built once per record
}

// externalTransfer hands a message on the end whose record is x over to
// the link engine and deschedules the process; the engine reschedules
// it when the last byte is acknowledged (out) or delivered (in).
func (m *Machine) externalTransfer(x *extXfer, chAddr, ptr uint64, count int) int {
	if m.ext == nil {
		m.fault("no link engine attached", uint64(x.end.Link()))
		return 1
	}
	if x.busy {
		// A second process on a channel end already in use — an occam
		// program error the engine answers by never completing the
		// transfer — or a transfer aborted by a link resync.  Either way
		// the end's record still describes the earlier message, so this
		// one gets a record of its own.
		x = &extXfer{end: x.end, output: x.output, extra: true}
		m.extraXfers++
	}
	if x.done == nil {
		x.done = func() { m.finishExternal(x) }
	}
	x.busy, x.ptr, x.count = true, ptr, count
	x.wdesc, x.ip, x.flow = m.Wdesc, m.Iptr, 0
	if m.bus != nil {
		// Outputs mint the flow here and hand it to the engine so every
		// packet of the transfer (and its acks, NAKs and retransmits)
		// carries it across the wire; inputs learn their flow from the
		// first packet that lands, so ask the engine — twice, since at
		// start nothing may have arrived yet.
		if x.output {
			x.flow = m.newFlow()
			m.ext.HandoffFlow(x.end, x.flow)
		} else {
			x.flow = m.ext.TransferFlow(x.end)
		}
		m.emit(probe.Event{Kind: probe.LinkXferStart, Proc: x.wdesc, Link: x.end.Link(),
			Bytes: count, Out: x.output, Arg: x.end.arg(), Flow: x.flow, IP: x.ip})
	}
	if x.output {
		m.blockOnComm(BlockLinkOut, chAddr, x.end.Link())
		m.stats.ExternalOut++
		m.stats.BytesOut += uint64(count)
		m.ext.BeginOutput(x.end, ptr, count, x.done)
	} else {
		m.blockOnComm(BlockLinkIn, chAddr, x.end.Link())
		m.stats.ExternalIn++
		m.stats.BytesIn += uint64(count)
		m.ext.BeginInput(x.end, ptr, count, x.done)
	}
	return isa.CommunicationCycles(0, m.wordBits)
}

// finishExternal is the engine's completion call for the transfer x
// records: publish its end and reschedule the process.
func (m *Machine) finishExternal(x *extXfer) {
	x.busy = false
	if x.extra {
		m.extraXfers--
	}
	if m.bus != nil {
		f := x.flow
		if !x.output {
			f = m.ext.TransferFlow(x.end)
		}
		m.emit(probe.Event{Kind: probe.LinkXferEnd, Proc: x.wdesc, Link: x.end.Link(),
			Bytes: x.count, Out: x.output, Arg: x.end.arg(), Flow: f, IP: x.ip})
	}
	m.wake(x.wdesc)
}

// outputShort implements output byte / output word: the value in B is
// stored at workspace location 0, which then serves as the source
// buffer of a size-byte output on channel A.
func (m *Machine) outputShort(size int) int {
	chAddr := m.Areg
	value := m.Breg
	w := m.wptr()
	m.setWordIndex(w, 0, value)
	m.Areg = uint64(size)
	m.Breg = chAddr
	m.Creg = m.index(w, 0)
	return m.outputMessage()
}

// moveMessage implements the block move: A = count, B = destination,
// C = source.  Large moves run as interruptible installments so a
// priority switch can occur during execution.
func (m *Machine) moveMessage() int {
	count := int(m.Areg)
	dst := m.Breg
	src := m.Creg
	if count <= 0 {
		return isa.MoveCycles(0, m.wordBits)
	}
	cost := isa.MoveCycles(count, m.wordBits)
	if cost <= commInlineCycleLimit {
		m.copyBytes(dst, src, count)
		return cost
	}
	m.longOp = &longOpState{src: src, dst: dst, remaining: count}
	return 0
}

// copyBytes copies count bytes within machine memory, wrapping in the
// address space.  A copy that runs off memory halts the machine at the
// first such byte and stops there: the count is the program's, and a
// hostile one is the whole address space.
func (m *Machine) copyBytes(dst, src uint64, count int) {
	for i := 0; i < count && !m.halted; i++ {
		m.setByte((dst+uint64(i))&m.mask, m.byteAt((src+uint64(i))&m.mask))
	}
}
