package core

import (
	"transputer/internal/isa"
	"transputer/internal/probe"
)

// Scheduler (paper, 3.2.4).
//
// At any time a process is active (executing or on a scheduling list) or
// inactive (ready to input, ready to output, or waiting until a
// specified time).  The active processes awaiting execution are held on
// a linked list of process workspaces per priority, implemented with a
// front and a back pointer.  A context switch between same-priority
// processes saves only the instruction pointer and workspace pointer.

// priority extracts the priority bit from a process descriptor.
func priorityOf(wdesc uint64) int { return int(wdesc & 1) }

// wptrOf extracts the workspace pointer from a process descriptor.
func wptrOf(wdesc uint64) uint64 { return wdesc &^ 1 }

// CurrentPriority returns the priority of the executing process, or
// PriorityLow when idle.
func (m *Machine) CurrentPriority() int {
	if m.Wdesc == m.notProcess() {
		return PriorityLow
	}
	return priorityOf(m.Wdesc)
}

// enqueue appends a process to the scheduling list of its priority.
func (m *Machine) enqueue(wdesc uint64) {
	pri := priorityOf(wdesc)
	wptr := wptrOf(wdesc)
	np := m.notProcess()
	if m.Fptr[pri] == np {
		m.Fptr[pri] = wptr
	} else {
		m.setWordIndex(m.Bptr[pri], wsLink, wptr)
	}
	m.Bptr[pri] = wptr
	m.stats.Enqueues++
	m.qlen[pri]++
	if m.bus != nil {
		m.emit(probe.Event{Kind: probe.ProcReady, Proc: wdesc, Pri: pri, Depth: m.qlen[pri]})
	}
}

// dequeue removes and returns the front process of the given priority
// list, or notProcess when the list is empty.
func (m *Machine) dequeue(pri int) uint64 {
	np := m.notProcess()
	wptr := m.Fptr[pri]
	if wptr == np {
		return np
	}
	if wptr == m.Bptr[pri] {
		m.Fptr[pri] = np
		m.Bptr[pri] = np
	} else {
		m.Fptr[pri] = m.wordIndex(wptr, wsLink)
	}
	m.qlen[pri]--
	return wptr | uint64(pri)
}

// schedule makes a process ready to run: the hardware "run process"
// path.  It is called when a channel or timer completes, and by the
// start process instruction.  A high-priority process becoming ready
// while a low-priority one executes requests preemption, honoured at
// the next interruptible point.
func (m *Machine) schedule(wdesc uint64) {
	if m.Wdesc == m.notProcess() {
		// Processor idle: dispatch immediately.  (An idle machine never
		// holds saved low-priority state: that state is restored the
		// moment the last high-priority process stops.)
		m.Wdesc = wdesc
		m.Iptr = m.wordIndex(wptrOf(wdesc), wsIptr)
		m.Oreg = 0
		m.timesliceCount = 0
		if m.bus != nil {
			pri := priorityOf(wdesc)
			m.emit(probe.Event{Kind: probe.ProcDispatch, Proc: wdesc, Pri: pri, Depth: m.qlen[pri]})
		}
		m.notifyReady()
		return
	}
	if priorityOf(wdesc) == PriorityHigh && m.CurrentPriority() == PriorityLow {
		m.enqueue(wdesc)
		m.preemptPending = true
		return
	}
	m.enqueue(wdesc)
}

func (m *Machine) notifyReady() {
	if m.onReady != nil {
		m.onReady()
	}
}

// preemptNow performs the low-to-high switch: the interrupted process's
// full state is saved in the reserved locations so it can be resumed
// mid-expression.  Charged at isa.PreemptCycles.
func (m *Machine) preemptNow() {
	m.preemptPending = false
	high := m.dequeue(PriorityHigh)
	if high == m.notProcess() {
		return
	}
	if m.bus != nil {
		m.emit(probe.Event{Kind: probe.ProcStop, Proc: m.Wdesc, Pri: PriorityLow})
		m.emit(probe.Event{Kind: probe.Preempt, Proc: high, Pri: PriorityHigh,
			Dur: m.cycleDur(isa.PreemptCycles)})
	}
	s := &m.useCold().savedLow
	s.valid = true
	s.Iptr, s.Wdesc = m.Iptr, m.Wdesc
	s.A, s.B, s.C, s.O = m.Areg, m.Breg, m.Creg, m.Oreg
	s.longOp = m.longOp
	m.longOp = nil
	m.Wdesc = high
	m.Iptr = m.wordIndex(wptrOf(high), wsIptr)
	m.Oreg = 0
	m.pendingSwitchCycles += isa.PreemptCycles
	m.stats.Preemptions++
	if m.bus != nil {
		m.emit(probe.Event{Kind: probe.ProcDispatch, Proc: high, Pri: PriorityHigh,
			Depth: m.qlen[PriorityHigh]})
	}
}

// deschedule is invoked by instructions that stop the current process
// (blocked communication, stop process, end process, timer wait).  The
// next process is dispatched; if none is ready the interrupted
// low-priority state is resumed, and failing that the machine idles.
func (m *Machine) deschedule() {
	np := m.notProcess()
	wasHigh := m.CurrentPriority() == PriorityHigh
	if m.bus != nil && m.Wdesc != np {
		m.emit(probe.Event{Kind: probe.ProcStop, Proc: m.Wdesc, Pri: priorityOf(m.Wdesc)})
	}
	if next := m.dequeue(PriorityHigh); next != np {
		m.dispatch(next)
		if m.bus != nil {
			m.emit(probe.Event{Kind: probe.ProcDispatch, Proc: next,
				Pri: PriorityHigh, Depth: m.qlen[PriorityHigh]})
		}
		return
	}
	// No high-priority work.  Resume an interrupted low-priority
	// process before consulting the low-priority list, restoring its
	// full register state (charged at isa.ResumeLowCycles).
	if c := m.cold; c != nil && c.savedLow.valid {
		m.restoreSavedLow()
		return
	}
	if next := m.dequeue(PriorityLow); next != np {
		var charge int
		if wasHigh {
			m.pendingSwitchCycles += isa.ResumeLowCycles
			charge = isa.ResumeLowCycles
		}
		m.dispatch(next)
		if m.bus != nil {
			m.emit(probe.Event{Kind: probe.ProcDispatch, Proc: next,
				Pri: PriorityLow, Depth: m.qlen[PriorityLow], Dur: m.cycleDur(charge)})
		}
		return
	}
	m.Wdesc = np // idle
}

// dispatch makes a ready process current.  Only the instruction pointer
// and workspace pointer are restored: "a context switch between
// processes, both executing at priority 1, ... affects only the
// instruction pointer and the workspace pointer."
func (m *Machine) dispatch(wdesc uint64) {
	m.Wdesc = wdesc
	m.Iptr = m.wordIndex(wptrOf(wdesc), wsIptr)
	m.Oreg = 0
	m.timesliceCount = 0
	m.stats.Deschedules++
}

func (m *Machine) restoreSavedLow() {
	s := &m.cold.savedLow
	m.Iptr, m.Wdesc = s.Iptr, s.Wdesc
	m.Areg, m.Breg, m.Creg, m.Oreg = s.A, s.B, s.C, s.O
	m.longOp = s.longOp
	s.longOp = nil
	s.valid = false
	m.pendingSwitchCycles += isa.ResumeLowCycles
	m.stats.Deschedules++
	if m.bus != nil {
		m.emit(probe.Event{Kind: probe.ProcDispatch, Proc: m.Wdesc, Pri: PriorityLow,
			Depth: m.qlen[PriorityLow], Dur: m.cycleDur(isa.ResumeLowCycles)})
	}
}

// blockCurrent saves the current process's instruction pointer and
// deschedules it.  Stop process uses it directly (a stopped process is
// a deliberate state); communication paths use blockOnComm so the
// waiting count feeds deadlock diagnostics.
func (m *Machine) blockCurrent() {
	m.setWordIndex(wptrOf(m.Wdesc), wsIptr, m.Iptr)
	m.deschedule()
}

// blockOnComm blocks the current process pending a channel, timer or
// event completion, recording what it waits for so the deadlock
// watchdog can name it.  addr is the channel word (or wakeup clock for
// timers); link is the link index for external transfers, else -1.
func (m *Machine) blockOnComm(kind BlockKind, addr uint64, link int) {
	m.waiting++
	m.blocked = append(m.blocked, BlockedProcess{
		Wdesc: m.Wdesc, Iptr: m.Iptr, Kind: kind, Addr: addr,
		Link: link, Since: m.now(),
	})
	m.blockCurrent()
}

// wake makes a communication-blocked process ready again.
func (m *Machine) wake(wdesc uint64) {
	if m.waiting > 0 {
		m.waiting--
	}
	for i := range m.blocked {
		if m.blocked[i].Wdesc == wdesc {
			m.blocked[i] = m.blocked[len(m.blocked)-1]
			m.blocked = m.blocked[:len(m.blocked)-1]
			break
		}
	}
	m.schedule(wdesc)
}

// WaitingProcesses reports how many processes are currently blocked on
// a channel, timer or event: an idle machine with a nonzero count is
// deadlocked.
func (m *Machine) WaitingProcesses() int { return m.waiting }

// sliceDue reports whether the executing process is a low-priority one
// that has used up its timeslice: whether timesliceCheck would act.
// StepRun executes a jump itself only while it would not.
func (m *Machine) sliceDue() bool { return m.sliceDueAfter(0) }

// sliceDueAfter reports whether the slice will be due once cycles more
// have been accounted.
func (m *Machine) sliceDueAfter(cycles int) bool {
	return priorityOf(m.Wdesc) == PriorityLow && m.cfg.TimesliceCycles > 0 &&
		m.timesliceCount+cycles >= m.cfg.TimesliceCycles
}

// timesliceCheck is applied at descheduling points (jump and loop end):
// a low-priority process that has exceeded its timeslice moves to the
// back of its list.  High-priority processes are never timesliced
// ("a high priority process proceeds until it terminates or has to
// wait for a communication").
func (m *Machine) timesliceCheck() {
	if !m.sliceDue() {
		return
	}
	if m.Fptr[PriorityLow] == m.notProcess() {
		m.timesliceCount = 0
		return // nothing else to run; keep going
	}
	m.stats.Timeslices++
	if m.bus != nil {
		m.emit(probe.Event{Kind: probe.Timeslice, Proc: m.Wdesc, Pri: PriorityLow})
	}
	m.setWordIndex(wptrOf(m.Wdesc), wsIptr, m.Iptr)
	m.enqueue(m.Wdesc)
	m.deschedule()
}
