package core

import "transputer/internal/probe"

// The event channel (the ninth reserved word, after the link channels)
// lets external hardware signal a process: "the equivalent of an
// interrupt (a high priority process being scheduled in order to
// respond to an external stimulus) is designed entirely in occam, as
// all input and output is formalized as channel communication" (paper,
// 2.2.2).  A process inputs from the event channel; RaiseEvent, called
// by the simulation environment, completes that input (or is latched
// until one arrives).  No data is transferred.

// RaiseEvent signals the event pin.  If a process is waiting on the
// event channel it becomes ready (preempting a lower-priority process
// as any wakeup does); otherwise the event is latched.
func (m *Machine) RaiseEvent() {
	if m.bus != nil {
		m.emit(probe.Event{Kind: probe.EventPin})
	}
	c := m.useCold()
	if c.eventWaiter != m.notProcess() {
		w := c.eventWaiter
		c.eventWaiter = m.notProcess()
		m.wake(w)
		return
	}
	if c.eventArmed != nil {
		ready := c.eventArmed
		c.eventArmed = nil
		c.eventPending = true
		ready()
		return
	}
	c.eventPending = true
}

// eventInput implements input message on the event channel: the count
// is ignored and no data moves.
func (m *Machine) eventInput() int {
	c := m.useCold()
	if c.eventPending {
		c.eventPending = false
		return 24
	}
	c.eventWaiter = m.Wdesc
	m.blockOnComm(BlockEvent, 0, -1)
	return 24
}

// eventEnable arms alternative-input readiness on the event channel.
func (m *Machine) eventEnable(ready func()) bool {
	c := m.useCold()
	if c.eventPending {
		return true
	}
	c.eventArmed = ready
	return false
}

// eventDisable disarms and reports readiness.
func (m *Machine) eventDisable() bool {
	c := m.useCold()
	c.eventArmed = nil
	return c.eventPending
}

// isEventChannel reports whether addr is the event channel word.
func (m *Machine) isEventChannel(addr uint64) bool {
	return addr == m.EventAddr()
}
