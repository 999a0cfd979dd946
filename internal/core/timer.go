package core

import (
	"transputer/internal/isa"
	"transputer/internal/probe"
	"transputer/internal/sim"
)

// Timers (paper, 2.2.2).  "A global synchronized sense of time is not
// practicable ... there is therefore a local concept of time, each
// timer being implemented as an incrementing clock.  Logically, access
// to a timer is treated as an input.  A delayed input may be used,
// which waits until the value of the clock reaches an appropriate
// value.  A timer input may be used in an alternative construct."
//
// There is one clock per priority: the high-priority clock ticks every
// microsecond, the low-priority clock every 64 microseconds.  Waiting
// processes are held on a per-priority queue ordered by wakeup time,
// threaded through the wsTLink workspace slot.

// tickNs returns the clock period of the given priority.
func (m *Machine) tickNs(pri int) int64 {
	if pri == PriorityHigh {
		return HiTimerTickNs
	}
	return LoTimerTickNs
}

// clockValue returns the current reading of a priority's clock.
func (m *Machine) clockValue(pri int) uint64 {
	if m.clock == nil {
		return m.clockOffset[pri] & m.mask
	}
	ticks := uint64(int64(m.clock.Now()) / m.tickNs(pri))
	return (ticks + m.clockOffset[pri]) & m.mask
}

// startTimers implements store timer: both clocks are set to the given
// value (the boot convention).
func (m *Machine) startTimers(v uint64) {
	for pri := 0; pri < 2; pri++ {
		base := uint64(0)
		if m.clock != nil {
			base = uint64(int64(m.clock.Now()) / m.tickNs(pri))
		}
		m.clockOffset[pri] = (v - base) & m.mask
	}
}

// timerInput implements timer input (a delayed input): A holds the
// time; the process continues once the clock is later than it.
func (m *Machine) timerInput() int {
	t := m.pop()
	pri := m.CurrentPriority()
	if m.later(m.clockValue(pri), t) {
		return isa.TinCycles(true)
	}
	w := m.wptr()
	m.setWordIndex(w, wsTime, t)
	m.timerEnqueue(pri, w)
	if m.bus != nil {
		m.emit(probe.Event{Kind: probe.TimerWait, Proc: m.Wdesc, Pri: pri, Arg: int64(t)})
	}
	m.blockOnComm(BlockTimer, t, -1)
	m.armTimer()
	return isa.TinCycles(false)
}

// timerEnqueue inserts a workspace into the priority's timer queue,
// kept ordered by wakeup time.
func (m *Machine) timerEnqueue(pri int, w uint64) {
	t := m.wordIndex(w, wsTime)
	np := m.notProcess()
	if m.Tptr[pri] == np || !m.later(t, m.wordIndex(m.Tptr[pri], wsTime)) {
		m.setWordIndex(w, wsTLink, m.Tptr[pri])
		m.Tptr[pri] = w
		return
	}
	prev := m.Tptr[pri]
	for {
		next := m.wordIndex(prev, wsTLink)
		if next == np || !m.later(t, m.wordIndex(next, wsTime)) {
			m.setWordIndex(w, wsTLink, next)
			m.setWordIndex(prev, wsTLink, w)
			return
		}
		prev = next
	}
}

// timerDequeue removes a workspace from the priority's timer queue if
// present.
func (m *Machine) timerDequeue(pri int, w uint64) {
	np := m.notProcess()
	if m.Tptr[pri] == np {
		return
	}
	if m.Tptr[pri] == w {
		m.Tptr[pri] = m.wordIndex(w, wsTLink)
		return
	}
	prev := m.Tptr[pri]
	for prev != np {
		next := m.wordIndex(prev, wsTLink)
		if next == w {
			m.setWordIndex(prev, wsTLink, m.wordIndex(w, wsTLink))
			return
		}
		prev = next
	}
}

// armTimer schedules (or reschedules) the kernel event for the next
// timer expiry across both priorities.
func (m *Machine) armTimer() {
	if m.clock == nil {
		return
	}
	if m.timerEvent != 0 {
		m.clock.Cancel(m.timerEvent)
		m.timerEvent = 0
	}
	np := m.notProcess()
	var earliest sim.Time = -1
	for pri := 0; pri < 2; pri++ {
		if m.Tptr[pri] == np {
			continue
		}
		t := m.wordIndex(m.Tptr[pri], wsTime)
		// The process wakes when the clock first exceeds t: that is
		// (delta+1) ticks from the current clock value, where delta may
		// be negative if the time has already passed.
		delta := m.signed((t - m.clockValue(pri)) & m.mask)
		if delta < 0 {
			delta = -1
		}
		// Align to the next tick boundary.
		tick := m.tickNs(pri)
		nowNs := int64(m.clock.Now())
		boundary := (nowNs/tick + 1 + delta) * tick
		at := sim.Time(boundary)
		if at <= m.clock.Now() {
			at = m.clock.Now()
		}
		if earliest < 0 || at < earliest {
			earliest = at
		}
	}
	if earliest >= 0 {
		m.timerEvent = m.clock.Schedule(earliest, m.timerExpired)
	}
}

// timerExpired releases every process whose wakeup time has passed.
func (m *Machine) timerExpired() {
	m.timerEvent = 0
	np := m.notProcess()
	for pri := 0; pri < 2; pri++ {
		clock := m.clockValue(pri)
		for m.Tptr[pri] != np {
			head := m.Tptr[pri]
			if !m.later(clock, m.wordIndex(head, wsTime)) {
				break
			}
			m.Tptr[pri] = m.wordIndex(head, wsTLink)
			wdesc := head | uint64(pri)
			if m.bus != nil {
				m.emit(probe.Event{Kind: probe.TimerFire, Proc: wdesc, Pri: pri})
			}
			if m.wordIndex(head, wsState) == m.altWaiting() {
				// A timer alternative: mark ready and wake.
				m.setWordIndex(head, wsState, m.altReady())
				m.wake(wdesc)
			} else if m.wordIndex(head, wsState) == m.altReady() {
				// Already made ready (and scheduled) by a channel.
			} else {
				m.wake(wdesc)
			}
		}
	}
	m.armTimer()
}

// enableTimer implements enable timer: A = time, B = guard; the guard
// remains in A.  The earliest enabled time is recorded in the
// workspace.
func (m *Machine) enableTimer() {
	guard, t := m.popPair()
	w := m.wptr()
	if guard != 0 {
		switch m.wordIndex(w, wsTLink) {
		case m.timeNotSet():
			m.setWordIndex(w, wsTLink, m.timeSet())
			m.setWordIndex(w, wsTime, t)
		case m.timeSet():
			if m.later(m.wordIndex(w, wsTime), t) {
				m.setWordIndex(w, wsTime, t)
			}
		}
	}
	m.push2(guard)
}

// timerAltWait implements timer alt wait.
func (m *Machine) timerAltWait() int {
	w := m.wptr()
	pri := m.CurrentPriority()
	m.setWordIndex(w, 0, m.noneSelected())
	if m.wordIndex(w, wsState) == m.altReady() {
		return isa.AltwtCycles(true)
	}
	if m.wordIndex(w, wsTLink) == m.timeSet() {
		t := m.wordIndex(w, wsTime)
		if m.later(m.clockValue(pri), t) {
			// The enabled time has already been reached.
			m.setWordIndex(w, wsState, m.altReady())
			return isa.AltwtCycles(true)
		}
		m.timerEnqueue(pri, w)
		m.setWordIndex(w, wsState, m.altWaiting())
		if m.bus != nil {
			m.emit(probe.Event{Kind: probe.TimerWait, Proc: m.Wdesc, Pri: pri, Arg: int64(t)})
		}
		m.blockOnComm(BlockAlt, t, -1)
		m.armTimer()
		return isa.AltwtCycles(false)
	}
	m.setWordIndex(w, wsState, m.altWaiting())
	m.blockOnComm(BlockAlt, 0, -1)
	return isa.AltwtCycles(false)
}

// disableTimer implements disable timer: A = time, B = guard,
// C = selection offset; A becomes "this guard fired".  It also removes
// the process from the timer queue, which is required before the
// workspace is reused.
func (m *Machine) disableTimer() {
	t := m.Areg
	guard := m.Breg
	off := m.Creg
	w := m.wptr()
	pri := m.CurrentPriority()
	fired := false
	if guard != 0 {
		m.timerDequeue(pri, w)
		m.armTimer()
		fired = m.later(m.clockValue(pri), t)
	}
	if fired && m.wordIndex(w, 0) == m.noneSelected() {
		m.setWordIndex(w, 0, off)
	}
	m.Areg = boolWord(fired)
}
