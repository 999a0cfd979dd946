package core

import "transputer/internal/isa"

// Alternative input (paper 2.2: "an alternative process may be ready
// for input from any one of a number of channels.  In this case, the
// input is taken from the channel which is first used for output by
// another process").  The instructions for enabling and disabling
// channels "provide support for an implementation of alternative input
// without the use of polling" (3.2.10).
//
// The process's wsState slot moves through enabling -> waiting ->
// ready; the selected branch offset accumulates in workspace slot 0.

// enableChannel implements enable channel: A = channel, B = guard;
// the guard remains in A.
func (m *Machine) enableChannel() {
	guard, ch := m.popPair()
	w := m.wptr()
	if guard != 0 {
		if m.isEventChannel(ch) {
			wdesc := m.Wdesc
			if m.eventEnable(func() { m.altChannelReady(wdesc) }) {
				m.setWordIndex(w, wsState, m.altReady())
			}
		} else if x := m.externalEnd(ch); x != nil {
			if x.output {
				m.fault("alternative on output "+x.end.noun()+" channel", ch)
			} else if m.ext != nil {
				wdesc := m.Wdesc
				if m.ext.EnableInput(x.end, func() { m.altChannelReady(wdesc) }) {
					m.setWordIndex(w, wsState, m.altReady())
				} else {
					m.altLinks |= 1 << uint(x.end.Link())
				}
			}
		} else {
			chWord := m.word(ch)
			switch chWord {
			case m.notProcess():
				// Nobody there yet: leave our descriptor so an
				// outputting process finds us.
				m.setWord(ch, m.Wdesc)
			case m.Wdesc:
				// Already enabled by us (several guards on one
				// channel); nothing to do.
			default:
				// Another process is waiting to output: this guard is
				// ready.
				m.setWordIndex(w, wsState, m.altReady())
			}
		}
	}
	m.push2(guard)
}

// altChannelReady is called by the link engine when data arrives on an
// enabled link input.
func (m *Machine) altChannelReady(wdesc uint64) {
	w := wptrOf(wdesc)
	switch m.wordIndex(w, wsState) {
	case m.altWaiting():
		m.setWordIndex(w, wsState, m.altReady())
		m.wake(wdesc)
	case m.altEnabling():
		m.setWordIndex(w, wsState, m.altReady())
	}
}

// altWait implements alt wait: proceed if some guard is already ready,
// otherwise deschedule until one becomes so.
func (m *Machine) altWait() int {
	w := m.wptr()
	m.setWordIndex(w, 0, m.noneSelected())
	if m.wordIndex(w, wsState) == m.altReady() {
		return isa.AltwtCycles(true)
	}
	m.setWordIndex(w, wsState, m.altWaiting())
	m.blockOnComm(BlockAlt, 0, -1)
	return isa.AltwtCycles(false)
}

// disableChannel implements disable channel: A = channel, B = guard,
// C = selection offset; A becomes "this guard fired".  The first fired
// guard in disabling order wins the selection.
func (m *Machine) disableChannel() {
	ch := m.Areg
	guard := m.Breg
	off := m.Creg
	w := m.wptr()
	fired := false
	if guard != 0 {
		if m.isEventChannel(ch) {
			fired = m.eventDisable()
		} else if x := m.externalEnd(ch); x != nil {
			if !x.output && m.ext != nil {
				fired = m.ext.DisableInput(x.end)
				m.altLinks &^= 1 << uint(x.end.Link())
			}
		} else {
			chWord := m.word(ch)
			switch chWord {
			case m.Wdesc:
				// Remove our own enable.
				m.setWord(ch, m.notProcess())
			case m.notProcess():
				// Nothing arrived.
			default:
				// An outputter is waiting.
				fired = true
			}
		}
	}
	if fired && m.wordIndex(w, 0) == m.noneSelected() {
		m.setWordIndex(w, 0, off)
	}
	m.Areg = boolWord(fired)
}
