package core

// Running ahead of the window.
//
// A port's horizon says no delivery from another port is due before it;
// past it deliveries may still land.  The only ways one reaches the
// machine are the link engine's SetByteAt/ByteAt on the buffer of an
// open transfer and its completion call, which ends in enqueue (or, for
// a high-priority process under a low-priority one, a preemption
// request).  A record that neither touches what those touch nor is
// touched by them gives the same result whichever side of the delivery
// it executes on, so the runner may execute it early: RunAhead is
// StepRun with that test applied per batch (aheadHazards: every open
// wait is a plain link transfer that cannot preempt, whose buffer and
// queue words are known) and per record (aheadClear: the record's code
// bytes and the address it is about to use miss all of them).  Nothing
// is guessed and nothing is undone; what fails the test is simply left
// for the window that contains it.

// AheadExit says why a batch stopped running ahead of its window.
type AheadExit uint8

const (
	// AheadOwnEvent: the port's next own kernel event (a timer, a wire
	// event, an earlier delivery) is due.
	AheadOwnEvent AheadExit = iota
	// AheadImpure: the next instruction is outside StepRun's set (an
	// impure operation, a call, an undecodable byte), or error halting
	// is armed.
	AheadImpure
	// AheadSliceDue: a j or lend with the timeslice used up; whether it
	// switches depends on the run queue, which a delivery may extend.
	AheadSliceDue
	// AheadHazard: the instruction's code or effective address lies in
	// an open transfer's buffer or a queue link word — or outside
	// memory, where it would fault.
	AheadHazard
	// AheadWait: an open wait is not a plain link transfer (a virtual
	// channel, an alternative armed on a link, the event channel, a
	// buffer outside memory) or could preempt the running process.
	AheadWait
	// AheadCap: the fixed bound on one run-ahead.
	AheadCap
	// AheadLimit: the run's own limit (RunUntil).
	AheadLimit
	// NumAheadExits is the number of reasons AheadStats counts.
	NumAheadExits

	// AheadBound is RunAhead's answer when the time it was given ran
	// out; the runner, which chose that time, counts it as own event,
	// cap or limit.  AheadOff means the machine cannot run ahead at
	// all — block cache off, a trace hook or probe bus attached (both
	// stamp events with the clock), halted — and is not counted.
	AheadBound
	AheadOff
	// aheadIdiom is how stepRun's record loop stops at an idiom head,
	// for idioms to run (see fuse); no batch ends with it.
	aheadIdiom
)

var aheadExitNames = [NumAheadExits]string{
	AheadOwnEvent: "own event",
	AheadImpure:   "impure op",
	AheadSliceDue: "slice due",
	AheadHazard:   "hazard hit",
	AheadWait:     "non-plain wait",
	AheadCap:      "cap",
	AheadLimit:    "run limit",
}

// String names a counted reason.
func (e AheadExit) String() string {
	if e < NumAheadExits {
		return aheadExitNames[e]
	}
	return "none"
}

// AheadStats counts what a runner executed past its port's horizon.
// Like sim.EngineStats these are engine diagnostics: deterministic for
// a fixed partition, and no part of the simulated system's behaviour.
type AheadStats struct {
	// Batches is the number of runs past the horizon that executed at
	// least one instruction, Cycles the processor cycles they covered.
	Batches uint64
	Cycles  uint64
	// Exits counts, by reason, every time a runner stopped at its
	// horizon with the machine able to run ahead: what kept it from
	// going on, or from starting.
	Exits [NumAheadExits]uint64
}

// Add accumulates other into s.
func (s *AheadStats) Add(other AheadStats) {
	s.Batches += other.Batches
	s.Cycles += other.Cycles
	for i, n := range other.Exits {
		s.Exits[i] += n
	}
}

// hazard is a range of memory offsets [lo, hi) a delivery may read or
// write.
type hazard struct{ lo, hi uint64 }

// addHazard records n bytes at addr, or reports false when they do not
// lie inside memory (word aligned, for a word the scheduler writes):
// the delivery that touched them would fault and halt the machine.
func (m *Machine) addHazard(addr, n uint64, word bool) bool {
	off := m.offset(addr)
	if n > uint64(m.cfg.MemBytes) || off > uint64(m.cfg.MemBytes)-n || (word && off&uint64(m.bpw-1) != 0) {
		return false
	}
	m.haz = append(m.haz, hazard{off, off + n})
	if off < m.hazLo {
		m.hazLo = off
	}
	if off+n > m.hazHi {
		m.hazHi = off + n
	}
	return true
}

// hazardFree reports whether the n bytes at memory offset off miss
// every hazard.
func (m *Machine) hazardFree(off, n uint64) bool {
	if off >= m.hazHi || off+n <= m.hazLo {
		return true
	}
	for _, h := range m.haz {
		if off < h.hi && h.lo < off+n {
			return false
		}
	}
	return true
}

// aheadHazards decides whether the machine may run ahead at all and
// rebuilds the hazard list (per-machine scratch, reused) from the open
// link transfers: each one's buffer, and the link words enqueue writes
// when it completes — the tail of each run queue as it stands, and the
// waiting process's own, which becomes the tail once it is woken.
func (m *Machine) aheadHazards() (AheadExit, bool) {
	if m.haltErr {
		return AheadImpure, false
	}
	np := m.notProcess()
	if m.vchans != nil || m.altLinks != 0 || m.extraXfers != 0 ||
		m.cold != nil && (m.cold.eventWaiter != np || m.cold.eventArmed != nil) {
		return AheadWait, false
	}
	m.haz = m.haz[:0]
	m.hazLo, m.hazHi = ^uint64(0), 0
	low := priorityOf(m.Wdesc) == PriorityLow
	bpw := uint64(m.bpw)
	for l := range m.xfers {
		for d := range m.xfers[l] {
			x := &m.xfers[l][d]
			if !x.busy {
				continue
			}
			if low && priorityOf(x.wdesc) == PriorityHigh {
				return AheadWait, false // its completion would preempt
			}
			if !m.addHazard(x.ptr, uint64(x.count), false) ||
				!m.addHazard(m.index(wptrOf(x.wdesc), wsLink), bpw, true) {
				return AheadWait, false
			}
		}
	}
	if len(m.haz) == 0 {
		return 0, true // nothing open: no delivery reaches the machine
	}
	for pri := range m.Fptr {
		if m.Fptr[pri] != np && !m.addHazard(m.index(m.Bptr[pri], wsLink), bpw, true) {
			return AheadWait, false
		}
	}
	return 0, true
}

// aheadClear reports whether the memory a record is about to touch —
// worked out from the registers before it executes — is inside memory
// (so it cannot fault) and misses every hazard.
func (m *Machine) aheadClear(rec *blockRec) bool {
	var addr uint64
	n := uint64(m.bpw)
	switch rec.touch {
	case touchLocal:
		addr = (m.wptr() + rec.disp) & m.mask
	case touchNonlocal:
		addr = (m.Areg + rec.disp) & m.mask
	case touchByte:
		addr, n = m.Areg, 1
	case touchLoop:
		addr, n = m.Breg, 2*n
	}
	off := m.offset(addr)
	if off > uint64(m.cfg.MemBytes)-n || (n > 1 && off&uint64(m.bpw-1) != 0) {
		return false
	}
	return m.hazardFree(off, n)
}

// aheadOff reports whether the machine cannot run ahead whatever it is
// executing: the block cache is off, it has halted, or a trace hook or
// probe bus is attached, either of which would see the clock.
func (m *Machine) aheadOff() bool {
	return m.bus != nil || m.trace != nil || m.noCache || m.halted
}

// RunAhead is StepRun for a batch past the port's horizon: it executes
// the same records under the same time bound, but only while each is
// delivery-independent — the batch test is made once there is a first
// record to run — and reports what stopped it.  A zero total means
// nothing could run.
func (m *Machine) RunAhead(maxNs int64) (total, last int, exit AheadExit) {
	if m.aheadOff() {
		return 0, 0, AheadOff
	}
	return m.stepRun(maxNs, true)
}
