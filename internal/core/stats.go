package core

import "transputer/internal/isa"

// Stats aggregates the execution counters the paper's performance
// discussion rests on: instruction and cycle counts (MIPS), instruction
// length distribution (the "typically 80% single byte" claim), and
// scheduler activity.
type Stats struct {
	// Instructions is the number of completed instructions (prefix
	// sequences count as part of their final instruction).
	Instructions uint64
	// InstructionBytes is the total bytes of executed instructions,
	// including prefixes.
	InstructionBytes uint64
	// SingleByte counts executed instructions encoded in one byte.
	SingleByte uint64
	// Cycles is the total processor cycles consumed, including
	// scheduling charges.
	Cycles uint64
	// FunctionCounts tallies executed instructions by the function code
	// of their final byte.  A prefix is part of the instruction it
	// prefixes, as in Instructions, so the pfix and nfix entries stay
	// zero.
	FunctionCounts [16]uint64
	// OpCounts tallies executed indirect operations.
	OpCounts map[uint16]uint64

	// Scheduler activity.
	Enqueues    uint64
	Deschedules uint64
	Preemptions uint64
	Timeslices  uint64

	// Communication.
	MessagesIn  uint64
	MessagesOut uint64
	BytesIn     uint64
	BytesOut    uint64
	ExternalIn  uint64
	ExternalOut uint64

	// CodeBytes is the size of the loaded program image.
	CodeBytes int
}

// Add accumulates every counter of other into s, including the
// per-function and per-operation tallies; system-wide totals are built
// by folding node stats together with it.
func (s *Stats) Add(other Stats) {
	s.Instructions += other.Instructions
	s.InstructionBytes += other.InstructionBytes
	s.SingleByte += other.SingleByte
	s.Cycles += other.Cycles
	for i, c := range other.FunctionCounts {
		s.FunctionCounts[i] += c
	}
	if len(other.OpCounts) > 0 {
		if s.OpCounts == nil {
			s.OpCounts = make(map[uint16]uint64, len(other.OpCounts))
		}
		for op, c := range other.OpCounts {
			s.OpCounts[op] += c
		}
	}
	s.Enqueues += other.Enqueues
	s.Deschedules += other.Deschedules
	s.Preemptions += other.Preemptions
	s.Timeslices += other.Timeslices
	s.MessagesIn += other.MessagesIn
	s.MessagesOut += other.MessagesOut
	s.BytesIn += other.BytesIn
	s.BytesOut += other.BytesOut
	s.ExternalIn += other.ExternalIn
	s.ExternalOut += other.ExternalOut
	s.CodeBytes += other.CodeBytes
}

// SingleByteFraction returns the fraction of executed instructions that
// occupied a single byte.
func (s Stats) SingleByteFraction() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.SingleByte) / float64(s.Instructions)
}

// MIPS returns the execution rate in millions of instructions per
// second for the given cycle time in nanoseconds.
func (s Stats) MIPS(cycleNs int) float64 {
	if s.Cycles == 0 {
		return 0
	}
	seconds := float64(s.Cycles) * float64(cycleNs) * 1e-9
	return float64(s.Instructions) / seconds / 1e6
}

func (m *Machine) countInstr(bytes int, fn int) {
	m.stats.Instructions++
	m.stats.InstructionBytes += uint64(bytes)
	if bytes == 1 {
		m.stats.SingleByte++
	}
	m.stats.FunctionCounts[fn&0xF]++
}

// denseOps sizes the per-machine table of operation counts: every
// defined operation code indexes it directly.
const denseOps = int(isa.OpTesthalterr) + 1

// countOp tallies one executed indirect operation.  It runs once per
// opr, so defined codes are a plain array increment; an undefined code
// (a hostile or corrupt image) is counted under its own key in a map
// that ordinary programs never allocate.
func (m *Machine) countOp(op uint16) {
	if int(op) < denseOps {
		m.opCounts[op]++
		return
	}
	if m.rareOps == nil {
		m.rareOps = make(map[uint16]uint64)
	}
	m.rareOps[op]++
}

// Stats returns a snapshot of the machine's counters.  OpCounts is a
// fresh map of the non-zero tallies (nil when no operation has run):
// the snapshot does not change as the machine runs on, and writing to
// it does not reach the machine.
func (m *Machine) Stats() Stats {
	s := m.stats
	n := len(m.rareOps)
	for _, c := range m.opCounts {
		if c != 0 {
			n++
		}
	}
	if n == 0 {
		return s
	}
	s.OpCounts = make(map[uint16]uint64, n)
	for op, c := range m.opCounts {
		if c != 0 {
			s.OpCounts[uint16(op)] = c
		}
	}
	for op, c := range m.rareOps {
		s.OpCounts[op] = c
	}
	return s
}

// Cycles returns the total processor cycles consumed so far — the one
// counter event stamping needs, without the cost of a Stats snapshot.
func (m *Machine) Cycles() uint64 { return m.stats.Cycles }
