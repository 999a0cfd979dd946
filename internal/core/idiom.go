package core

import "transputer/internal/isa"

// Idioms: the block cache's superinstructions.
//
// About 85 % of the figure-7 search's instructions are one loop of
// three sequences occam compiles a subscript, an equality test and a
// replicated SEQ to.  newCode marks the first record of each with
// recFused and the idiom it heads; StepRun's record loop stops at a
// marked record and idioms runs the idiom as one step when the whole of
// it fits the batch, or leaves its records to run one by one.  The
// mark is all that is stored: the constituents are the records that
// follow the head in its block.

// The idioms a recFused record heads.
const (
	idiomNone      uint8 = iota
	idiomArrayLoad       // ldl i; ldlp a; wsub; ldnl n: A = a[i] at word n
	idiomCompare         // ldl x; diff; eqc k; cj d: jump unless A-x = k
	idiomLoopEnd         // ldlp b; ldc d; lend: the loop control block at b
)

// idiomLen is the number of constituents of each idiom.
var idiomLen = [...]int{idiomArrayLoad: 4, idiomCompare: 4, idiomLoopEnd: 3}

// markIdioms marks the head of each idiom in recs, left to right.
func markIdioms(recs []blockRec) {
	for i := 0; i < len(recs); i++ {
		if id := idiomAt(recs[i:]); id != idiomNone {
			recs[i].kind, recs[i].idiom = recFused, id
			i += idiomLen[id] - 1
		}
	}
}

// idiomAt names the idiom that starts rs, if any.
func idiomAt(rs []blockRec) uint8 {
	op := func(r *blockRec, o isa.Op) bool { return r.fn == isa.FnOpr && r.operand == uint64(o) }
	switch {
	case len(rs) >= 4 && rs[0].fn == isa.FnLdl && rs[1].fn == isa.FnLdlp &&
		op(&rs[2], isa.OpWsub) && rs[3].fn == isa.FnLdnl:
		return idiomArrayLoad
	case len(rs) >= 4 && rs[0].fn == isa.FnLdl && op(&rs[1], isa.OpDiff) &&
		rs[2].fn == isa.FnEqc && rs[3].fn == isa.FnCj:
		return idiomCompare
	case len(rs) >= 3 && rs[0].fn == isa.FnLdlp && rs[1].fn == isa.FnLdc &&
		op(&rs[2], isa.OpLend):
		return idiomLoopEnd
	}
	return idiomNone
}

// FusedStats counts the idioms a machine's batches ran as one step and
// the idiom heads they ran record by record, the whole idiom not
// fitting.  Like AheadStats these are engine diagnostics: they move
// with where batches are cut, and are no part of the simulated
// system's behaviour, which is why Stats leaves them out.
type FusedStats struct{ Steps, Splits uint64 }

// Add accumulates other into s.
func (s *FusedStats) Add(other FusedStats) {
	s.Steps += other.Steps
	s.Splits += other.Splits
}

// FusedStats returns the machine's idiom counts.
func (m *Machine) FusedStats() FusedStats { return m.fused }

// batch is a stepRun's progress, handed to idioms and fuse: its locals
// of the same names.
type batch struct {
	b           *block // b.recs[idx] runs next; nil when nothing can
	idx         int
	total, last int
	maxNs       int64
	ahead       bool
	hazards     bool
	clear       *block
	skip        *blockRec // set by idioms: the head that did not fit
}

// idioms runs the idiom headed by the batch's next record as one step,
// and every idiom that follows straight on.  It returns AheadBound if
// the time bound ran out, else aheadIdiom with the next record not an
// idiom head, or one that did not fit (skip).
func (m *Machine) idioms(s *batch) AheadExit {
	for {
		if !m.fuse(s) {
			m.fused.Splits++
			s.skip = &s.b.recs[s.idx]
			return aheadIdiom
		}
		m.fused.Steps++
		if int64(s.total)*CycleNs >= s.maxNs {
			return AheadBound
		}
		if s.idx == len(s.b.recs) { // lend, the one writer, ends its block
			m.curBlock, m.curIdx = s.b, s.idx
			s.b, s.idx = m.find(true)
		}
		if s.b == nil || s.b.recs[s.idx].kind != recFused {
			return aheadIdiom
		}
	}
}

// fuse runs the idiom headed by the batch's next record as one step,
// through the helpers exec calls, and moves the batch past it.  It does
// so only when the records would all run one by one in this batch, none
// faulting: each after the head starts inside the time bound, no slice
// falls due before lend, every word touched is aligned and backed (so
// nothing faults or grows memory) and, running ahead, misses the hazard
// list, as does the block's code.  Otherwise it changes nothing and
// reports false, and the records run one by one.  Only lend, the last
// constituent, writes memory, so no constituent can rewrite one that
// follows it.
func (m *Machine) fuse(s *batch) bool {
	rs := s.b.recs[s.idx:]
	bpw := uint64(m.bpw)
	w := m.wptr()
	// pre sums the constituents before the last, all of fixed cost.
	var pre, last int
	switch rs[0].idiom {
	case idiomArrayLoad:
		rs = rs[:4]
		pre = int(rs[0].cycles) + int(rs[1].cycles) + int(rs[2].cycles)
		ia := (w + rs[0].disp) & m.mask
		if !m.fits(s, pre) || !m.fusable(ia, bpw, s.ahead) {
			return false
		}
		ea := (m.index((w+rs[1].disp)&m.mask, int(m.signed(m.word(ia)))) + rs[3].disp) & m.mask
		if !m.fusable(ea, bpw, s.ahead) {
			return false
		}
		m.Iptr = rs[3].next(m.mask)
		m.countOp(uint16(isa.OpWsub))
		m.Breg, m.Creg = m.Areg, m.Areg
		m.Areg = m.word(ea)
		last = int(rs[3].cycles)
	case idiomCompare:
		rs = rs[:4]
		pre = int(rs[0].cycles) + int(rs[1].cycles) + int(rs[2].cycles)
		xa := (w + rs[0].disp) & m.mask
		if !m.fits(s, pre) || !m.fusable(xa, bpw, s.ahead) {
			return false
		}
		m.Iptr = rs[3].next(m.mask)
		m.countOp(uint16(isa.OpDiff))
		m.Creg = m.Breg
		last = int(rs[3].cycles)
		if (m.Areg-m.word(xa))&m.mask == rs[2].operand {
			m.Areg = m.Breg // eqc leaves 1: cj pops
		} else {
			m.Areg = 0 // eqc leaves 0: cj jumps
			m.Iptr = (m.Iptr + rs[3].operand) & m.mask
			last += isa.CjTakenExtra
		}
	case idiomLoopEnd:
		rs = rs[:3]
		pre = int(rs[0].cycles) + int(rs[1].cycles)
		blk := (w + rs[0].disp) & m.mask
		if !m.fits(s, pre) || !m.fusable(blk, 2*bpw, s.ahead) || m.sliceDueAfter(pre) {
			return false
		}
		m.Iptr = rs[2].next(m.mask)
		m.countOp(uint16(isa.OpLend))
		m.Areg, m.Breg, m.Creg = rs[1].operand, blk, m.Areg
		last = int(rs[2].pre) + m.loopEnd()
	}
	for i := range rs {
		m.countInstr(int(rs[i].bytes), int(rs[i].fn))
	}
	m.account(pre + last)
	s.idx += len(rs)
	s.total += pre + last
	s.last = last
	return true
}

// fits reports whether every constituent after an idiom's head starts
// inside the batch's time bound, pre being the cycles of those before
// the last, and, running ahead, whether the machine may (building the
// hazard list if the batch has not yet) and the list misses the
// block's code.
func (m *Machine) fits(s *batch, pre int) bool {
	if int64(s.total+pre)*CycleNs >= s.maxNs {
		return false
	}
	if s.ahead {
		if !s.hazards {
			if _, ok := m.aheadHazards(); !ok {
				return false // the head, run alone, stops the batch for the same reason
			}
			s.hazards = true
		}
		if s.b != s.clear && !m.hazardFree(s.b.startOff, s.b.endOff-s.b.startOff) {
			return false
		}
		s.clear = s.b
	}
	return true
}

// fusable reports whether fuse may touch the n bytes, a word or two,
// at addr: aligned, backed and, running ahead, clear of every hazard.
func (m *Machine) fusable(addr, n uint64, ahead bool) bool {
	off := m.offset(addr)
	if off&uint64(m.bpw-1) != 0 || off+n > uint64(len(m.mem)) {
		return false
	}
	return !ahead || m.hazardFree(off, n)
}
