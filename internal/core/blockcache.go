package core

import (
	"maps"
	"slices"

	"transputer/internal/isa"
)

// The predecoded block cache.
//
// I1 instructions are position independent and compiler output is
// static straight-line code (paper, 3.2), so the result of fetching and
// decoding a byte sequence — the final function, its accumulated prefix
// operand (and that operand as a word displacement), its length and its
// fixed cycle cost — never changes unless
// the bytes themselves are overwritten.  The cache translates
// straight-line runs at first execution into arrays of records keyed by
// the instruction pointer; the hot path then dispatches on records
// instead of re-fetching bytes and re-walking pfix/nfix chains.  The
// records are the same for every machine that decodes the same bytes at
// the same address, so a machine's block is only its handle on code
// that machines share (see codestore.go).
//
// A block terminates at anything that can transfer control or touch the
// scheduler: j, cj, call, and every opr.  The records before the
// terminator are "pure": they read and write memory and the evaluation
// stack only, with a fully fixed cycle cost, which is what lets
// Machine.StepRun execute them in a tight loop and lets the runner
// promise the simulation coordinator a quiet horizon (see
// SendLookaheadCycles).
//
// Blocks are chained: a block remembers the block that followed it by
// falling through and the one that followed it any other way, so a loop
// moves from block to block without consulting the lookup map (see
// find).  An edge is a hint, trusted only while the block it names is
// still valid and starts at the instruction pointer, which is why
// invalidating a block never has to find the edges that point at it.
//
// Self-modifying code still works: every memory write is filtered
// against the cached code range and overlapping blocks are invalidated
// before the write's effect can be observed, including a store that
// rewrites a later instruction of the block currently executing.

// blockRec is one predecoded instruction: the final function with its
// fully accumulated prefix operand, and what execution would otherwise
// derive from them every time it runs the record.  It is 32 bytes and
// must stay so (TestBlockRecSize): every decoded instruction a store
// holds is one, and a larger record shows in the benchmark's
// allocation bound.
type blockRec struct {
	addr    uint64 // address of the first byte, prefixes included
	operand uint64
	// disp is the operand as a word displacement in bytes, signed(operand)
	// times the bytes per word in two's complement: what ldl, stl, ldlp,
	// ldnl, stnl, ldnlp and ajw add to a pointer.
	disp   uint64
	cycles uint16 // pre + the minimum base cost: exact but for cj and an opr not recFixedOp
	pre    uint8  // prefix cycles: at most maxRecBytes-1
	bytes  uint8
	fn     isa.Function
	kind   uint8 // what a batch may do with the record (recPure...)
	touch  uint8 // the data memory it reads or writes (touchNone...)
	idiom  uint8 // on a recFused record, the idiom it heads (idiomArrayLoad...)
}

// next is the address of the instruction after the record.
func (r *blockRec) next(mask uint64) uint64 { return (r.addr + uint64(r.bytes)) & mask }

// How StepRun treats a record, in this order: the kinds before
// recBranch are pure, and every other kind but recFused ends its block.
const (
	recPure    uint8 = iota // pure compute: no control flow, scheduler or clock
	recFixedOp              // a pure opr of fixed cost, which is cycles
	recBranch               // cj: moves the instruction pointer and nothing else
	recJump                 // j, lend: a branch that is also a descheduling point
	recFused                // a pure ldl or ldlp that heads an idiom (see fuse)
	recImpure               // call and every other opr: left to Step
)

// What a record in StepRun's set touches in data memory, so that a
// batch running ahead of its window can work out the address before the
// record executes (see aheadClear).
const (
	touchNone     uint8 = iota
	touchLocal          // ldl, stl: one word at Wptr+operand
	touchNonlocal       // ldnl, stnl: one word at A+operand
	touchByte           // lb, sb: the byte at A
	touchLoop           // lend: the two-word control block at B
)

// code is a decoded straight-line run: immutable once built, and shared
// by every machine of a CodeStore that decodes the same bytes at the
// same address (see CodeStore).
type code struct {
	startOff, endOff uint64 // memory offsets covered: [startOff, endOff)
	recs             []blockRec
	// quiet[i] is a lower bound on the cycles from the start of record i
	// to the start of the first instruction that could emit externally
	// visible activity (an opr): the sum of the fixed minimum costs of
	// records i.. up to and including a trailing j/cj/call, and up to but
	// excluding a terminating opr.
	quiet []int32
	// The rest of the content key, the address being recs[0].addr: the
	// bytes decoded and the word size, which is everything decodeRec
	// reads.
	src      string
	wordBits uint8
	next     *code // the store bucket's chain, set before publication
}

// block is one machine's handle on decoded code: the chain edges and
// the validity are the machine's own, the code may be every machine's.
type block struct {
	*code
	// succ are the chain edges, filled on first transit: succ[0] is the
	// block entered by running off the end of this one, succ[1] the
	// block last entered any other way (a taken branch, a call, a
	// return, a process switch).
	succ  [2]*block
	valid bool
}

const (
	// maxBlockRecs bounds one block.
	maxBlockRecs = 64
	// maxRecBytes bounds one record's prefix chain; longer chains
	// (never emitted by the assembler or compiler) fall back to the
	// interpreted path.
	maxRecBytes = 16
	// maxBlocks bounds the cache; pathological self-modifying programs
	// flush wholesale instead of growing without bound.
	maxBlocks = 4096
)

// blockCache holds a machine's decoded blocks.
type blockCache struct {
	blocks map[uint64]*block // start address -> block
	lo, hi uint64            // union of covered offsets, the write filter
}

func (m *Machine) bcache() *blockCache {
	if m.bc == nil {
		m.bc = &blockCache{
			blocks: make(map[uint64]*block),
			lo:     ^uint64(0),
		}
	}
	return m.bc
}

// flushBlocks drops every cached block: program load or cache overflow.
// The dropped blocks stay marked valid but can never run again: chain
// edges are reachable only from the map and the cursor, both cleared
// here, and are only ever filled with blocks of the current map.
func (m *Machine) flushBlocks() {
	m.bc = nil
	m.curBlock = nil
}

// SetBlockCache turns the predecoded block cache on or off; a new
// machine has it on.  Step always interprets; with the cache on,
// StepRun and RunAhead batches run predecoded records, and with it off
// they run nothing.  Purely a simulator-performance switch: traces,
// statistics and cycle accounting are identical either way.  Turning
// the cache off also drops every cached block.
func (m *Machine) SetBlockCache(on bool) {
	m.noCache = !on
	if !on {
		m.flushBlocks()
	}
}

// noteCodeWrite invalidates every cached block overlapping the written
// byte range [off, off+n).  Callers have already tested the range
// against the cache's lo/hi filter, which no store of a compiled
// program passes, so walking the whole map costs ordinary runs nothing;
// the walk goes in key order so that it is deterministic.
func (m *Machine) noteCodeWrite(off, n uint64) {
	bc := m.bc
	for _, start := range slices.Sorted(maps.Keys(bc.blocks)) {
		if b := bc.blocks[start]; b.startOff < off+n && off < b.endOff {
			// A dead block is never executed again, so its edges only
			// keep its successors — and theirs, once they die too —
			// reachable from whatever stale edge still names it.
			b.valid = false
			b.succ = [2]*block{}
			delete(bc.blocks, start)
		}
	}
}

// pureOp classifies an indirect operation.  A pure one — no control
// transfer, no scheduler, channel, timer or clock interaction, registers
// and ordinary memory only — is recFixedOp when its cost is a constant,
// which minCycles then is, and recPure when its cost depends on its
// operands, minCycles then being the floor (used for quiet bounds, never
// for accounting, which charges the executed cost).  Everything
// communication- or scheduling-shaped is recImpure and terminates its
// block, as do the rare scheduler-register and workspace-switch
// operations, excluded out of caution: exclusion only costs block
// length, inclusion would risk correctness.
func pureOp(op isa.Op, wordBits int) (minCycles int, kind uint8) {
	switch op {
	case isa.OpRev, isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpRem,
		isa.OpSum, isa.OpDiff, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpNot,
		isa.OpGt, isa.OpMint,
		isa.OpLadd, isa.OpLsub, isa.OpLsum, isa.OpLdiff, isa.OpLmul,
		isa.OpLdiv, isa.OpXdble, isa.OpCsngl, isa.OpXword, isa.OpCword,
		isa.OpBsub, isa.OpWsub, isa.OpBcnt, isa.OpWcnt, isa.OpLb, isa.OpSb,
		isa.OpLdpi, isa.OpCsub0, isa.OpCcnt1, isa.OpLdpri,
		isa.OpSeterr, isa.OpTesterr, isa.OpClrhalterr, isa.OpSethalterr,
		isa.OpTesthalterr:
		c, _ := isa.OpCycles(op, wordBits)
		return c, recFixedOp
	case isa.OpShl, isa.OpShr:
		return isa.ShiftCycles(0), recPure
	case isa.OpLshl, isa.OpLshr:
		return isa.LongShiftCycles(0), recPure
	case isa.OpProd:
		return isa.ProdCycles(0), recPure
	case isa.OpNorm:
		return isa.NormCycles(0), recPure
	}
	return 0, recImpure
}

// decodeBlock translates the straight-line byte sequence starting at
// iptr, where the cache holds no block.  It returns nil when nothing
// could be decoded (the first instruction runs off the memory backing
// or has a pathological prefix chain); the interpreted path then runs
// it, reproducing a fault exactly.
func (m *Machine) decodeBlock(iptr uint64) *block {
	bc := m.bcache()
	if len(bc.blocks) >= maxBlocks {
		m.flushBlocks()
		bc = m.bcache()
	}
	memLen := uint64(len(m.mem))
	// Decode into a scratch array: the store keeps an exact-size copy,
	// and only when it holds none of the same bytes already.
	var recs [maxBlockRecs]blockRec
	n := 0
	startOff := m.offset(iptr)
	addr := iptr
	prevOff := startOff
	for n < maxBlockRecs {
		rec, ok := m.decodeRec(addr, memLen)
		if !ok {
			break
		}
		addr = rec.next(m.mask)
		endOff := m.offset(addr)
		if endOff <= prevOff {
			break // wrapped around the address space; not cacheable
		}
		prevOff = endOff
		recs[n] = rec
		n++
		if rec.kind >= recBranch {
			break
		}
	}
	if n == 0 {
		return nil
	}
	if m.store == nil {
		m.store = NewCodeStore()
	}
	b := &block{code: m.store.intern(recs[:n], m.mem[startOff:prevOff], startOff,
		uint8(m.wordBits)), valid: true}
	bc.blocks[iptr] = b
	if b.startOff < bc.lo {
		bc.lo = b.startOff
	}
	if b.endOff > bc.hi {
		bc.hi = b.endOff
	}
	return b
}

// newCode builds the code for the records recs decoded from src, which
// lies at offset startOff.
func newCode(recs []blockRec, src []byte, startOff uint64, wordBits uint8) *code {
	c := &code{startOff: startOff, endOff: startOff + uint64(len(src)),
		recs: append([]blockRec(nil), recs...), quiet: make([]int32, len(recs)),
		src: string(src), wordBits: wordBits}
	quiet := int32(0)
	for i := len(c.recs) - 1; i >= 0; i-- {
		r := &c.recs[i]
		switch {
		case r.fn == isa.FnOpr && r.kind >= recBranch:
			// A communication/scheduling operation could act externally
			// the moment it starts.
			quiet = 0
		case storeRec(r):
			// A store can rewrite upcoming code (self-modification), in
			// which case the decoded suffix no longer predicts what
			// executes — but the records before a store cannot, so a
			// bound through the store itself is still sound.
			quiet = int32(r.cycles)
		default:
			quiet += int32(r.cycles)
		}
		c.quiet[i] = quiet
	}
	markIdioms(c.recs)
	return c
}

// storeRec reports whether a record writes data memory.  Call also
// writes memory (the new call frame) but is always a block terminator,
// so nothing is predicted beyond it.
func storeRec(r *blockRec) bool {
	return r.fn == isa.FnStl || r.fn == isa.FnStnl ||
		(r.fn == isa.FnOpr && isa.Op(r.operand) == isa.OpSb)
}

// decodeRec decodes a single instruction (prefix chain plus final byte)
// at addr without side effects.  ok is false when the bytes run off the
// memory backing (memLen) — execution must take the interpreted path,
// which reads unbacked memory as zero and faults past MemBytes.
func (m *Machine) decodeRec(addr, memLen uint64) (blockRec, bool) {
	var oreg uint64
	pre := 0
	nbytes := 0
	a := addr
	for nbytes < maxRecBytes {
		off := m.offset(a)
		if off >= memLen {
			return blockRec{}, false
		}
		bv := m.mem[off]
		a = (a + 1) & m.mask
		nbytes++
		fn := isa.Function(bv >> 4)
		data := uint64(bv & 0xF)
		switch fn {
		case isa.FnPfix:
			oreg = (oreg | data) << 4 & m.mask
			pre += isa.CyclesPerPrefix
		case isa.FnNfix:
			oreg = ^(oreg | data) << 4 & m.mask
			pre += isa.CyclesPerPrefix
		default:
			operand := (oreg | data) & m.mask
			minC := isa.FunctionCycles(fn)
			kind, touch := recPure, touchNone // ldlp ldc ldnlp adc ajw eqc
			switch fn {
			case isa.FnJ:
				kind = recJump
			case isa.FnCj:
				kind = recBranch
			case isa.FnCall:
				kind = recImpure
			case isa.FnOpr:
				minC, kind = pureOp(isa.Op(operand), m.wordBits)
				switch isa.Op(operand) {
				case isa.OpLb, isa.OpSb:
					touch = touchByte
				case isa.OpLend:
					kind, touch = recJump, touchLoop
				}
			case isa.FnLdl, isa.FnStl:
				touch = touchLocal
			case isa.FnLdnl, isa.FnStnl:
				touch = touchNonlocal
			}
			return blockRec{
				addr:    addr,
				operand: operand,
				disp:    uint64(m.signed(operand) * int64(m.bpw)),
				pre:     uint8(pre),
				cycles:  uint16(pre + minC),
				bytes:   uint8(nbytes),
				fn:      fn,
				kind:    kind,
				touch:   touch,
			}, true
		}
	}
	return blockRec{}, false
}

// find returns the predecoded record at the instruction pointer: the
// cursor's own when execution ran straight on, else the first record of
// the block that starts there, reached over a chain edge when the
// cursor stands past the end of a block or on its last record (the
// terminator a batch left to Step) and through the lookup map otherwise
// (a cold edge, a return to a new caller, a process switch, a block
// invalidated under the cursor).  With decode set a missing block
// is translated and the edge taken is recorded; without it find only
// reports what is already cached.  A nil block means the instruction
// must take the interpreted path.
func (m *Machine) find(decode bool) (*block, int) {
	b, idx := m.curBlock, m.curIdx
	var edge **block
	if b != nil {
		if idx < len(b.recs) && b.valid && b.recs[idx].addr == m.Iptr {
			return b, idx
		}
		if idx >= len(b.recs)-1 {
			edge = &b.succ[0]
			if m.Iptr != b.recs[len(b.recs)-1].next(m.mask) {
				edge = &b.succ[1]
			}
			if s := *edge; s != nil && s.valid && s.recs[0].addr == m.Iptr {
				return s, 0
			}
		}
	}
	var s *block
	if m.bc != nil {
		s = m.bc.blocks[m.Iptr] // holds valid blocks only
	}
	if s == nil && decode {
		s = m.decodeBlock(m.Iptr)
	}
	if s != nil && decode && edge != nil {
		*edge = s
	}
	return s, 0
}

// exec executes a predecoded record, the instruction pointer already
// past it, and returns its cycles, prefixes included.  It is the cached
// twin of execFunction: the direct functions a compute loop is made of
// run here on the record's displacement and cost, a fixed-cost pure opr
// goes straight to its operation, and everything else — call, lend, an
// impure or variable-cost opr — to execFunction.  The interpreter stays
// the reference: the differential fuzz targets and the determinism
// matrix hold this copy to it.
func (m *Machine) exec(rec *blockRec) int {
	switch rec.fn {
	case isa.FnLdl:
		m.push(m.word((m.wptr() + rec.disp) & m.mask))
	case isa.FnStl:
		m.setWord((m.wptr()+rec.disp)&m.mask, m.pop())
	case isa.FnLdc:
		m.push(rec.operand)
	case isa.FnLdlp:
		m.push(m.wptr() + rec.disp)
	case isa.FnLdnl:
		m.Areg = m.word((m.Areg + rec.disp) & m.mask)
	case isa.FnStnl:
		addr := m.pop()
		m.setWord((addr+rec.disp)&m.mask, m.pop())
	case isa.FnLdnlp:
		m.Areg = (m.Areg + rec.disp) & m.mask
	case isa.FnAdc:
		m.Areg = m.checkedAdd(m.Areg, rec.operand)
	case isa.FnEqc:
		m.Areg = boolWord(m.Areg == rec.operand)
	case isa.FnCj:
		if m.Areg == 0 {
			m.Iptr = (m.Iptr + rec.operand) & m.mask
			return int(rec.cycles) + isa.CjTakenExtra
		}
		m.pop()
	case isa.FnJ:
		m.Iptr = (m.Iptr + rec.operand) & m.mask
		m.timesliceCheck()
	case isa.FnAjw:
		m.Wdesc = (m.wptr()+rec.disp)&m.mask | uint64(m.CurrentPriority())
	default:
		if rec.kind != recFixedOp {
			return int(rec.pre) + m.execFunction(rec.fn, rec.operand)
		}
		m.countOp(uint16(rec.operand))
		m.execFixedOp(isa.Op(rec.operand))
	}
	return int(rec.cycles)
}

// SendLookaheadCycles returns a lower bound on the processor cycles
// that must elapse before the machine could emit externally visible
// activity (start or acknowledge a link transfer), or 0 when no bound
// is known.  The bound is read off the predecoded block at the current
// instruction pointer: the fixed minimum costs of the instructions
// before the next opr.  Nothing is decoded to answer it, so the answer
// depends only on what has executed.  The parallel engine turns it into
// a send promise that extends neighbouring shards' windows (see
// internal/sim).
func (m *Machine) SendLookaheadCycles() int {
	if m.noCache || m.halted || m.longOp != nil || m.preemptPending ||
		m.pendingSwitchCycles != 0 || m.Oreg != 0 || m.Wdesc == m.notProcess() {
		return 0
	}
	b, idx := m.find(false)
	if b == nil {
		return 0
	}
	return int(b.quiet[idx])
}

// StepRun executes consecutive predecoded records as one batch, bounded
// so that every record after the first starts strictly before maxNs of
// simulated time has elapsed — exactly the instructions Step-by-Step
// execution would have run against the same bound.  It returns the
// total cycles consumed and the cycles of the last record (so a caller
// can reconstruct the last instruction's start time); a zero total
// means the fast path does not apply and the caller must use Step.
//
// The batch runs pure records, cj, and j and lend while no timeslice is
// due, and follows them from block to block.  None of these can
// schedule, deschedule, communicate or observe time, so executing them
// without touching the clock is invisible; cycle accounting still
// happens per record.  A j or lend that could end a timeslice, call and
// every other impure opr are left to Step.  The next record is looked
// up (and its block decoded) only once the bound has let it start, so
// the set of decoded blocks — which SendLookaheadCycles reads — depends
// on what has executed and never on where a bound fell.
func (m *Machine) StepRun(maxNs int64) (total, last int) {
	total, last, _ = m.stepRun(maxNs, false)
	return total, last
}

// stepRun is StepRun's loop, and RunAhead's: with ahead set every
// record must also be delivery-independent (see ahead.go), and exit
// says what ended the batch.  The inner loop runs records one by one
// and leaves each idiom head to idioms, which runs it as one step if it
// can (see fuse).  That loop is the hot path of every compute workload
// and makes no call that does not execute a record: a call there, even
// one never taken, cost compute8 5-7 %.  Handing the loop the batch by
// pointer in a function of its own cost the short batches of ring8 and
// grid3x3.fused 2-4 %, so the batch state leaves these locals only for
// idioms.
func (m *Machine) stepRun(maxNs int64, ahead bool) (total, last int, exit AheadExit) {
	if m.noCache || m.halted || m.trace != nil {
		return 0, 0, AheadOff
	}
	if m.pendingSwitchCycles != 0 || m.preemptPending || m.longOp != nil ||
		m.Oreg != 0 || m.Wdesc == m.notProcess() {
		return 0, 0, AheadImpure
	}
	b, idx := m.find(true)
	// Running ahead, hazards says the hazard list has been built (only
	// once a first record is there to use it) and clear names the block
	// whose code bytes are known to miss it.  skip is an idiom head
	// that did not fit, to run record by record.
	hazards, clear, skip := false, (*block)(nil), (*blockRec)(nil)
	for {
		exit = AheadImpure // unless something else ends the batch: a record for Step, or none at all
		for b != nil {
			rec := &b.recs[idx]
			if rec.kind >= recJump {
				if rec.kind == recImpure {
					break
				}
				if rec.kind == recFused {
					if rec != skip {
						exit = aheadIdiom
						break
					}
					skip = nil
				} else if m.sliceDue() {
					exit = AheadSliceDue
					break
				}
			}
			if ahead {
				if !hazards {
					why, ok := m.aheadHazards()
					if !ok {
						exit = why
						break
					}
					hazards = true
				}
				if b != clear && !m.hazardFree(b.startOff, b.endOff-b.startOff) {
					exit = AheadHazard // a delivery could rewrite this code
					break
				}
				clear = b
				if rec.touch != touchNone && !m.aheadClear(rec) {
					exit = AheadHazard
					break
				}
			}
			m.Iptr = rec.next(m.mask)
			m.countInstr(int(rec.bytes), int(rec.fn))
			c := m.exec(rec)
			m.account(c)
			total += c
			last = c
			idx++
			if m.halted {
				break // memory fault or halt-on-error
			}
			if int64(total)*CycleNs >= maxNs {
				exit = AheadBound
				break
			}
			if idx == len(b.recs) || !b.valid {
				// End of the block, or a store rewrote it: move on.
				m.curBlock, m.curIdx = b, idx
				b, idx = m.find(true)
			}
		}
		if exit != aheadIdiom {
			break
		}
		s := batch{b: b, idx: idx, total: total, last: last, maxNs: maxNs,
			ahead: ahead, hazards: hazards, clear: clear}
		exit = m.idioms(&s)
		b, idx, total, last, hazards, clear, skip = s.b, s.idx, s.total, s.last, s.hazards, s.clear, s.skip
		if exit == AheadBound {
			break
		}
	}
	m.curBlock, m.curIdx = b, idx
	return total, last, exit
}
