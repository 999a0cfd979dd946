package core

import "transputer/internal/isa"

// Step executes one instruction — or one installment of an
// interruptible long operation — and returns the cycles consumed.  It
// returns 0 when the machine is idle or halted.  The driver advances
// simulated time by cycles * CycleNs between steps.
func (m *Machine) Step() int {
	if m.halted {
		return 0
	}
	cycles := m.takeSwitchCycles()

	// Honour a pending preemption request at this instruction boundary.
	if m.preemptPending && m.CurrentPriority() == PriorityLow {
		m.preemptNow()
		cycles += m.takeSwitchCycles()
	}

	if m.longOp != nil {
		cycles += m.stepLongOp()
		cycles += m.takeSwitchCycles()
		m.account(cycles)
		return cycles
	}

	if m.Wdesc == m.notProcess() {
		m.account(cycles)
		return cycles
	}

	cycles += m.execOne()
	cycles += m.takeSwitchCycles()
	m.account(cycles)
	return cycles
}

func (m *Machine) takeSwitchCycles() int {
	c := m.pendingSwitchCycles
	m.pendingSwitchCycles = 0
	return c
}

func (m *Machine) account(cycles int) {
	m.stats.Cycles += uint64(cycles)
	m.timesliceCount += cycles
}

// push loads a value onto the evaluation stack: "loading a value onto
// the evaluation stack pushes B into C, and A into B, before loading A"
// (paper, 3.2.9).
func (m *Machine) push(v uint64) {
	m.Creg = m.Breg
	m.Breg = m.Areg
	m.Areg = v & m.mask
}

// pop stores a value from A: "storing a value from A, pops B into A and
// C into B".
func (m *Machine) pop() uint64 {
	v := m.Areg
	m.Areg = m.Breg
	m.Breg = m.Creg
	return v
}

// wptr returns the current workspace pointer.
func (m *Machine) wptr() uint64 { return wptrOf(m.Wdesc) }

// execOne executes a single instruction and returns the cycles
// consumed, dispatching on a predecoded record when the block cache
// holds one for the current instruction pointer and falling back to
// the interpreted fetch/decode path otherwise.
func (m *Machine) execOne() int {
	if !m.noCache && m.Oreg == 0 {
		if b, idx := m.find(true); b != nil {
			return m.execRec(b, idx)
		}
	}
	return m.execOneSlow()
}

// execOneSlow fetches, decodes and executes a single instruction,
// including its prefix sequence, and returns the cycles consumed.
func (m *Machine) execOneSlow() int {
	cycles := 0
	bytes := 0
	startAddr := m.Iptr
	for {
		b := m.byteAt(m.Iptr)
		if m.halted {
			return cycles // fetch fault
		}
		m.Iptr = (m.Iptr + 1) & m.mask
		bytes++
		fn := isa.Function(b >> 4)
		data := uint64(b & 0xF)
		switch fn {
		case isa.FnPfix:
			m.Oreg = (m.Oreg | data) << 4 & m.mask
			cycles += isa.CyclesPerPrefix
			continue
		case isa.FnNfix:
			m.Oreg = ^(m.Oreg | data) << 4 & m.mask
			cycles += isa.CyclesPerPrefix
			continue
		default:
			operand := (m.Oreg | data) & m.mask
			m.Oreg = 0
			m.countInstr(bytes, int(fn))
			if m.trace != nil {
				m.trace(TraceEvent{
					Time: m.now(),
					Addr: startAddr, Wdesc: m.Wdesc,
					Areg: m.Areg, Breg: m.Breg, Creg: m.Creg,
					Instr: m.traceInstr(fn, operand, bytes), Cycles: m.stats.Cycles,
				})
			}
			if m.cfg.NoFetchBuffer {
				// Ablation: without the fetch buffer each instruction
				// byte costs an extra memory access cycle.
				cycles += bytes
			}
			cycles += m.execFunction(fn, operand)
			return cycles
		}
	}
}

// execFunction executes one direct function with its accumulated
// operand and returns its cycle cost.
func (m *Machine) execFunction(fn isa.Function, operand uint64) int {
	w := m.wptr()
	n := m.signed(operand)
	cycles := isa.FunctionCycles(fn)
	switch fn {
	case isa.FnJ:
		// jump: a descheduling point, where the timeslice is checked.
		m.Iptr = (m.Iptr + operand) & m.mask
		m.timesliceCheck()
	case isa.FnLdlp:
		m.push(m.index(w, int(n)))
	case isa.FnLdnl:
		m.Areg = m.word(m.index(m.Areg, int(n)))
	case isa.FnLdc:
		m.push(operand)
	case isa.FnLdnlp:
		m.Areg = m.index(m.Areg, int(n))
	case isa.FnLdl:
		m.push(m.word(m.index(w, int(n))))
	case isa.FnAdc:
		m.Areg = m.checkedAdd(m.Areg, operand)
	case isa.FnCall:
		// The evaluation stack contents and the return address are
		// stored in a new four-word frame; A receives the return
		// address so it can be passed as a static link.
		nw := m.index(w, -4)
		m.setWordIndex(nw, 0, m.Iptr)
		m.setWordIndex(nw, 1, m.Areg)
		m.setWordIndex(nw, 2, m.Breg)
		m.setWordIndex(nw, 3, m.Creg)
		m.Areg = m.Iptr
		m.Wdesc = nw | uint64(m.CurrentPriority())
		m.Iptr = (m.Iptr + operand) & m.mask
	case isa.FnCj:
		if m.Areg == 0 {
			m.Iptr = (m.Iptr + operand) & m.mask
			cycles += isa.CjTakenExtra
		} else {
			m.pop()
		}
	case isa.FnAjw:
		m.Wdesc = m.index(w, int(n)) | uint64(m.CurrentPriority())
	case isa.FnEqc:
		if m.Areg == operand {
			m.Areg = 1
		} else {
			m.Areg = 0
		}
	case isa.FnStl:
		m.setWord(m.index(w, int(n)), m.pop())
	case isa.FnStnl:
		addr := m.pop()
		m.setWord(m.index(addr, int(n)), m.pop())
	case isa.FnOpr:
		m.countOp(uint16(operand))
		cycles += m.execOp(isa.Op(operand))
	}
	return cycles
}

// stepLongOp advances an interruptible long operation by one
// installment (paper, 3.2.4: "the instructions which may take a long
// time to execute have been implemented to allow a switch during
// execution").
func (m *Machine) stepLongOp() int {
	lo := m.longOp
	switch {
	case lo.remaining > 0: // block move in progress
		chunk := lo.remaining
		if chunk > longOpChunkBytes {
			chunk = longOpChunkBytes
		}
		for i := 0; i < chunk; i++ {
			m.setByte((lo.dst+uint64(i))&m.mask, m.byteAt((lo.src+uint64(i))&m.mask))
		}
		lo.src = (lo.src + uint64(chunk)) & m.mask
		lo.dst = (lo.dst + uint64(chunk)) & m.mask
		lo.remaining -= chunk
		cycles := isa.MoveCycles(chunk, m.wordBits)
		if lo.overheadCharged {
			cycles -= 8 // fixed portion charged on the first installment only
		}
		lo.overheadCharged = true
		if lo.remaining == 0 {
			m.finishLongOp()
		}
		return cycles
	default: // cycle burn (tail of a long communication)
		chunk := lo.burnCycles
		if chunk > longOpChunkCycles {
			chunk = longOpChunkCycles
		}
		lo.burnCycles -= chunk
		if lo.burnCycles <= 0 {
			m.finishLongOp()
		}
		return chunk
	}
}

func (m *Machine) finishLongOp() {
	done := m.longOp.onDone
	m.longOp = nil
	if done != nil {
		done()
	}
}

// longOpChunkCycles bounds the uninterruptible slice of a burn-style
// long operation.
const longOpChunkCycles = 24
