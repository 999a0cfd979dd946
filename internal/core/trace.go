package core

import (
	"bufio"
	"fmt"
	"io"

	"transputer/internal/isa"
	"transputer/internal/sim"
)

// TraceEvent describes one instruction about to execute.
type TraceEvent struct {
	// Time is the simulated instant of the event, so instruction traces
	// can be correlated with scheduler and link activity on the probe
	// bus (zero when no clock is attached).
	Time sim.Time
	// Addr is the address of the instruction's first byte (including
	// prefixes).
	Addr uint64
	// Wdesc identifies the executing process (workspace | priority).
	Wdesc uint64
	// The evaluation stack before execution.
	Areg, Breg, Creg uint64
	// Instr is the decoded instruction, its operand the machine's
	// operand register read as a signed word: the value isa.Decode
	// gives for the same bytes, whatever the word length.
	Instr isa.Instr
	// Cycles is the machine's cycle counter before execution.
	Cycles uint64
}

// Trace receives every executed instruction while attached.
type Trace func(TraceEvent)

// SetTrace attaches (or with nil, detaches) an instruction tracer.
// Tracing is for debugging and does not alter timing.
func (m *Machine) SetTrace(fn Trace) { m.trace = fn }

// traceInstr is the instruction a TraceEvent carries: fn with the
// accumulated operand sign-extended from the word, size bytes long.
func (m *Machine) traceInstr(fn isa.Function, operand uint64, size int) isa.Instr {
	return isa.Instr{Fn: fn, Operand: m.signed(operand), Size: size}
}

// TraceWriter returns a Trace writing one line per instruction to w —
// simulated time, cycle count, process, address, stack and the full
// instruction name — and a flush function that must be called when the
// run ends.  Lines are buffered: a write per instruction dominated
// trace-enabled runs.
func TraceWriter(w io.Writer) (Trace, func() error) {
	bw := bufio.NewWriterSize(w, 64*1024)
	return func(e TraceEvent) {
		fmt.Fprintf(bw, "%12v %10d  W=%08X  %08X  A=%08X B=%08X C=%08X  %s\n",
			e.Time, e.Cycles, e.Wdesc, e.Addr, e.Areg, e.Breg, e.Creg, e.Instr)
	}, bw.Flush
}
