package core_test

import (
	"strings"
	"testing"

	"transputer/internal/core"
	"transputer/internal/sim"
)

// Exec-level coverage of the indirect operations, via small assembled
// programs.  runSrc and assemble live in exec_test.go.

func TestLongArithmeticOps(t *testing.T) {
	// lsum: 0xFFFFFFFF + 1 + carry 0 = sum 0, carry 1.
	m := runSrc(t, `
	ldc 0          -- carry (C after loads)
	mint
	adc -1         -- B = 0x7FFFFFFF? no: mint=0x80000000; adc -1 -> 0x7FFFFFFF
	ldc 1
	rev
	stl 5          -- scratch shuffle; rebuild cleanly below
	stopp
`)
	_ = m
	// Build the stack precisely: lsum expects C=carry, B=left, A=right.
	m = runSrc(t, `
	ldc 0          -- carry -> will end in C
	nfix 0
	ldc 15         -- -1 = 0xFFFFFFFF ... via ldc -1
	ldc 1
	lsum
	stl 2          -- B (carry out) second
	stl 1          -- careful: stl pops A first
	stopp
`)
	// Note: after lsum A=sum, B=carryOut; first stl stores sum.
	if m.Local(2) != 0 {
		t.Errorf("lsum sum = %#x, want 0", m.Local(2))
	}
	if m.Local(1) != 1 {
		t.Errorf("lsum carry = %d, want 1", m.Local(1))
	}
}

func TestLongMulDiv(t *testing.T) {
	// lmul: 0x10000 * 0x10000 + 0 = hi 1, lo 0.
	m := runSrc(t, `
	ldc 0          -- C addend
	ldc #10000
	ldc #10000
	lmul
	stl 1          -- lo
	stl 2          -- hi
	stopp
`)
	if m.Local(1) != 0 || m.Local(2) != 1 {
		t.Errorf("lmul = lo %#x hi %#x", m.Local(1), m.Local(2))
	}
	// ldiv: (1:0) / 0x10000 = 0x10000 rem 0.  C=lo, B=hi, A=divisor.
	m = runSrc(t, `
	ldc 0          -- lo
	ldc 1          -- hi
	ldc #10000     -- divisor
	ldiv
	stl 1          -- quotient
	stl 2          -- remainder
	stopp
`)
	if m.Local(1) != 0x10000 || m.Local(2) != 0 {
		t.Errorf("ldiv = q %#x r %#x", m.Local(1), m.Local(2))
	}
}

func TestLongShifts(t *testing.T) {
	// lshl: pair hi=0,lo=1 shifted left 33 places -> hi=2, lo=0.
	m := runSrc(t, `
	ldc 1          -- lo (C)
	ldc 0          -- hi (B)
	ldc 33         -- count (A)
	lshl
	stl 1          -- lo out
	stl 2          -- hi out
	stopp
`)
	if m.Local(1) != 0 || m.Local(2) != 2 {
		t.Errorf("lshl = lo %#x hi %#x", m.Local(1), m.Local(2))
	}
	m = runSrc(t, `
	ldc 0          -- lo
	ldc 2          -- hi
	ldc 33         -- count
	lshr
	stl 1
	stl 2
	stopp
`)
	if m.Local(1) != 1 || m.Local(2) != 0 {
		t.Errorf("lshr = lo %#x hi %#x", m.Local(1), m.Local(2))
	}
}

func TestNormOp(t *testing.T) {
	// norm: A=lo, B=hi; result A=lo', B=hi', C=places.
	m := runSrc(t, `
	ldc 0          -- hi (ends in B)
	ldc 1          -- lo (ends in A)
	norm
	stl 1          -- lo out
	stl 2          -- hi out
	stl 3          -- places
	stopp
`)
	if m.Local(2) != 0x80000000 || m.Local(1) != 0 {
		t.Errorf("norm pair = hi %#x lo %#x", m.Local(2), m.Local(1))
	}
	if m.Local(3) != 63 {
		t.Errorf("norm places = %d, want 63", m.Local(3))
	}
}

func TestExtendOps(t *testing.T) {
	// xdble: extend -5 to double: lo=-5, hi=-1.
	m := runSrc(t, `
	ldc -5
	xdble
	stl 1          -- lo
	stl 2          -- hi
	stopp
`)
	if int32(m.Local(1)) != -5 || m.Local(2) != 0xFFFFFFFF {
		t.Errorf("xdble = lo %#x hi %#x", m.Local(1), m.Local(2))
	}
	// xword: sign-extend 0xFF from bit 0x80 -> -1.
	m = runSrc(t, `
	ldc #FF        -- value (B after next load)
	ldc #80        -- sign bit position (A)
	xword
	stl 1
	stopp
`)
	if int32(m.Local(1)) != -1 {
		t.Errorf("xword(#FF) = %d, want -1", int32(m.Local(1)))
	}
	// csngl on a consistent double passes and keeps the low word.
	m = runSrc(t, `
	ldc -7
	xdble
	csngl
	stl 1
	stopp
`)
	if int32(m.Local(1)) != -7 || m.ErrorFlag() {
		t.Errorf("csngl = %d err=%v", int32(m.Local(1)), m.ErrorFlag())
	}
	// csngl on an inconsistent double sets the error flag.
	m = runSrc(t, `
	ldc 1          -- lo
	ldc 5          -- hi (inconsistent)
	csngl
	stl 1
	stopp
`)
	if !m.ErrorFlag() {
		t.Error("csngl of wide value should set error")
	}
}

func TestChecksOps(t *testing.T) {
	// csub0 within bounds: no error, index survives.
	m := runSrc(t, `
	ldc 3          -- index (B)
	ldc 10         -- bound (A)
	csub0
	stl 1
	stopp
`)
	if m.Local(1) != 3 || m.ErrorFlag() {
		t.Errorf("csub0 ok case: %d err=%v", m.Local(1), m.ErrorFlag())
	}
	m = runSrc(t, `
	ldc 10
	ldc 10
	csub0
	stl 1
	stopp
`)
	if !m.ErrorFlag() {
		t.Error("csub0 out of bounds should set error")
	}
	// ccnt1: count in 1..bound passes; 0 fails.
	m = runSrc(t, `
	ldc 0
	ldc 10
	ccnt1
	stl 1
	stopp
`)
	if !m.ErrorFlag() {
		t.Error("ccnt1 of zero should set error")
	}
	// cword: value fits a byte.
	m = runSrc(t, `
	ldc 100        -- value
	ldc #80        -- byte sign bit
	cword
	stl 1
	stopp
`)
	if m.Local(1) != 100 || m.ErrorFlag() {
		t.Errorf("cword(100) = %d err=%v", m.Local(1), m.ErrorFlag())
	}
	m = runSrc(t, `
	ldc 300
	ldc #80
	cword
	stl 1
	stopp
`)
	if !m.ErrorFlag() {
		t.Error("cword(300, byte) should set error")
	}
}

func TestPointerOps(t *testing.T) {
	m := runSrc(t, `
	ldc 5
	bcnt           -- 5 words -> 20 bytes
	stl 1
	ldlp 7
	wcnt           -- split pointer: word part, byte selector
	stl 2          -- word part
	stl 3          -- byte selector
	stopp
`)
	if m.Local(1) != 20 {
		t.Errorf("bcnt(5) = %d, want 20", m.Local(1))
	}
	if m.Local(3) != 0 {
		t.Errorf("byte selector = %d, want 0 (word aligned)", m.Local(3))
	}
}

func TestGcallGajw(t *testing.T) {
	// gcall swaps A and the instruction pointer: calling a routine by
	// address, which returns the same way.  After the return, A holds
	// the routine's address remnant and B the routine's result.
	m := runSrc(t, `
	ldpi target
	gcall
after:
	stl 0          -- discard the swapped-back address
	stl 2          -- the routine's 77
	stopp
target:
	ldc 77
	rev            -- return address back to A, result to B
	gcall
`)
	if m.Local(2) != 77 {
		t.Errorf("gcall round trip left %d, want 77", m.Local(2))
	}
}

func TestRevAndDup(t *testing.T) {
	m := runSrc(t, `
	ldc 1
	ldc 2
	rev
	stl 1          -- A after rev = 1
	stl 2          -- then 2
	stopp
`)
	if m.Local(1) != 1 || m.Local(2) != 2 {
		t.Errorf("rev: %d %d", m.Local(1), m.Local(2))
	}
}

func TestErrorOps(t *testing.T) {
	m := runSrc(t, `
	seterr
	testerr        -- pushes false (error was set) and clears
	stl 1
	testerr        -- now clear: pushes true
	stl 2
	stopp
`)
	if m.Local(1) != 0 || m.Local(2) != 1 {
		t.Errorf("testerr: %d %d", m.Local(1), m.Local(2))
	}
	if m.ErrorFlag() {
		t.Error("testerr should have cleared the flag")
	}
	// sethalterr makes a later error halt the machine.
	m2 := core.MustNew(core.T424().WithMemory(64 * 1024))
	img := assemble(t, `
	sethalterr
	testhalterr
	stl 1
	mint
	adc -1         -- overflow -> error -> halt
	ldc 9
	stl 2          -- never reached
	stopp
`)
	if err := m2.Load(img); err != nil {
		t.Fatal(err)
	}
	core.Run(m2, sim.Millisecond)
	if !m2.Halted() {
		t.Error("machine should halt on error with halt-on-error set")
	}
	if m2.Local(1) != 1 {
		t.Errorf("testhalterr = %d, want 1", m2.Local(1))
	}
	if m2.Local(2) == 9 {
		t.Error("execution continued past the halting error")
	}
}

func TestQueueRegisterOps(t *testing.T) {
	// savel stores the low-priority queue registers (empty: NotProcess).
	m := runSrc(t, `
	ldlp 4
	savel
	ldl 4
	mint
	diff           -- Fptr - NotProcess == 0 when queue empty
	stl 1
	stopp
`)
	if m.Local(1) != 0 {
		t.Errorf("savel front pointer delta = %#x, want 0", m.Local(1))
	}
}

func TestResetch(t *testing.T) {
	m := runSrc(t, `
	mint
	stl 3          -- channel := NotProcess
	ldlp 3
	resetch
	mint
	diff           -- old contents - NotProcess
	stl 1
	stopp
`)
	if m.Local(1) != 0 {
		t.Errorf("resetch returned %#x, want NotProcess", m.Local(1))
	}
}

// TestTimeslicing: two low-priority loops must share the processor via
// the timeslice mechanism at descheduling points.
func TestTimeslicing(t *testing.T) {
	cfg := core.T424().WithMemory(64 * 1024)
	cfg.TimesliceCycles = 200 // very short for the test
	m := core.MustNew(cfg)
	img := assemble(t, `
	ldpi other
	ldlp -40
	stnl -1
	ldlp -40
	adc 1          -- low priority descriptor
	runp
	; process 1: increment local 1 forever
loop1:
	ldl 1
	adc 1
	stl 1
	j loop1
other:
	; process 2 body (workspace 40 below): increment its local forever
loop2:
	ldl 1
	adc 1
	stl 1
	j loop2
`)
	if err := m.Load(img); err != nil {
		t.Fatal(err)
	}
	res := core.Run(m, 2*sim.Millisecond)
	if res.Settled {
		t.Fatal("looping processes should not settle")
	}
	st := m.Stats()
	if st.Timeslices == 0 {
		t.Error("expected timeslice switches between the two loops")
	}
	// Both processes made progress.
	p1 := m.Local(1)
	p2 := m.ReadWord(m.EntryWptr() - 40*4 + 1*4)
	if p1 == 0 || p2 == 0 {
		t.Errorf("progress: p1=%d p2=%d", p1, p2)
	}
	ratio := float64(p1) / float64(p2)
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("unfair scheduling: p1=%d p2=%d", p1, p2)
	}
}

// TestHaltOnErrorConfig: the machine-level halt-on-error switch.
func TestHaltOnErrorConfig(t *testing.T) {
	cfg := core.T424().WithMemory(64 * 1024)
	cfg.HaltOnError = true
	m := core.MustNew(cfg)
	img := assemble(t, "\tmint\n\tadc -1\n\tldc 5\n\tstl 1\n\tstopp\n")
	if err := m.Load(img); err != nil {
		t.Fatal(err)
	}
	core.Run(m, sim.Millisecond)
	if !m.Halted() || m.Local(1) == 5 {
		t.Error("HaltOnError config should stop at the overflow")
	}
}

// TestOutbyteTransfersOneByte: output byte sends a single byte.
func TestOutbyteTransfersOneByte(t *testing.T) {
	m := runSrc(t, `
	mint
	stl 3
	ldc 2
	stl 1
	ldpi cont
	stl 0
	ldc child-after
	ldlp -40
	startp
after:
	ajw -20
	ldc #AB
	ldlp 23
	outbyte
	ldlp 20
	endp
child:
	ldc 0
	stl 3
	ldlp 3
	ldlp 43
	ldc 1
	in
	ldl 3
	stl 44
	ldlp 40
	endp
cont:
	stopp
`)
	if m.Local(4) != 0xAB {
		t.Errorf("outbyte sent %#x, want #AB", m.Local(4))
	}
	st := m.Stats()
	if st.BytesIn != 1 {
		t.Errorf("bytes in = %d, want 1", st.BytesIn)
	}
}

func TestTraceHook(t *testing.T) {
	m := core.MustNew(core.T424().WithMemory(16 * 1024))
	img := assemble(t, "\tldc 7\n\tstl 1\n\tstopp\n")
	if err := m.Load(img); err != nil {
		t.Fatal(err)
	}
	var events []core.TraceEvent
	m.SetTrace(func(e core.TraceEvent) { events = append(events, e) })
	core.Run(m, sim.Millisecond)
	if len(events) != 3 {
		t.Fatalf("traced %d events, want 3", len(events))
	}
	if !strings.Contains(events[0].Instr.String(), "load constant 7") {
		t.Errorf("event 0 = %q", events[0].Instr.String())
	}
	if !strings.Contains(events[2].Instr.String(), "stop process") {
		t.Errorf("event 2 = %q", events[2].Instr.String())
	}
	var sb strings.Builder
	tw, flush := core.TraceWriter(&sb)
	for _, e := range events {
		tw(e)
	}
	if err := flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "store local 1") {
		t.Errorf("trace listing:\n%s", sb.String())
	}
}
