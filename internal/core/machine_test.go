package core

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func testMachine(t *testing.T) *Machine {
	t.Helper()
	m, err := New(T424().WithMemory(16 * 1024))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigValidate(t *testing.T) {
	if _, err := New(Config{WordBits: 24, MemBytes: 4096}); err == nil {
		t.Error("24-bit word should be rejected")
	}
	if _, err := New(Config{WordBits: 32, MemBytes: 10}); err == nil {
		t.Error("tiny memory should be rejected")
	}
	if _, err := New(Config{WordBits: 32, MemBytes: 4095}); err == nil {
		t.Error("unaligned memory should be rejected")
	}
	if _, err := New(Config{WordBits: 16, MemBytes: 1 << 17}); err == nil {
		t.Error("16-bit machine with 128 KiB should be rejected")
	}
	if _, err := New(T424()); err != nil {
		t.Errorf("T424: %v", err)
	}
	if _, err := New(T222()); err != nil {
		t.Errorf("T222: %v", err)
	}
}

// TestBlockRecSize pins the predecoded record at 32 bytes.  Every
// decoded instruction is one, held once per code store (see
// CodeStore), so the record's size is most of the store's: a 48-byte
// record read about +1 % on the benchmark's allocation per run, whose
// bound is 2 %, and +4 % on its live heap before machines shared their
// code.  newCode copies each run out at its exact size for the same
// reason (append's doubling left up to half of a cache unused); a field
// added here has to fit, or be derived instead, as the next address is
// from addr and bytes.  The idiom byte, which marks an idiom's head
// (see fuse), fit when pre narrowed to a byte: a record's prefix chain
// is at most maxRecBytes-1 = 15 cycles.
func TestBlockRecSize(t *testing.T) {
	if n := unsafe.Sizeof(blockRec{}); n != 32 {
		t.Errorf("blockRec is %d bytes, want 32", n)
	}
}

// TestBlockSize pins a machine's handle on decoded code at 32 bytes:
// the code pointer, the two chain edges and the validity.  Every block
// of every machine is one; the handle it replaced, which held the code
// itself, was 96.
func TestBlockSize(t *testing.T) {
	if n := unsafe.Sizeof(block{}); n != 32 {
		t.Errorf("block is %d bytes, want 32", n)
	}
}

// TestMachineSize pins a machine within Go's 1 792-byte size class and
// its external transfer record at 32 bytes.  What only a preemption, a
// forced halt, the event channel or a probe bus uses moved behind the
// cold pointer (coldState), as did a transfer's probe-only instruction
// pointer and flow (xferTag); the eight records narrowed their count
// and end.  The machine was 2 120 bytes, in the 2 304-byte class, and
// a record 64; every node of an array is one machine.
func TestMachineSize(t *testing.T) {
	if n := unsafe.Sizeof(Machine{}); n > 1792 {
		t.Errorf("Machine is %d bytes, over 1792", n)
	}
	if n := unsafe.Sizeof(extXfer{}); n != 32 {
		t.Errorf("extXfer is %d bytes, want 32", n)
	}
}

func TestSignedAddressSpace(t *testing.T) {
	m := testMachine(t)
	// "Pointer values are treated as signed integers, starting from the
	// most negative integer" (paper, 3.2.2).
	mostNeg := uint64(0x80000000)
	if m.offset(mostNeg) != 0 {
		t.Errorf("offset(MOSTNEG) = %d, want 0", m.offset(mostNeg))
	}
	if m.addrOf(0) != mostNeg {
		t.Errorf("addrOf(0) = %#x", m.addrOf(0))
	}
	if m.MemStart() != mostNeg+uint64(reservedWords*4) {
		t.Errorf("MemStart = %#x", m.MemStart())
	}
	// Standard signed comparisons order addresses.
	if !(m.signed(mostNeg) < m.signed(m.MemStart())) {
		t.Error("MOSTNEG should compare below MemStart")
	}
}

func TestWordByteAccess(t *testing.T) {
	m := testMachine(t)
	addr := m.MemStart()
	m.setWord(addr, 0x12345678)
	if got := m.word(addr); got != 0x12345678 {
		t.Errorf("word = %#x", got)
	}
	// Little-endian byte order.
	if m.byteAt(addr) != 0x78 || m.byteAt(addr+3) != 0x12 {
		t.Errorf("bytes = %x %x", m.byteAt(addr), m.byteAt(addr+3))
	}
	m.setByte(addr+1, 0xFF)
	if got := m.word(addr); got != 0x1234FF78 {
		t.Errorf("after setByte word = %#x", got)
	}
}

func TestMemoryFaults(t *testing.T) {
	m := testMachine(t)
	m.word(m.MemStart() + 1) // misaligned
	if m.Fault() == nil || !m.Halted() || !m.ErrorFlag() {
		t.Error("misaligned word read should fault")
	}

	m2 := testMachine(t)
	m2.byteAt(m2.addrOf(uint64(m2.cfg.MemBytes))) // out of range
	if m2.Fault() == nil {
		t.Error("out-of-range byte read should fault")
	}
}

func TestStackPushPop(t *testing.T) {
	m := testMachine(t)
	m.push(1)
	m.push(2)
	m.push(3)
	if m.Areg != 3 || m.Breg != 2 || m.Creg != 1 {
		t.Errorf("stack = %d %d %d", m.Areg, m.Breg, m.Creg)
	}
	if v := m.pop(); v != 3 || m.Areg != 2 || m.Breg != 1 {
		t.Errorf("pop = %d, stack = %d %d", v, m.Areg, m.Breg)
	}
}

func TestSignedConversions(t *testing.T) {
	m := testMachine(t)
	cases := map[uint64]int64{
		0:          0,
		1:          1,
		0x7FFFFFFF: 2147483647,
		0x80000000: -2147483648,
		0xFFFFFFFF: -1,
	}
	for u, s := range cases {
		if got := m.signed(u); got != s {
			t.Errorf("signed(%#x) = %d, want %d", u, got, s)
		}
		if got := m.unsigned(s); got != u {
			t.Errorf("unsigned(%d) = %#x, want %#x", s, got, u)
		}
	}
}

func TestLaterWraps(t *testing.T) {
	m := testMachine(t)
	if !m.later(1, 0) || m.later(0, 1) || m.later(5, 5) {
		t.Error("later basic ordering wrong")
	}
	// Modular wrap: a clock just past wraparound is later than one just
	// before it.
	if !m.later(5, 0xFFFFFFF0) {
		t.Error("later should wrap")
	}
}

func TestCheckedArithmetic(t *testing.T) {
	m := testMachine(t)
	if m.checkedAdd(2, 3) != 5 || m.ErrorFlag() {
		t.Error("2+3")
	}
	m.checkedAdd(0x7FFFFFFF, 1)
	if !m.ErrorFlag() {
		t.Error("overflow should set error")
	}
	m.errorFlag = false
	m.checkedSub(0x80000000, 1)
	if !m.ErrorFlag() {
		t.Error("MOSTNEG-1 should overflow")
	}
	m.errorFlag = false
	if m.checkedMul(m.unsigned(-3), 7) != m.unsigned(-21) || m.ErrorFlag() {
		t.Error("-3*7")
	}
	m.checkedMul(0x40000000, 4)
	if !m.ErrorFlag() {
		t.Error("mul overflow should set error")
	}
	m.errorFlag = false
	if m.checkedDiv(m.unsigned(-7), m.unsigned(2)) != m.unsigned(-3) {
		t.Error("-7/2 should truncate toward zero")
	}
	m.checkedDiv(1, 0)
	if !m.ErrorFlag() {
		t.Error("divide by zero should set error")
	}
	m.errorFlag = false
	m.checkedDiv(m.signBit, m.mask) // MOSTNEG / -1
	if !m.ErrorFlag() {
		t.Error("MOSTNEG/-1 should set error")
	}
	m.errorFlag = false
	if m.checkedRem(m.unsigned(-7), m.unsigned(2)) != m.unsigned(-1) {
		t.Error("-7 rem 2")
	}
}

// TestArithmeticAgainstReference cross-checks checked arithmetic
// against 64-bit host arithmetic on random operands.
func TestArithmeticAgainstReference(t *testing.T) {
	m := testMachine(t)
	f := func(a, b int32) bool {
		m.errorFlag = false
		m.halted = false
		got := m.checkedAdd(m.unsigned(int64(a)), m.unsigned(int64(b)))
		sum := int64(a) + int64(b)
		if sum >= -(1<<31) && sum < 1<<31 {
			return !m.errorFlag && m.signed(got) == sum
		}
		return m.errorFlag
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	g := func(a, b int32) bool {
		m.errorFlag = false
		m.halted = false
		got := m.checkedMul(m.unsigned(int64(a)), m.unsigned(int64(b)))
		p := int64(a) * int64(b)
		if p >= -(1<<31) && p < 1<<31 {
			return !m.errorFlag && m.signed(got) == p
		}
		return m.errorFlag
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestLongArithmetic(t *testing.T) {
	m := testMachine(t)
	sum, carry := m.longSum(0xFFFFFFFF, 1, 0)
	if sum != 0 || carry != 1 {
		t.Errorf("lsum = %#x carry %d", sum, carry)
	}
	diff, borrow := m.longDiff(0, 1, 0)
	if diff != 0xFFFFFFFF || borrow != 1 {
		t.Errorf("ldiff = %#x borrow %d", diff, borrow)
	}
	lo, hi := m.longMul(0x10000, 0x10000, 0)
	if lo != 0 || hi != 1 {
		t.Errorf("lmul = %#x:%#x", hi, lo)
	}
	q, r := m.longDivStep(1, 0, 0x10000)
	if q != 0x10000 || r != 0 {
		t.Errorf("ldiv = %#x rem %#x", q, r)
	}
	m.errorFlag = false
	m.longDivStep(5, 0, 5) // hi >= divisor: quotient overflow
	if !m.ErrorFlag() {
		t.Error("ldiv overflow should set error")
	}
}

func TestNormalise(t *testing.T) {
	m := testMachine(t)
	lo, hi, n := m.normalise(0, 1)
	if hi != 0x80000000 || lo != 0 || n != 31+32 {
		t.Errorf("normalise(0,1) = %#x:%#x shift %d", hi, lo, n)
	}
	lo, hi, n = m.normalise(0x80000000, 123)
	if n != 0 || hi != 0x80000000 || lo != 123 {
		t.Errorf("already normalised: %#x:%#x shift %d", hi, lo, n)
	}
	_, _, n = m.normalise(0, 0)
	if n != 64 {
		t.Errorf("normalise(0,0) shift = %d, want 64", n)
	}
}

func TestQueueOperations(t *testing.T) {
	m := testMachine(t)
	w1 := m.MemStart() + 40*4
	w2 := m.MemStart() + 80*4
	w3 := m.MemStart() + 120*4
	np := m.notProcess()

	if m.dequeue(PriorityLow) != np {
		t.Error("empty queue should return notProcess")
	}
	m.enqueue(w1 | PriorityLow)
	m.enqueue(w2 | PriorityLow)
	m.enqueue(w3 | PriorityLow)
	if got := m.dequeue(PriorityLow); got != w1|PriorityLow {
		t.Errorf("dequeue 1 = %#x", got)
	}
	if got := m.dequeue(PriorityLow); got != w2|PriorityLow {
		t.Errorf("dequeue 2 = %#x", got)
	}
	if got := m.dequeue(PriorityLow); got != w3|PriorityLow {
		t.Errorf("dequeue 3 = %#x", got)
	}
	if m.dequeue(PriorityLow) != np {
		t.Error("queue should be empty again")
	}
}

// TestQueueFIFOProperty: random interleavings of enqueue/dequeue keep
// FIFO order per priority.
func TestQueueFIFOProperty(t *testing.T) {
	f := func(ops []bool) bool {
		m, err := New(T424().WithMemory(64 * 1024))
		if err != nil {
			return false
		}
		next := uint64(0)
		var model []uint64
		for _, isEnq := range ops {
			if isEnq {
				w := m.MemStart() + 64*4*(next+1)
				next++
				if int(m.offset(w))+64 >= m.cfg.MemBytes {
					continue
				}
				m.enqueue(w | PriorityLow)
				model = append(model, w|PriorityLow)
			} else {
				got := m.dequeue(PriorityLow)
				if len(model) == 0 {
					if got != m.notProcess() {
						return false
					}
				} else {
					if got != model[0] {
						return false
					}
					model = model[1:]
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLinkChannelAddresses(t *testing.T) {
	m := testMachine(t)
	m.MapVChan(m.VChanOutAddr(2, 5), 2, 5, true)
	type want struct {
		addr uint64
		end  End
		out  bool
	}
	var cases []want
	for i := 0; i < NumLinks; i++ {
		cases = append(cases,
			want{m.LinkOutAddr(i), End(i), true},
			want{m.LinkInAddr(i), End(i), false})
	}
	cases = append(cases, want{m.VChanOutAddr(2, 5), VChanEnd(2, 5), true})
	for _, c := range cases {
		if x := m.externalEnd(c.addr); x == nil || x.end != c.end || x.output != c.out {
			t.Errorf("%#x decodes to %+v, want end %d (link %d vchan %d) out=%v", c.addr, x, c.end, c.end.Link(), c.end.VC(), c.out)
		}
	}
	for _, addr := range []uint64{m.MemStart(), m.EventAddr(), m.VChanInAddr(2, 5)} {
		if x := m.externalEnd(addr); x != nil {
			t.Errorf("%#x is not an external channel end, decodes to %+v", addr, x)
		}
	}
}

func TestLoadTooBig(t *testing.T) {
	m, _ := New(T424()) // 4 KiB
	img := Image{Code: make([]byte, 5000)}
	if err := m.Load(img); err == nil {
		t.Error("oversized image should fail to load")
	}
}
