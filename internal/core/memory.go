package core

import (
	"encoding/binary"
	"fmt"
)

// The memory address space comprises a signed linear address space
// (paper, 3.2.2).  A pointer is a word address plus a byte selector in
// its least significant bits.  Addresses start at the most negative
// integer, so the unsigned offset of an address is obtained by flipping
// the sign bit.
//
// The first words of memory are reserved, in order: the four link output
// channel words, the four link input channel words, and the event
// channel word; the remainder of the reserved area is the register save
// space used on priority switches.  MemStart is the first word available
// to programs.
//
// Config.MemBytes is the address limit; the host backs only a prefix of
// it (Machine.mem): what the loaded program covers, and whatever is
// written above that.  The accessors test an address against the
// backing alone, and only an access that fails that test asks whether
// it lies in unbacked memory — zero to a read, grown into by a write —
// or faults (see unbacked).

// Reserved word indices from MOSTNEG.
const (
	wordLink0Out = 0
	wordLink0In  = 4
	wordEvent    = 8
	// reservedWords is the size of the whole reserved area.
	reservedWords = 16
)

// Workspace slots below the workspace pointer, in words (the standard
// transputer layout).
const (
	wsIptr    = -1 // saved instruction pointer of a descheduled process
	wsLink    = -2 // next process on the scheduling list
	wsState   = -3 // ALT state, or the message pointer while blocked
	wsPointer = -3 // alias: saved buffer pointer
	wsTLink   = -4 // timer queue link / timer ALT state
	wsTime    = -5 // wakeup time
)

// A MemoryFault describes an out-of-range or misaligned access.  The
// real processor performs no access checking ("there is also no need for
// the hardware to perform access checking on every memory reference");
// the simulator reports the fault, sets the error flag and halts so that
// bugs surface instead of corrupting the simulation.
type MemoryFault struct {
	Machine string
	Op      string
	Addr    uint64
}

func (f *MemoryFault) Error() string {
	return fmt.Sprintf("%s: memory fault: %s at address %#x", f.Machine, f.Op, f.Addr)
}

// offset converts a machine address into an index into the memory array:
// flipping the sign bit maps MOSTNEG..MOSTPOS onto 0..2^w-1.
func (m *Machine) offset(addr uint64) uint64 {
	return (addr ^ m.signBit) & m.mask
}

// addrOf converts a memory array index back into a machine address.
func (m *Machine) addrOf(offset uint64) uint64 {
	return (offset ^ m.signBit) & m.mask
}

// MemStart returns the first program-usable address.
func (m *Machine) MemStart() uint64 {
	return m.addrOf(uint64(reservedWords * m.bpw))
}

// LinkOutAddr returns the channel address of link i's output channel.
func (m *Machine) LinkOutAddr(i int) uint64 {
	return m.addrOf(uint64((wordLink0Out + i) * m.bpw))
}

// LinkInAddr returns the channel address of link i's input channel.
func (m *Machine) LinkInAddr(i int) uint64 {
	return m.addrOf(uint64((wordLink0In + i) * m.bpw))
}

// EventAddr returns the event channel address.
func (m *Machine) EventAddr() uint64 {
	return m.addrOf(uint64(wordEvent * m.bpw))
}

// externalEnd decodes a channel word naming an external channel end —
// a mapped vchan word, else one of the eight link words — to the record
// of the transfer on that end, which names the end and its direction;
// nil for any other word.
func (m *Machine) externalEnd(addr uint64) *extXfer {
	if m.vchans != nil {
		if x, ok := m.vchans[addr&m.mask]; ok {
			return x
		}
	}
	off := m.offset(addr)
	if off&uint64(m.bpw-1) != 0 || off >= uint64(wordEvent*m.bpw) {
		return nil
	}
	w := int(off >> m.byteSelectorBits())
	if w >= wordLink0In {
		return &m.xfers[w-wordLink0In][0]
	}
	return &m.xfers[w][1]
}

func (m *Machine) fault(op string, addr uint64) {
	if m.faulted == nil {
		m.faulted = &MemoryFault{Machine: m.cfg.Name, Op: op, Addr: addr}
	}
	m.setError()
	m.halted = true
}

// word reads the word at a word-aligned address.  Words are little
// endian, and a word is 2 or 4 bytes (Config.validate), so alignment is
// a mask test.
func (m *Machine) word(addr uint64) uint64 {
	off := m.offset(addr)
	if off&uint64(m.bpw-1) != 0 || off+uint64(m.bpw) > uint64(len(m.mem)) {
		if !m.unbacked(off, uint64(m.bpw)) {
			m.fault("read word", addr)
		}
		return 0
	}
	if m.bpw == 4 {
		return uint64(binary.LittleEndian.Uint32(m.mem[off:]))
	}
	return uint64(binary.LittleEndian.Uint16(m.mem[off:]))
}

// setWord writes the word at a word-aligned address.
func (m *Machine) setWord(addr, v uint64) {
	off := m.offset(addr)
	if off&uint64(m.bpw-1) != 0 || off+uint64(m.bpw) > uint64(len(m.mem)) {
		m.writeOutside(addr, v, uint64(m.bpw))
		return
	}
	if m.bc != nil && off < m.bc.hi && off+uint64(m.bpw) > m.bc.lo {
		m.noteCodeWrite(off, uint64(m.bpw))
	}
	if m.bpw == 4 {
		binary.LittleEndian.PutUint32(m.mem[off:], uint32(v))
	} else {
		binary.LittleEndian.PutUint16(m.mem[off:], uint16(v))
	}
}

// byteAt reads the byte at any address.
func (m *Machine) byteAt(addr uint64) byte {
	off := m.offset(addr)
	if off >= uint64(len(m.mem)) {
		if off >= uint64(m.cfg.MemBytes) {
			m.fault("read byte", addr)
		}
		return 0
	}
	return m.mem[off]
}

// setByte writes the byte at any address.
func (m *Machine) setByte(addr uint64, v byte) {
	off := m.offset(addr)
	if off >= uint64(len(m.mem)) {
		m.writeOutside(addr, uint64(v), 1)
		return
	}
	if m.bc != nil && off < m.bc.hi && off >= m.bc.lo {
		m.noteCodeWrite(off, 1)
	}
	m.mem[off] = v
}

// unbacked reports whether an access of n bytes at offset off, refused
// by the backing's bounds or alignment test, is an aligned one below
// MemBytes: to memory the backing does not cover yet, which reads as
// zero and which a write first grows the backing over.  Anything else
// faults.
func (m *Machine) unbacked(off, n uint64) bool {
	return off&(n-1) == 0 && off+n <= uint64(m.cfg.MemBytes)
}

// writeOutside takes a write of n bytes at addr that setWord or setByte
// refused: into unbacked memory it grows the backing and writes again,
// and anything else faults.  Writing again keeps the writers' fast
// paths free of values saved for after the growth.  The backing
// doubles, capped at MemBytes, so a program writing its way up memory
// copies each byte a bounded number of times.
func (m *Machine) writeOutside(addr, v, n uint64) {
	off := m.offset(addr)
	if !m.unbacked(off, n) {
		op := "write word"
		if n == 1 {
			op = "write byte"
		}
		m.fault(op, addr)
		return
	}
	size := uint64(len(m.mem))
	for size < off+n {
		size *= 2
	}
	m.resize(min(size, uint64(m.cfg.MemBytes)))
	if n == 1 {
		m.setByte(addr, byte(v))
	} else {
		m.setWord(addr, v)
	}
}

// resize replaces the backing with a zeroed one of n bytes holding the
// old contents; n is never less than the old length.
func (m *Machine) resize(n uint64) {
	mem := make([]byte, n)
	copy(mem, m.mem)
	m.mem = mem
}

// wordIndex reads the word at base + i words.
func (m *Machine) wordIndex(base uint64, i int) uint64 {
	return m.word(m.index(base, i))
}

// setWordIndex writes the word at base + i words.
func (m *Machine) setWordIndex(base uint64, i int, v uint64) {
	m.setWord(m.index(base, i), v)
}

// index computes base + i words, wrapping in the word-sized address
// space.
func (m *Machine) index(base uint64, i int) uint64 {
	return (base + uint64(int64(i)*int64(m.bpw))) & m.mask
}

// ReadBytes copies n bytes starting at addr into a fresh slice; used by
// the vchan multiplexer and by tests.
func (m *Machine) ReadBytes(addr uint64, n int) []byte {
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		out[i] = m.byteAt((addr + uint64(i)) & m.mask)
	}
	return out
}

// ByteAt reads the byte at addr, wrapped into the address space like
// ReadBytes; the link engine fetches each transmitted byte through it,
// so sending allocates nothing.
func (m *Machine) ByteAt(addr uint64) byte { return m.byteAt(addr & m.mask) }

// SetByteAt stores one received byte at addr, wrapped like WriteBytes
// (and, like it, invalidating any predecoded code the byte lands in).
func (m *Machine) SetByteAt(addr uint64, v byte) { m.setByte(addr&m.mask, v) }

// WriteBytes stores b starting at addr; used by the vchan multiplexer,
// the loader and tests.
func (m *Machine) WriteBytes(addr uint64, b []byte) {
	for i, v := range b {
		m.setByte((addr+uint64(i))&m.mask, v)
	}
}

// ReadWord exposes word for inspection by tests and tools.
func (m *Machine) ReadWord(addr uint64) uint64 { return m.word(addr) }

// WriteWord exposes setWord for loaders and tests.
func (m *Machine) WriteWord(addr, v uint64) { m.setWord(addr, v) }
