package core_test

import (
	"fmt"
	"runtime"
	"testing"

	"transputer/internal/core"
	"transputer/internal/raceflag"
)

// Memory is backed lazily: from offset 0 up to what the loaded program
// covers, and beyond that only once something writes there.  Every
// address below MemBytes must still behave as it did when all of memory
// was allocated up front.

// boundaryMachine is a 16 KiB machine of the given word size with a
// two-byte program loaded, so most of its memory is unbacked.
func boundaryMachine(t *testing.T, wordBytes int) *core.Machine {
	t.Helper()
	cfg := core.T424()
	if wordBytes == 2 {
		cfg = core.T222()
	}
	m := core.MustNew(cfg.WithMemory(16 * 1024))
	if err := m.Load(core.Image{Code: []byte{0x24, 0xF0}, WsBelow: 16, WsAbove: 16}); err != nil {
		t.Fatal(err)
	}
	if core.BackedBytes(m) >= 1024 {
		t.Fatalf("a 2-byte program is backed by %d bytes", core.BackedBytes(m))
	}
	return m
}

// addrAt is the machine address of memory offset off.
func addrAt(m *core.Machine, off int) uint64 {
	mask := uint64(1)<<m.WordBits() - 1
	return (m.LinkOutAddr(0) + uint64(off)) & mask
}

func TestLazyMemoryBoundary(t *testing.T) {
	for _, wb := range []int{4, 2} {
		t.Run(fmt.Sprintf("%d-byte words", wb), func(t *testing.T) {
			size := 16 * 1024
			last := addrAt(boundaryMachine(t, wb), size-wb)

			m := boundaryMachine(t, wb)
			backed := core.BackedBytes(m)
			if v := m.ReadWord(last); v != 0 || m.Fault() != nil {
				t.Fatalf("last word reads %#x before any write, fault %v", v, m.Fault())
			}
			if m.ByteAt(last) != 0 || core.BackedBytes(m) != backed {
				t.Fatalf("reading unbacked memory grew the backing from %d to %d bytes", backed, core.BackedBytes(m))
			}
			m.WriteWord(last, 0x1234)
			if v := m.ReadWord(last); v != 0x1234 || m.Fault() != nil {
				t.Fatalf("last word reads %#x after writing 0x1234, fault %v", v, m.Fault())
			}
			if core.BackedBytes(m) != size {
				t.Errorf("writing the last word backs %d bytes, want all %d", core.BackedBytes(m), size)
			}

			// Past the end of memory every access faults, with the message
			// it had when all of memory was backed.
			end, odd := addrAt(m, size), last-1
			for _, tc := range []struct {
				op     string
				addr   uint64
				access func(m *core.Machine)
			}{
				{"read byte", end, func(m *core.Machine) { m.ByteAt(end) }},
				{"write byte", end, func(m *core.Machine) { m.SetByteAt(end, 1) }},
				{"read word", end, func(m *core.Machine) { m.ReadWord(end) }},
				{"write word", end, func(m *core.Machine) { m.WriteWord(end, 1) }},
				// Misaligned in unbacked memory: a fault, not a zero or a
				// growth.
				{"read word", odd, func(m *core.Machine) { m.ReadWord(odd) }},
				{"write word", odd, func(m *core.Machine) { m.WriteWord(odd, 1) }},
			} {
				m := boundaryMachine(t, wb)
				backed := core.BackedBytes(m)
				tc.access(m)
				if core.BackedBytes(m) != backed {
					t.Errorf("%s at %#x: a faulting access grew the backing", tc.op, tc.addr)
				}
				want := fmt.Sprintf("%s: memory fault: %s at address %#x", m.Name(), tc.op, tc.addr)
				if err := m.Fault(); err == nil || err.Error() != want || !m.Halted() {
					t.Errorf("fault %v (halted %v), want %q", err, m.Halted(), want)
				}
			}

			// A link delivers a byte into unbacked memory.
			m = boundaryMachine(t, wb)
			mid := addrAt(m, size/2)
			m.SetByteAt(mid+1, 0xA5)
			if got := m.ReadWord(mid); got != 0xA500 || m.Fault() != nil {
				t.Errorf("word after a link byte landed = %#x, fault %v", got, m.Fault())
			}
		})
	}
}

// TestLazyMemoryReload: loading a program again keeps what memory
// holds, as it did when all of memory was backed — a reload may grow
// the backing, never shrink or clear it.
func TestLazyMemoryReload(t *testing.T) {
	for _, wb := range []int{4, 2} {
		cfg := core.T424()
		if wb == 2 {
			cfg = core.T222()
		}
		cfg = cfg.WithMemory(16 * 1024)
		lazy, full := core.MustNew(cfg), core.MustNew(cfg)
		core.BackFully(full)
		high := addrAt(lazy, 12*1024)
		for _, m := range []*core.Machine{lazy, full} {
			if err := m.Load(core.Image{Code: []byte{0x24, 0xF0}, WsBelow: 8, WsAbove: 8}); err != nil {
				t.Fatal(err)
			}
			m.WriteWord(m.EntryWptr(), 7)
			m.WriteWord(high, 9)
			if err := m.Load(core.Image{Code: []byte{0x24, 0xF0}, DataBytes: 64, WsBelow: 200, WsAbove: 100}); err != nil {
				t.Fatal(err)
			}
		}
		if a, b := core.MemOf(lazy), core.MemOf(full); string(a) != string(b) {
			t.Errorf("%d-byte words: memory after a reload differs from a fully backed machine's", wb)
		}
		if lazy.ReadWord(high) != 9 || lazy.Iptr != full.Iptr || lazy.Wdesc != full.Wdesc {
			t.Errorf("%d-byte words: reload state differs: %#x %#x / %#x %#x", wb, lazy.Iptr, lazy.Wdesc, full.Iptr, full.Wdesc)
		}
	}
}

// TestMemoryFootprintAllocGuard: a machine costs the host the memory
// its program covers, not the memory it is configured with — a 64 KiB
// transputer running a small program allocates a few KiB (3 904 bytes
// on linux/amd64 with Go 1.24, the machine included), where backing all
// of memory allocated 64.  The search array's nodes are 64 KiB each and
// touch about 1.5 KiB.
func TestMemoryFootprintAllocGuard(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	cfg := core.T424().WithMemory(64 * 1024)
	img := core.Image{Code: make([]byte, 600), DataBytes: 200, WsBelow: 100, WsAbove: 50}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		m := core.MustNew(cfg)
		if err := m.Load(img); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("a 64 KiB machine with a %d-byte image allocates %d bytes", len(img.Code), bytes)
	if bytes > 8<<10 {
		t.Errorf("building and loading a 64 KiB machine allocates %d bytes, more than 8 KiB", bytes)
	}
}
