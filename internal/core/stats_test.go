package core_test

import (
	"fmt"
	"testing"

	"transputer/internal/core"
	"transputer/internal/isa"
)

// commProgram builds a two-process program that passes one n-byte
// message over an internal channel: the parent starts a child, blocks
// inputting from channel W[3], and the child outputs from a static
// buffer.  Everything except the message length is identical across
// instances, so cycle differences isolate the communication charge.
func commProgram(n int) string {
	return fmt.Sprintf(`
	mint
	stl 3          -- channel word
	ldc 2
	stl 1
	ldpi cont
	stl 0
	ldc child-after
	ldlp -40
	startp
after:
	ajw -20
	ldpi bufin
	ldlp 23        -- channel W[3] seen from W-20
	ldc %d
	in
	ldlp 20
	endp
child:
	ldpi bufout
	ldlp 43        -- channel W[3] seen from W-40
	ldc %d
	out
	ldlp 40
	endp
cont:
	stopp
bufout:
	space 256
bufin:
	space 256
`, n, n)
}

// TestMessageCounters checks the communication counters for a single
// internal rendezvous.
func TestMessageCounters(t *testing.T) {
	m := runSrc(t, commProgram(16))
	st := m.Stats()
	if st.MessagesIn != 1 || st.MessagesOut != 1 {
		t.Errorf("messages = %d in / %d out, want 1/1", st.MessagesIn, st.MessagesOut)
	}
	if st.ExternalIn != 0 || st.ExternalOut != 0 {
		t.Errorf("external = %d in / %d out, want 0/0 for an internal channel",
			st.ExternalIn, st.ExternalOut)
	}
	// Only the completing side records the bytes moved.
	if st.BytesIn+st.BytesOut != 16 {
		t.Errorf("bytes = %d in + %d out, want 16 total", st.BytesIn, st.BytesOut)
	}
	if st.Enqueues == 0 {
		t.Error("starting the child should enqueue it")
	}
	if st.Deschedules == 0 {
		t.Error("blocking on the channel should deschedule")
	}
}

// TestChannelCostModel checks the paper's communication charge,
// max(24, 21 + 8n/wordlength) cycles (section 3.2.10): two runs that
// differ only in message length must differ by exactly the model's
// charge difference.  240 bytes also exercises the interruptible burn
// path for charges beyond the inline limit.
func TestChannelCostModel(t *testing.T) {
	small := runSrc(t, commProgram(16)).Stats().Cycles
	large := runSrc(t, commProgram(240)).Stats().Cycles
	want := uint64(isa.CommunicationCycles(240, 32) - isa.CommunicationCycles(16, 32))
	if large-small != want {
		t.Errorf("cycle delta = %d, want %d (model: %d vs %d cycles)",
			large-small, want,
			isa.CommunicationCycles(240, 32), isa.CommunicationCycles(16, 32))
	}
	// The blocked side's minimum charge means even a zero-length
	// exchange costs at least 24 cycles per side.
	if isa.CommunicationCycles(0, 32) != 24 {
		t.Errorf("CommunicationCycles(0) = %d, want 24", isa.CommunicationCycles(0, 32))
	}
}

// TestStatsAdd: folding one Stats into another must carry every
// counter, including the per-function array and the lazily allocated
// per-opcode map — aggregate views drop information otherwise.
func TestStatsAdd(t *testing.T) {
	a := core.Stats{
		Instructions:     10,
		InstructionBytes: 14,
		SingleByte:       8,
		Cycles:           100,
		Enqueues:         1,
		Deschedules:      2,
		Preemptions:      3,
		Timeslices:       4,
		MessagesIn:       5,
		MessagesOut:      6,
		BytesIn:          7,
		BytesOut:         8,
		ExternalIn:       9,
		ExternalOut:      10,
		CodeBytes:        32,
	}
	a.FunctionCounts[3] = 7
	b := core.Stats{Instructions: 5, Cycles: 50, CodeBytes: 16,
		OpCounts: map[uint16]uint64{0x2A: 3, 0x05: 1}}
	b.FunctionCounts[3] = 2
	b.FunctionCounts[15] = 1

	a.Add(b)
	if a.Instructions != 15 || a.Cycles != 150 || a.CodeBytes != 48 {
		t.Errorf("scalars: %+v", a)
	}
	if a.FunctionCounts[3] != 9 || a.FunctionCounts[15] != 1 {
		t.Errorf("function counts: %v", a.FunctionCounts)
	}
	// The destination had no OpCounts map; Add must allocate one
	// rather than dropping the tallies.
	if a.OpCounts[0x2A] != 3 || a.OpCounts[0x05] != 1 {
		t.Errorf("op counts: %v", a.OpCounts)
	}
	// Adding into an existing map accumulates.
	a.Add(core.Stats{OpCounts: map[uint16]uint64{0x2A: 2}})
	if a.OpCounts[0x2A] != 5 {
		t.Errorf("op counts after second add: %v", a.OpCounts)
	}
	// The source map must not be aliased.
	b.OpCounts[0x2A] = 99
	if a.OpCounts[0x2A] != 5 {
		t.Error("Add aliased the source OpCounts map")
	}
}

// TestStatsIsASnapshot: Stats hands out the machine's counters by
// value, the per-operation map included — it does not move as the
// machine runs on, and writing to it does not reach the machine.
func TestStatsIsASnapshot(t *testing.T) {
	m := core.MustNew(core.T424().WithMemory(64 * 1024))
	if err := m.Load(assemble(t, "loop:\n\tldc 1\n\tldc 2\n\tadd\n\tstl 1\n\tj loop\n")); err != nil {
		t.Fatal(err)
	}
	step := func(n int) {
		for i := 0; i < n; i++ {
			if m.Step() == 0 {
				t.Fatal("machine stopped")
			}
		}
	}
	step(100)
	snap := m.Stats()
	adds := snap.OpCounts[uint16(isa.OpAdd)]
	if adds != 20 {
		t.Fatalf("add count after 100 instructions = %d, want 20", adds)
	}
	step(1000)
	if got := snap.OpCounts[uint16(isa.OpAdd)]; got != adds {
		t.Errorf("snapshot moved with the machine: add count %d -> %d", adds, got)
	}
	later := m.Stats()
	later.OpCounts[uint16(isa.OpAdd)] = 7
	later.OpCounts[0x777] = 1
	if got := m.Stats().OpCounts; len(got) != 1 || got[uint16(isa.OpAdd)] != 220 {
		t.Errorf("writing to a snapshot reached the machine: OpCounts = %v, want add: 220", got)
	}
	if fresh := core.MustNew(core.T424()).Stats(); fresh.OpCounts != nil {
		t.Errorf("OpCounts of a machine that ran nothing = %v, want nil", fresh.OpCounts)
	}
}
