package link

import (
	"bytes"
	"testing"

	"transputer/internal/core"
	"transputer/internal/sim"
)

func reliablePair(timeout sim.Time, retries int) (*sim.Kernel, *HostEnd, *HostEnd) {
	k, a, b := hostPair()
	a.SetReliable(true, timeout, retries)
	b.SetReliable(true, timeout, retries)
	return k, a, b
}

func testMsg(n int) []byte {
	msg := make([]byte, n)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	return msg
}

// TestCRC8DetectsBitErrors: every single-bit corruption of the payload
// or sequence bit changes the trailer.
func TestCRC8DetectsBitErrors(t *testing.T) {
	for payload := 0; payload < 256; payload += 17 {
		for seq := byte(0); seq <= 1; seq++ {
			want := crc8(byte(payload), seq)
			for bit := 0; bit < 8; bit++ {
				if crc8(byte(payload)^(1<<bit), seq) == want {
					t.Fatalf("payload %#x bit %d flip undetected", payload, bit)
				}
			}
			if crc8(byte(payload), seq^1) == want {
				t.Fatalf("payload %#x seq flip undetected", payload)
			}
		}
	}
}

// TestReliableCleanTransfer: on a perfect wire the error-detecting mode
// still delivers byte-exact messages, just more slowly (20-bit packets,
// acknowledge only after the trailer).
func TestReliableCleanTransfer(t *testing.T) {
	k, a, b := reliablePair(0, 0)
	msg := testMsg(200)
	var got []byte
	sent := false
	b.Recv(len(msg), func(d []byte) { got = d })
	a.Send(msg, func() { sent = true })
	k.Run()
	if !sent || !bytes.Equal(got, msg) {
		t.Fatalf("sent=%v, message intact=%v", sent, bytes.Equal(got, msg))
	}
	if st := a.e.outs[0].wire.stats; st.Naks != 0 {
		t.Errorf("clean wire produced %d naks", st.Naks)
	}
}

// TestReliableCorruptionRecovered: corrupt data packets are NAKed and
// retransmitted; the delivered message is byte-exact.
func TestReliableCorruptionRecovered(t *testing.T) {
	k, a, b := reliablePair(0, 0)
	n := 0
	a.e.outs[0].wire.hook = func(isCtl bool) FaultAction {
		if isCtl {
			return FaultAction{}
		}
		n++
		if n%5 == 0 {
			return FaultAction{Corrupt: 0x40}
		}
		return FaultAction{}
	}
	msg := testMsg(100)
	var got []byte
	b.Recv(len(msg), func(d []byte) { got = d })
	a.Send(msg, nil)
	k.Run()
	if !bytes.Equal(got, msg) {
		t.Fatal("message corrupted despite error-detecting mode")
	}
	if st := b.e.outs[0].wire.stats; st.Naks == 0 {
		t.Error("corruption produced no naks")
	}
}

// TestRetransmitAccounting pins the wire's two data counters under an
// injected corrupt-then-retry: DataBytes stays the goodput (every byte
// counted once, on its first transmission) while Retransmits absorbs
// the repair traffic, and together they account for every data packet
// the wire carried.
func TestRetransmitAccounting(t *testing.T) {
	k, a, b := reliablePair(0, 0)
	n := 0
	a.e.outs[0].wire.hook = func(isCtl bool) FaultAction {
		if isCtl {
			return FaultAction{}
		}
		n++
		if n%10 == 0 {
			return FaultAction{Corrupt: 0x08}
		}
		return FaultAction{}
	}
	msg := testMsg(100)
	var got []byte
	b.Recv(len(msg), func(d []byte) { got = d })
	a.Send(msg, nil)
	k.Run()
	if !bytes.Equal(got, msg) {
		t.Fatal("message corrupted despite error-detecting mode")
	}
	st := a.e.outs[0].wire.stats
	if st.DataBytes != uint64(len(msg)) {
		t.Errorf("goodput = %d data bytes, want exactly %d (retransmissions must not inflate it)",
			st.DataBytes, len(msg))
	}
	if st.Retransmits == 0 {
		t.Error("corrupt-then-retry produced no retransmit count")
	}
	if st.DataBytes+st.Retransmits != uint64(n) {
		t.Errorf("wire carried %d data packets but counters say %d goodput + %d retransmitted",
			n, st.DataBytes, st.Retransmits)
	}
}

// TestReliableDropRecovered: lost data and acknowledge packets are
// recovered by timeout-paced retransmission.
func TestReliableDropRecovered(t *testing.T) {
	k, a, b := reliablePair(2*sim.Microsecond, 16)
	n := 0
	drop := func(isCtl bool) FaultAction {
		n++
		return FaultAction{Drop: n%7 == 0}
	}
	a.e.outs[0].wire.hook = drop
	b.e.outs[0].wire.hook = drop // also lose some acks
	msg := testMsg(150)
	var got []byte
	sent := false
	b.Recv(len(msg), func(d []byte) { got = d })
	a.Send(msg, func() { sent = true })
	k.Run()
	if !sent || !bytes.Equal(got, msg) {
		t.Fatalf("sent=%v intact=%v after drops", sent, bytes.Equal(got, msg))
	}
	if a.e.outs[0].rel.failed {
		t.Error("link declared down despite recoverable loss")
	}
}

// TestReliableLinkDown: a dead wire exhausts the retry budget; the
// sender gives up rather than spinning forever.
func TestReliableLinkDown(t *testing.T) {
	k, a, b := reliablePair(sim.Microsecond, 4)
	a.e.outs[0].wire.hook = func(isCtl bool) FaultAction { return FaultAction{Drop: !isCtl} }
	sent := false
	b.Recv(4, func([]byte) {})
	a.Send([]byte{1, 2, 3, 4}, func() { sent = true })
	k.Run()
	if sent {
		t.Fatal("send completed over a dead wire")
	}
	if !a.e.outs[0].rel.failed {
		t.Fatal("retry budget exhausted but link not marked down")
	}
	if a.e.outs[0].rel.retries <= 4 {
		t.Errorf("retries = %d, want budget exceeded", a.e.outs[0].rel.retries)
	}
}

// TestReliableLateReceiver: with no process waiting, the first byte is
// buffered and acknowledged; the next byte is carried by paced retries
// until a receiver turns up, preserving the single-byte-buffer flow
// control without losing data.
func TestReliableLateReceiver(t *testing.T) {
	k, a, b := reliablePair(2*sim.Microsecond, 32)
	msg := []byte{9, 8, 7, 6}
	sent := false
	a.Send(msg, func() { sent = true })
	var got []byte
	k.After(20*sim.Microsecond, func() {
		b.Recv(len(msg), func(d []byte) { got = d })
	})
	k.Run()
	if !sent || !bytes.Equal(got, msg) {
		t.Fatalf("sent=%v got=%v want %v", sent, got, msg)
	}
}

// TestSeverRacesNak: a corrupt data packet draws a NAK, and the link is
// cut while that NAK is mid-flight on the return wire.  The NAK is lost
// with the cable; the sender must fall back to its retransmit timer,
// burn the retry budget against the dead wire and declare the link
// down — with the bytes accepted before the cut delivered exactly once
// and nothing after them.
func TestSeverRacesNak(t *testing.T) {
	k := sim.NewKernel()
	ma := core.MustNew(core.T424().WithMemory(16 * 1024))
	mb := core.MustNew(core.T424().WithMemory(16 * 1024))
	ea := NewEngine(k, ma)
	eb := NewEngine(k, mb)
	Connect(ea, 2, eb, 1)
	ea.SetReliable(true, 4*sim.Microsecond, 8)
	eb.SetReliable(true, 4*sim.Microsecond, 8)

	// Corrupt exactly the fifth data packet; the receiver NAKs it.
	n := 0
	ea.SetFaultHook(2, func(isCtl bool) FaultAction {
		if isCtl {
			return FaultAction{}
		}
		n++
		if n == 5 {
			return FaultAction{Corrupt: 0x10}
		}
		return FaultAction{}
	})
	// The return wire carries four acknowledges and then the NAK.  When
	// the NAK starts transmission (3 bit times on the wire), cut the
	// link halfway through its flight.
	ctl := 0
	severed := false
	eb.SetFaultHook(1, func(isCtl bool) FaultAction {
		if isCtl {
			ctl++
			if ctl == 5 && !severed {
				severed = true
				k.After(NakBits*BitNs/2*sim.Nanosecond, func() { ea.SeverLink(2) })
			}
		}
		return FaultAction{}
	})

	msg := testMsg(10)
	ma.WriteBytes(ma.MemStart(), msg)
	dst := mb.MemStart() + 256
	sent, recvd := false, false
	eb.BeginInput(1, dst, len(msg), func() { recvd = true })
	ea.BeginOutput(2, ma.MemStart(), len(msg), func() { sent = true })
	k.Run()

	if !severed {
		t.Fatal("the NAK never appeared on the return wire")
	}
	if sent || recvd {
		t.Fatalf("transfer completed across a severed link: sent=%v recvd=%v", sent, recvd)
	}
	down, retries := ea.LinkDown(2)
	if !down {
		t.Fatal("sender never declared the severed link down")
	}
	if retries <= 8 {
		t.Errorf("retries = %d, want budget exceeded", retries)
	}
	got := mb.ReadBytes(dst, len(msg))
	for i := 0; i < 4; i++ {
		if got[i] != msg[i] {
			t.Errorf("byte %d = %#x, want %#x (pre-cut bytes must survive)", i, got[i], msg[i])
		}
	}
	for i := 4; i < len(msg); i++ {
		if got[i] != 0 {
			t.Errorf("byte %d = %#x arrived after the cut", i, got[i])
		}
	}
}

// TestReliableDuplicateSuppression: when an acknowledge is lost the
// sender retransmits a byte the receiver already accepted; the
// alternating sequence bit makes the receiver re-acknowledge without
// delivering it twice.
func TestReliableDuplicateSuppression(t *testing.T) {
	k, a, b := reliablePair(2*sim.Microsecond, 16)
	n := 0
	b.e.outs[0].wire.hook = func(isCtl bool) FaultAction {
		if !isCtl {
			return FaultAction{}
		}
		n++
		return FaultAction{Drop: n%3 == 0} // lose every third ack
	}
	msg := testMsg(60)
	var got []byte
	b.Recv(len(msg), func(d []byte) { got = d })
	a.Send(msg, nil)
	k.Run()
	if !bytes.Equal(got, msg) {
		t.Fatalf("lost acks caused duplicate or missing bytes")
	}
}
