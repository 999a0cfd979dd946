package link

import (
	"bytes"
	"testing"
	"testing/quick"

	"transputer/internal/sim"
)

func hostPair() (*sim.Kernel, *HostEnd, *HostEnd) {
	k := sim.NewKernel()
	a := NewHostEnd(k)
	b := NewHostEnd(k)
	ConnectHosts(a, b)
	return k, a, b
}

// TestContinuousTransmission checks the headline protocol property:
// with a receiver waiting, acknowledges overlap reception and a message
// streams at one byte per 11 bit times (about 1 Mbyte/s at 10 Mbit/s).
func TestContinuousTransmission(t *testing.T) {
	k, a, b := hostPair()
	const n = 1000
	msg := make([]byte, n)
	for i := range msg {
		msg[i] = byte(i)
	}
	var got []byte
	recvDone := sim.Time(-1)
	sendDone := sim.Time(-1)
	b.Recv(n, func(data []byte) { got = data; recvDone = k.Now() })
	a.Send(msg, func() { sendDone = k.Now() })
	k.Run()

	if !bytes.Equal(got, msg) {
		t.Fatal("message corrupted in transit")
	}
	// Data: n bytes * 11 bits * 100 ns, continuous.
	wantRecv := sim.Time(n * DataBits * BitNs)
	if recvDone != wantRecv {
		t.Errorf("receive finished at %v, want %v (continuous streaming)", recvDone, wantRecv)
	}
	// The sender completes when the final acknowledge arrives: the ack
	// is sent at the start of the final byte and takes 2 bit times, so
	// it is already there at transmission end.
	if sendDone != wantRecv {
		t.Errorf("send finished at %v, want %v", sendDone, wantRecv)
	}
}

// TestThroughputAboutOneMBytePerSecond: 10 Mbit/s with an 11-bit packet
// is 0.909 MByte/s — the paper's "about 1 Mbyte/sec in each direction".
func TestThroughputAboutOneMBytePerSecond(t *testing.T) {
	k, a, b := hostPair()
	const n = 100000
	done := sim.Time(0)
	b.Recv(n, func([]byte) { done = k.Now() })
	a.Send(make([]byte, n), nil)
	k.Run()
	mbps := float64(n) / (float64(done) * 1e-9) / 1e6
	if mbps < 0.85 || mbps > 1.0 {
		t.Errorf("throughput = %.3f MB/s, want about 0.91", mbps)
	}
}

// TestSingleByteBufferFlowControl: with no receiver, exactly one byte
// is transmitted and the acknowledge is withheld, so the sender stalls
// ("requiring only the presence of a single byte buffer in the
// receiving transputer to ensure that no information is lost").
func TestSingleByteBufferFlowControl(t *testing.T) {
	k, a, b := hostPair()
	sent := false
	a.Send([]byte{1, 2, 3, 4}, func() { sent = true })
	k.Run()
	if sent {
		t.Fatal("send completed with no receiver")
	}
	// One data byte is on the wire/buffer; nothing more.
	if got := a.out.sent; got != 0 {
		t.Errorf("sender advanced %d bytes without acknowledge", got)
	}
	if !b.in.bufferValid {
		t.Error("first byte should be buffered at the receiver")
	}

	// A receiver turning up later gets the whole message.
	var got []byte
	b.Recv(4, func(data []byte) { got = data })
	k.Run()
	if !sent || !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Errorf("late receiver: sent=%v got=%v", sent, got)
	}
}

// TestBidirectional: the two directions of a link operate concurrently
// ("a link between two transputers provides a pair of occam channels,
// one in each direction").
func TestBidirectional(t *testing.T) {
	k, a, b := hostPair()
	const n = 5000
	var doneAB, doneBA sim.Time
	b.Recv(n, func([]byte) { doneAB = k.Now() })
	a.Recv(n, func([]byte) { doneBA = k.Now() })
	a.Send(make([]byte, n), nil)
	b.Send(make([]byte, n), nil)
	k.Run()
	// Each direction carries n data packets plus n acks for the
	// reverse direction: (11+2) bit times per byte when saturated both
	// ways.
	want := sim.Time(n * (DataBits + AckBits) * BitNs)
	tolerance := sim.Time(20 * BitNs)
	for _, d := range []sim.Time{doneAB, doneBA} {
		if d < want-tolerance || d > want+tolerance {
			t.Errorf("direction finished at %v, want about %v", d, want)
		}
	}
}

// TestAckPriority: acknowledges jump the data queue, so a saturated
// outbound stream does not starve the inbound channel's acks.
func TestAckPriority(t *testing.T) {
	k, a, b := hostPair()
	var order []bool // true = ack
	w := a.out.wire
	// Queue data then an ack while the wire is busy; the ack must go
	// first.  The fault hook sees every frame as it starts transmission.
	w.hook = func(isCtl bool) FaultAction {
		order = append(order, isCtl)
		return FaultAction{}
	}
	w.send(packet{bits: DataBits})
	w.send(packet{bits: DataBits})
	w.send(packet{kind: pktAck, bits: AckBits})
	k.Run()
	if len(order) != 3 || order[0] || !order[1] || order[2] {
		t.Errorf("transmission order (data in flight, then ack first) = %v", order)
	}
	_ = b
}

// TestWireStats counts packets and busy time.
func TestWireStats(t *testing.T) {
	k, a, b := hostPair()
	b.Recv(10, func([]byte) {})
	a.Send(make([]byte, 10), nil)
	k.Run()
	st := a.out.wire.stats
	if st.DataBytes != 10 {
		t.Errorf("data bytes = %d, want 10", st.DataBytes)
	}
	if st.BusyNs != int64(10*DataBits*BitNs) {
		t.Errorf("busy = %d ns", st.BusyNs)
	}
	// The reverse wire carried the 10 acks.
	rst := b.out.wire.stats
	if rst.Acks != 10 {
		t.Errorf("acks = %d, want 10", rst.Acks)
	}
}

// TestMessageIntegrityProperty: random messages arrive intact whatever
// the interleaving of sender and receiver readiness.
func TestMessageIntegrityProperty(t *testing.T) {
	f := func(msg []byte, recvFirst bool) bool {
		if len(msg) == 0 {
			msg = []byte{0}
		}
		k, a, b := hostPair()
		var got []byte
		recv := func() { b.Recv(len(msg), func(d []byte) { got = d }) }
		send := func() { a.Send(msg, nil) }
		if recvFirst {
			recv()
			send()
		} else {
			send()
			// Let the first byte land in the buffer before the receiver
			// turns up.
			k.After(sim.Time(3*DataBits*BitNs), recv)
		}
		k.Run()
		return bytes.Equal(got, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestZeroLengthTransfer completes immediately.
func TestZeroLengthTransfer(t *testing.T) {
	k, a, b := hostPair()
	sent, recvd := false, false
	a.Send(nil, func() { sent = true })
	b.Recv(0, func([]byte) { recvd = true })
	k.Run()
	if !sent || !recvd {
		t.Error("zero-length transfers should complete")
	}
}

// TestHostEndBusy: a host end carries one message each way at a time,
// and asking for a second reports false and leaves the first alone.
func TestHostEndBusy(t *testing.T) {
	k, a, b := hostPair()
	var got []byte
	if !b.Recv(2, func(d []byte) { got = d }) || b.Recv(2, func([]byte) { t.Error("second receive ran") }) {
		t.Fatal("want the first receive taken and the second refused")
	}
	if !a.Send([]byte{1, 2}, nil) || a.Send([]byte{3, 4}, nil) {
		t.Fatal("want the first send taken and the second refused")
	}
	k.Run()
	if !bytes.Equal(got, []byte{1, 2}) {
		t.Errorf("received %v, want the first message", got)
	}
	if !a.Send([]byte{5}, nil) || !b.Recv(1, func([]byte) {}) {
		t.Error("ends still busy after their transfers completed")
	}
}
