package link

import (
	"testing"

	"transputer/internal/core"
	"transputer/internal/sim"
)

// The tests here pin the cut-cause rules: a link end is cut while it has
// any cause — a severed cable, its own board halted, the far board
// halted — and each end learns the far end's causes one propagation
// after they change.  A sender whose acknowledge cannot come — its
// board halted, its link declared down — sends nothing until it is
// recovered.

// sendingPair is portPair in the error-detecting mode with a one-byte
// transfer started each way; done reports which have finished.
func sendingPair(t *testing.T) (c *sim.Coordinator, ea, eb *Engine, done *[2]bool) {
	t.Helper()
	c, _, _, ea, eb = portPair(1, false)
	ea.SetReliable(true, 0, 0)
	eb.SetReliable(true, 0, 0)
	done = new([2]bool)
	for i, e := range []*Engine{ea, eb} {
		l := 1 - i // a talks on link 1, b on link 0
		i := i
		if !e.Send(core.End(l), []byte{byte('a' + i)}, func() { done[i] = true }) || !e.Recv(core.End(l), 1, func([]byte) {}) {
			t.Fatal("the transfers did not start")
		}
	}
	return
}

// TestRestartBesideHaltedPeer: a board that resumes while its peer is
// still halted keeps their link cut at both ends; when the peer resumes,
// the link comes back and each end resends its frozen byte exactly once.
func TestRestartBesideHaltedPeer(t *testing.T) {
	c, ea, eb, done := sendingPair(t)
	us := sim.Microsecond
	ea.k.Schedule(1*us, ea.Halt) // both bytes are still on the wires
	eb.k.Schedule(50*us, eb.Halt)
	ea.k.Schedule(100*us, ea.Resume)
	c.RunUntil(500 * us)
	if ea.outs[1].cuts == 0 || eb.outs[0].cuts == 0 {
		t.Fatalf("a link to a halted board is whole: a's causes %b, b's %b", ea.outs[1].cuts, eb.outs[0].cuts)
	}
	if done[0] || done[1] {
		t.Fatalf("a transfer crossed a cut link: %v", *done)
	}
	ra, rb := ea.WireStats(1).Retransmits, eb.WireStats(0).Retransmits
	eb.k.Schedule(500*us, eb.Resume)
	c.Run()
	if !done[0] || !done[1] {
		t.Fatalf("the transfers did not finish once both boards resumed: %v", *done)
	}
	if ea.outs[1].cuts != 0 || eb.outs[0].cuts != 0 {
		t.Errorf("the link stayed cut: a's causes %b, b's %b", ea.outs[1].cuts, eb.outs[0].cuts)
	}
	if d := ea.WireStats(1).Retransmits - ra; d != 1 {
		t.Errorf("a resent its byte %d times after the peer resumed, want 1", d)
	}
	if d := eb.WireStats(0).Retransmits - rb; d != 1 {
		t.Errorf("b resent its byte %d times after resuming, want 1", d)
	}
}

// TestSeverSurvivesRestart: a severed cable stays cut at both ends
// through a halt and a restart of both boards, and nothing crosses it.
func TestSeverSurvivesRestart(t *testing.T) {
	c, ea, eb, done := sendingPair(t)
	us := sim.Microsecond
	ea.k.Schedule(1*us, func() { ea.SeverLink(1) })
	ea.k.Schedule(10*us, ea.Halt)
	eb.k.Schedule(20*us, eb.Halt)
	ea.k.Schedule(100*us, ea.Resume)
	eb.k.Schedule(200*us, eb.Resume)
	c.Run()
	if ea.outs[1].cuts != cutCable || eb.outs[0].cuts != cutCable {
		t.Errorf("causes after both restarts: a %b, b %b; want the cable's alone", ea.outs[1].cuts, eb.outs[0].cuts)
	}
	if done[0] || done[1] {
		t.Errorf("a transfer crossed a severed link: %v", *done)
	}
}

// streamPair is portPair in the error-detecting mode with a long
// message under way from a to b; done reports b has all of it.
func streamPair(t *testing.T) (c *sim.Coordinator, ea, eb *Engine, done *bool) {
	t.Helper()
	c, _, _, ea, eb = portPair(1, false)
	ea.SetReliable(true, 0, 0)
	eb.SetReliable(true, 0, 0)
	msg := testMsg(200)
	done = new(bool)
	if !ea.Send(core.End(1), msg, nil) || !eb.Recv(core.End(0), len(msg), func(got []byte) {
		*done = string(got) == string(msg)
	}) {
		t.Fatal("the transfer did not start")
	}
	return
}

// TestNoRetransmitAfterDownVerdict: once the heartbeat declares a link
// down, its sender resends nothing more into it, and reports the link
// down with the retries it had spent.
func TestNoRetransmitAfterDownVerdict(t *testing.T) {
	c, ea, eb, _ := streamPair(t)
	var atVerdict uint64
	verdicts := 0
	for _, e := range []*Engine{ea, eb} {
		e.SetHeartbeat()
		e.StartHeartbeat()
	}
	ea.OnVerdict(func(l int, up bool) {
		verdicts++
		atVerdict = ea.WireStats(1).Retransmits
	})
	ea.k.Schedule(sim.Microsecond, func() { ea.SeverLink(1) })
	c.RunUntil(2 * sim.Millisecond)
	if verdicts != 1 || atVerdict == 0 {
		t.Fatalf("%d verdicts, %d retransmits before the first; want one down verdict after some", verdicts, atVerdict)
	}
	if got := ea.WireStats(1).Retransmits; got != atVerdict {
		t.Errorf("%d retransmits after the down verdict (%d before it)", got-atVerdict, atVerdict)
	}
	if down, retries := ea.LinkDown(1); !down || uint64(retries) != atVerdict {
		t.Errorf("LinkDown = %v after %d retries, want down after %d", down, retries, atVerdict)
	}
}

// TestHaltedEngineIsQuiet: once its wires drain, a halted engine has no
// event — no retry timer, nothing scheduled or cancelled — until it
// resumes; then its frozen byte goes out and the message completes.
func TestHaltedEngineIsQuiet(t *testing.T) {
	c, ea, _, done := streamPair(t)
	us := sim.Microsecond
	ea.k.Schedule(5*us, ea.Halt)
	c.RunUntil(10 * us)
	pa := ea.k.(*sim.Port)
	if n := pa.Pending(); n != 0 {
		t.Fatalf("a halted engine has %d events pending once its wires drained", n)
	}
	stamp := pa.Stamp()
	c.RunUntil(sim.Millisecond)
	if pa.Stamp() != stamp || pa.Pending() != 0 {
		t.Fatalf("a halted engine scheduled or cancelled %d events", pa.Stamp()-stamp)
	}
	ea.k.Schedule(sim.Millisecond, ea.Resume)
	c.Run()
	if !*done {
		t.Error("the message did not complete after the restart")
	}
}
