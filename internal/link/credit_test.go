package link

import (
	"fmt"
	"strings"
	"testing"

	"transputer/internal/core"
	"transputer/internal/probe"
	"transputer/internal/sim"
)

// Acknowledge credit, hand-timed: two engines on two ports, link 1 of a
// wired to link 0 of b (portPair).  With b inputting and a outputting
// from time zero, byte n starts at n×1100; byte 0 is acknowledged for
// real (sent 200, landed 400) and carries the grant, and byte 1 — the
// first sent on credit — starts at 1100, reaches b at 1300 and would
// have been acknowledged at a at 1500.  Every scenario runs twice, plain
// and with a probe bus on both engines (which takes the per-packet
// path), and the two outcomes must agree to the nanosecond.

const (
	creditSrc = 64   // offset of the bytes an engine sends, from MemStart
	creditDst = 4096 // offset of where it receives
)

// creditRig is one pair under test plus the instants a script marks,
// a's and b's apart: how two ports' same-instant events interleave is
// the engine's business.
type creditRig struct {
	c      *sim.Coordinator
	ma, mb *core.Machine
	ea, eb *Engine
	marks  [2][]string
}

// note records a name and the instant on e's clock.
func (r *creditRig) note(name string, e *Engine) {
	i := 0
	if e == r.eb {
		i = 1
	}
	r.marks[i] = append(r.marks[i], fmt.Sprintf("%s@%d", name, e.k.Now()))
}

// mark returns a completion callback that notes its name and instant.
func (r *creditRig) mark(name string, e *Engine) func() {
	return func() { r.note(name, e) }
}

// aToB has b input n bytes and a output them, both from now.
func (r *creditRig) aToB(n int) {
	r.eb.BeginInput(0, r.mb.MemStart()+creditDst, n, r.mark("b.in", r.eb))
	r.ea.BeginOutput(1, r.ma.MemStart()+creditSrc, n, r.mark("a.out", r.ea))
}

// bToA is the reverse direction of the same link.
func (r *creditRig) bToA(n int) {
	r.ea.BeginInput(1, r.ma.MemStart()+creditDst, n, r.mark("a.in", r.ea))
	r.eb.BeginOutput(0, r.mb.MemStart()+creditSrc, n, r.mark("b.out", r.eb))
}

// runCredit plays a script on a fresh pair and renders everything
// observable from outside the link layer, and the credit counters.
func runCredit(observed, fused bool, script func(r *creditRig)) (string, CreditStats) {
	r := &creditRig{}
	r.c, r.ma, r.mb, r.ea, r.eb = portPair(1, fused)
	for i := 0; i < 64; i++ {
		r.ma.SetByteAt(r.ma.MemStart()+creditSrc+uint64(i), byte(0xA0+i))
		r.mb.SetByteAt(r.mb.MemStart()+creditSrc+uint64(i), byte(0x40+i))
	}
	if observed {
		r.ea.AttachProbe(probe.NewBus())
		r.eb.AttachProbe(probe.NewBus())
	}
	script(r)
	end := r.c.Run()
	out := fmt.Sprintf("%v end=%d a=%+v b=%+v a.sent=%d a.recv=%d b.sent=%d b.recv=%d a.mem=%x b.mem=%x",
		r.marks, end, r.ea.WireStats(1), r.eb.WireStats(0),
		r.ea.outs[1].sent, r.ea.ins[1].received, r.eb.outs[0].sent, r.eb.ins[0].received,
		r.ma.ReadBytes(r.ma.MemStart()+creditDst, 16), r.mb.ReadBytes(r.mb.MemStart()+creditDst, 16))
	var cs CreditStats
	cs.Add(r.ea.CreditStats())
	cs.Add(r.eb.CreditStats())
	return out, cs
}

// creditBothLegs runs the script plain and observed, on one shard and on
// two, requires one outcome, and returns it with the plain leg's
// counters.
func creditBothLegs(t *testing.T, script func(r *creditRig)) (string, CreditStats) {
	t.Helper()
	want, none := runCredit(true, true, script)
	if none != (CreditStats{}) {
		t.Fatalf("observed leg used credit: %+v", none)
	}
	var cs CreditStats
	for _, fused := range []bool{true, false} {
		var got string
		got, cs = runCredit(false, fused, script)
		if got != want {
			t.Fatalf("fused=%v: plain and observed runs differ:\n   plain %s\nobserved %s", fused, got, want)
		}
	}
	return want, cs
}

func TestCreditStreams(t *testing.T) {
	out, cs := creditBothLegs(t, func(r *creditRig) { r.aToB(8) })
	if want := (CreditStats{Granted: 1, Credited: 7}); cs != want {
		t.Errorf("credit counters %+v, want %+v", cs, want)
	}
	if want := "[[a.out@8800] [b.in@8800]] end=8800"; !strings.HasPrefix(out, want) {
		t.Errorf("outcome %q, want prefix %q", out, want)
	}
}

// TestCreditDisqualifiers: anything that could observe or delay an
// acknowledge on the link keeps every acknowledge a frame.
func TestCreditDisqualifiers(t *testing.T) {
	pass := func(bool) FaultAction { return FaultAction{} }
	for _, tc := range []struct {
		name  string
		setup func(r *creditRig)
	}{
		{"bus at the receiver", func(r *creditRig) { r.eb.AttachProbe(probe.NewBus()) }},
		{"bus at the sender", func(r *creditRig) { r.ea.AttachProbe(probe.NewBus()) }},
		{"heartbeat at the receiver", func(r *creditRig) { r.eb.SetHeartbeat() }},
		{"heartbeat at the sender", func(r *creditRig) { r.ea.SetHeartbeat() }},
		{"error-detecting mode", func(r *creditRig) {
			r.ea.SetReliable(true, 0, 0)
			r.eb.SetReliable(true, 0, 0)
		}},
		{"stop-and-wait", func(r *creditRig) { r.eb.SetStopAndWait(true) }},
		{"hook on the data wire", func(r *creditRig) { r.ea.SetFaultHook(1, pass) }},
		{"hook on the ack wire", func(r *creditRig) { r.eb.SetFaultHook(0, pass) }},
		{"reverse output active", func(r *creditRig) { r.bToA(8) }},
	} {
		_, cs := runCredit(false, true, func(r *creditRig) {
			tc.setup(r)
			r.aToB(8)
		})
		if cs != (CreditStats{}) {
			t.Errorf("%s: credit used: %+v", tc.name, cs)
		}
	}

	// A multiplexed link: the units ride the same transfer layer.
	c, _, _, ea, eb := portPair(1, true)
	ea.EnableVChans(1, 2)
	eb.EnableVChans(0, 2)
	got := false
	eb.Recv(core.VChanEnd(0, 1), 8, func([]byte) { got = true })
	ea.Send(core.VChanEnd(1, 1), make([]byte, 8), nil)
	c.Run()
	if cs := eb.CreditStats(); !got || cs != (CreditStats{}) {
		t.Errorf("mux: delivered=%v, credit used: %+v", got, cs)
	}

	// Both engines on one clock, and an engine wired to a host end: no
	// port is crossed, so there is no post to save.
	k, ma, sa, mb, sb := enginePair(t)
	sb.BeginInput(1, mb.MemStart()+creditDst, 8, nil)
	sa.BeginOutput(2, ma.MemStart()+creditSrc, 8, nil)
	h := NewHostEnd(k)
	ConnectHost(sa, 0, h)
	sa.BeginInput(0, ma.MemStart()+creditDst, 8, nil)
	h.Send(make([]byte, 8), nil)
	k.Run()
	if sa.ins[0].received != 8 || sb.ins[1].received != 8 {
		t.Fatalf("same-clock transfers incomplete: %d, %d", sa.ins[0].received, sb.ins[1].received)
	}
	if sa.CreditStats() != (CreditStats{}) || sb.CreditStats() != (CreditStats{}) {
		t.Errorf("same-clock pair or host end used credit: %+v %+v", sa.CreditStats(), sb.CreditStats())
	}
}

// TestCreditRevocation: b starts a one-byte output of its own while
// byte 1 of a's stream is in flight.  100 ns after byte 1 begins, b has
// not seen it start: the revocation un-acknowledges it, b acknowledges
// it for real behind its own data frame, and a stalls for that
// acknowledge.  300 ns after, b has already booked the acknowledge and
// the line is busy until 1500: b's frame starts then, not at 1400.
func TestCreditRevocation(t *testing.T) {
	reverseAt := func(at sim.Time) func(r *creditRig) {
		return func(r *creditRig) {
			r.aToB(4)
			r.eb.k.Schedule(at, func() { r.bToA(1) })
		}
	}

	out, cs := creditBothLegs(t, reverseAt(1200))
	// (b grants again, for byte 3, once its own output is done.)
	if want := (CreditStats{Granted: 2, Credited: 1, Revoked: 1, UnackedAtRevoke: 1}); cs != want {
		t.Errorf("+100ns: credit counters %+v, want %+v", cs, want)
	}
	// b's frame holds the line 1200–2300, byte 1's acknowledge follows
	// it and lands at 2500, where byte 2 starts; a acknowledges b's byte
	// behind byte 1 (2200–2400, landed 2400 — b's frame ends at 2300).
	if want := "[[a.in@2300 a.out@4700] [b.out@2400 b.in@4700]]"; !strings.HasPrefix(out, want) {
		t.Errorf("+100ns: outcome %q, want prefix %q", out, want)
	}

	out, cs = creditBothLegs(t, reverseAt(1400))
	if want := (CreditStats{Granted: 1, Credited: 1, Revoked: 1, LateCompletions: 1}); cs != want {
		t.Errorf("+300ns: credit counters %+v, want %+v", cs, want)
	}
	// b's frame waits out the credited acknowledge (1300–1500) and lands
	// at 2600; byte 2 of a's stream starts at 2200 unacknowledged and is
	// acknowledged behind b's frame.
	if want := "[[a.in@2600 "; !strings.HasPrefix(out, want) {
		t.Errorf("+300ns: outcome %q, want prefix %q", out, want)
	}
}

// TestCreditCut: the link is cut around the instant byte 1's credited
// acknowledge would have landed at a (1500).  The acknowledge counts iff
// it lands no later than the cut takes effect at a: at once for a's own
// cut, one propagation (200 ns) later for b's.
func TestCreditCut(t *testing.T) {
	for _, tc := range []struct {
		name    string
		byB     bool
		at      sim.Time
		unacked uint64
		sent    int // bytes a's sender got past
	}{
		{"a, 50 ns before", false, 1450, 1, 1},
		{"a, at the instant", false, 1500, 0, 2},
		{"a, 50 ns after", false, 1550, 0, 2},
		{"b, 50 ns before", true, 1250, 1, 1},
		{"b, at the instant", true, 1300, 0, 2},
		{"b, 50 ns after", true, 1350, 0, 2},
	} {
		out, cs := creditBothLegs(t, func(r *creditRig) {
			r.aToB(4)
			if tc.byB {
				r.eb.k.Schedule(tc.at, func() { r.eb.SeverLink(0) })
			} else {
				r.ea.k.Schedule(tc.at, func() { r.ea.SeverLink(1) })
			}
		})
		if cs.UnackedAtCut != tc.unacked {
			t.Errorf("cut by %s: %d bytes un-acknowledged, want %d (%s)", tc.name, cs.UnackedAtCut, tc.unacked, out)
		}
		if want := fmt.Sprintf("a.sent=%d ", tc.sent); !strings.Contains(out, want) {
			t.Errorf("cut by %s: outcome %q, want %q", tc.name, out, want)
		}
	}
}

// TestCreditOutlivesTransfer: b wants eight bytes and a sends them as
// two messages of four: the second message's first byte still travels
// on the first grant.  The grant covers b's input and no more: a's third
// message finds b inputting again and is acknowledged for real, with a
// new grant.
func TestCreditOutlivesTransfer(t *testing.T) {
	var heldBetween, heldAfter int
	_, cs := creditBothLegs(t, func(r *creditRig) {
		r.eb.BeginInput(0, r.mb.MemStart()+creditDst, 8, func() {
			r.note("b.in", r.eb)
			r.eb.BeginInput(0, r.mb.MemStart()+creditDst+8, 4, r.mark("b.in2", r.eb))
		})
		src := r.ma.MemStart() + creditSrc
		r.ea.BeginOutput(1, src, 4, func() {
			heldBetween = r.ea.outs[1].credit
			r.note("a.out", r.ea)
			r.ea.k.After(350, func() {
				r.ea.BeginOutput(1, src+4, 4, func() {
					heldAfter = r.ea.outs[1].credit
					r.ea.BeginOutput(1, src+8, 4, r.mark("a.out3", r.ea))
				})
			})
		})
	})
	if heldBetween != 4 || heldAfter != 0 {
		t.Errorf("sender held %d credit between its messages and %d after b's input ended, want 4 and 0",
			heldBetween, heldAfter)
	}
	if want := (CreditStats{Granted: 2, Credited: 7 + 3}); cs != want {
		t.Errorf("credit counters %+v, want %+v", cs, want)
	}
}
