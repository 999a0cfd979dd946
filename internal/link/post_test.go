package link

import (
	"fmt"
	"testing"

	"transputer/internal/core"
	"transputer/internal/raceflag"
	"transputer/internal/sim"
)

// The tests here pin what the per-frame closures used to carry now that
// a frame in flight is a value posted between ports: crossing ports
// allocates nothing per byte, and a frame overtaken by a cut is lost at
// the receiving end while its sender still hears its bits leave.

// portPair wires link 1 of engine a to link 0 of engine b, each engine
// on a port of its own — on two shards, or fused onto one.
func portPair(workers int, fused bool) (c *sim.Coordinator, ma, mb *core.Machine, ea, eb *Engine) {
	c = sim.NewCoordinator(sim.Time(AckBits * BitNs))
	c.SetWorkers(workers)
	pa, pb := c.NewPort(), c.NewPort()
	if fused {
		c.NewShard(pa, pb)
	} else {
		sa, sb := c.NewShard(pa), c.NewShard(pb)
		c.Wire(sa.ID(), sb.ID(), c.Lookahead())
		c.Wire(sb.ID(), sa.ID(), c.Lookahead())
	}
	ma = core.MustNew(core.T424().WithMemory(16 * 1024))
	mb = core.MustNew(core.T424().WithMemory(16 * 1024))
	ea, eb = NewEngine(pa, ma), NewEngine(pb, mb)
	Connect(ea, 1, eb, 0)
	return
}

// TestStreamAllocGuard: streaming machine memory between two engines on
// separate shards allocates the same whether the message is 1 KiB or
// 4 KiB, in every protocol mode — nothing is allocated per byte, per
// frame or per window.
func TestStreamAllocGuard(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, mode := range []string{"plain", "stopwait", "reliable"} {
		c, ma, mb, ea, eb := portPair(1, false)
		ea.SetStopAndWait(mode == "stopwait")
		eb.SetStopAndWait(mode == "stopwait")
		ea.SetReliable(mode == "reliable", 0, 0)
		eb.SetReliable(mode == "reliable", 0, 0)
		done := 0
		count := func() { done++ }
		stream := func(n int) func() {
			return func() {
				eb.BeginInput(0, mb.MemStart()+8192, n, count)
				ea.BeginOutput(1, ma.MemStart(), n, count)
				c.Run()
			}
		}
		stream(4096)() // warm-up: rings, outboxes and slot tables reach their size
		small := testing.AllocsPerRun(3, stream(1024))
		large := testing.AllocsPerRun(3, stream(4096))
		if done != 2*(1+4+4) {
			t.Fatalf("%s: %d transfer ends completed, want %d", mode, done, 2*9)
		}
		if large > small+4 {
			t.Errorf("%s: 4 KiB allocates %v, 1 KiB %v: allocation grows with the byte count",
				mode, large, small)
		}
	}
}

// cutOutcome is everything observable about one TestCutOvertakesFrame
// run: every frame each end put on its wire and when, and where the two
// transfers stood when the system went quiet.
type cutOutcome struct {
	frames   [2][]string
	sent     int
	received int
	failed   bool
	end      sim.Time
}

// runCut streams four bytes from a to b and has b pull the cable while
// byte 1's frame — already posted — is still in flight.
func runCut(workers int, fused, reliable bool) cutOutcome {
	c, ma, mb, ea, eb := portPair(workers, fused)
	ea.SetReliable(reliable, 0, 0)
	eb.SetReliable(reliable, 0, 0)
	var out cutOutcome
	// Each end's fault hook sees its own transmissions, on its own port.
	for i, e := range []*Engine{ea, eb} {
		e.SetFaultHook(i^1, func(isCtl bool) FaultAction {
			out.frames[i] = append(out.frames[i], fmt.Sprintf("%v ctl=%v", e.k.Now(), isCtl))
			return FaultAction{}
		})
	}
	eb.BeginInput(0, mb.MemStart()+64, 4, nil)
	ea.BeginOutput(1, ma.MemStart(), 4, nil)
	// Byte 1 starts when byte 0 is acknowledged and out: at one data
	// frame in plain mode, a data frame and an acknowledge in reliable
	// mode.  The cut falls four bit times into it.
	cut := sim.Time(DataBits+4) * BitNs
	if reliable {
		cut = sim.Time(RelDataBits+RelAckBits+4) * BitNs
	}
	eb.k.Schedule(cut, func() { eb.SeverLink(0) })
	out.end = c.Run()
	out.sent = ea.outs[1].sent
	out.received = eb.ins[0].received
	out.failed = ea.outs[1].failed()
	return out
}

// TestCutOvertakesFrame: a frame already posted toward the receiver
// when the receiver-side gate closes is not delivered, and its sender
// is still told its bits are out — plain mode moves on to the next
// byte, reliable mode arms the retry timer that ends in a link-down
// verdict.  The run is identical across shards and fused, at one worker
// and four.
func TestCutOvertakesFrame(t *testing.T) {
	for _, reliable := range []bool{false, true} {
		want := runCut(1, false, reliable)
		if want.received != 1 {
			t.Errorf("reliable=%v: receiver took %d bytes, want only the one that landed before the cut",
				reliable, want.received)
		}
		if reliable {
			// Byte 1's bits went out, so its retries ran: without the
			// sender-side completion the timer would never be armed.
			if !want.failed || want.sent != 1 {
				t.Errorf("reliable: sender at byte %d failed=%v, want byte 1 retried to link-down",
					want.sent, want.failed)
			}
		} else if want.sent != 2 {
			// Byte 1 was acknowledged at reception start, before the cut;
			// hearing its bits leave is what moves the sender to byte 2.
			t.Errorf("plain: sender at byte %d, want 2", want.sent)
		}
		for _, fused := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				got := runCut(workers, fused, reliable)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("reliable=%v fused=%v workers=%d:\n got %v\nwant %v",
						reliable, fused, workers, got, want)
				}
			}
		}
	}
}
