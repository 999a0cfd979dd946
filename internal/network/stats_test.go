package network_test

import (
	"testing"

	"transputer/internal/apps/sieve"
	"transputer/internal/link"
	"transputer/internal/network"
	"transputer/internal/probe"
	"transputer/internal/sim"
)

// TestExternalCommCounters sends one word across a link and checks the
// external communication counters on both ends, plus the wire-level
// traffic statistics surfaced by the link engine.
func TestExternalCommCounters(t *testing.T) {
	s := network.NewSystem()
	a := s.MustAddTransputer("a", cfg())
	b := s.MustAddTransputer("b", cfg())
	s.MustConnect(a, 0, b, 0)
	load(t, a, "\tldc 7\n\tmint\n\toutword\n\tstopp\n")
	load(t, b, "\tldlp 1\n\tmint\n\tldnlp 4\n\tldc 4\n\tin\n\tstopp\n")
	rep := s.Run(sim.Millisecond)
	if !rep.Settled {
		t.Fatalf("did not settle: %+v", rep)
	}

	sa, sb := a.M.Stats(), b.M.Stats()
	if sa.ExternalOut != 1 || sa.MessagesOut != 1 || sa.BytesOut != 4 {
		t.Errorf("a: out=%d msgs=%d bytes=%d, want 1/1/4",
			sa.ExternalOut, sa.MessagesOut, sa.BytesOut)
	}
	if sb.ExternalIn != 1 || sb.MessagesIn != 1 || sb.BytesIn != 4 {
		t.Errorf("b: in=%d msgs=%d bytes=%d, want 1/1/4",
			sb.ExternalIn, sb.MessagesIn, sb.BytesIn)
	}

	// Wire statistics: a's outgoing line carried 4 data bytes of 11 bit
	// times each; b's outgoing line carried the 4 acknowledges of 2 bit
	// times each.
	wa := a.Engine.WireStats(0)
	if wa.DataBytes != 4 || wa.Acks != 0 {
		t.Errorf("a wire = %+v, want 4 data bytes", wa)
	}
	if want := int64(4 * link.DataBits * link.BitNs); wa.BusyNs != want {
		t.Errorf("a wire busy = %d ns, want %d", wa.BusyNs, want)
	}
	wb := b.Engine.WireStats(0)
	if wb.DataBytes != 0 || wb.Acks != 4 {
		t.Errorf("b wire = %+v, want 4 acks", wb)
	}
	if want := int64(4 * link.AckBits * link.BitNs); wb.BusyNs != want {
		t.Errorf("b wire busy = %d ns, want %d", wb.BusyNs, want)
	}
}

// TestSystemProbeEvents attaches a probe bus to a two-node system and
// checks events arrive from every layer: scheduler, channel/link
// transfer, and wire.
func TestSystemProbeEvents(t *testing.T) {
	s := network.NewSystem()
	a := s.MustAddTransputer("a", cfg())
	b := s.MustAddTransputer("b", cfg())
	s.MustConnect(a, 0, b, 0)
	load(t, a, "\tldc 7\n\tmint\n\toutword\n\tstopp\n")
	load(t, b, "\tldlp 1\n\tmint\n\tldnlp 4\n\tldc 4\n\tin\n\tstopp\n")

	bus := probe.NewBus()
	byNodeKind := map[string]map[probe.Kind]int{}
	bus.Subscribe(func(e probe.Event) {
		if byNodeKind[e.Node] == nil {
			byNodeKind[e.Node] = map[probe.Kind]int{}
		}
		byNodeKind[e.Node][e.Kind]++
	})
	s.AttachProbe(bus)

	if rep := s.Run(sim.Millisecond); !rep.Settled {
		t.Fatalf("did not settle: %+v", rep)
	}
	for _, node := range []string{"a", "b"} {
		kinds := byNodeKind[node]
		if kinds[probe.ProcDispatch] == 0 {
			t.Errorf("%s: no dispatch events", node)
		}
		if kinds[probe.LinkXferStart] == 0 || kinds[probe.LinkXferEnd] == 0 {
			t.Errorf("%s: no link transfer events (%v)", node, kinds)
		}
		if kinds[probe.WirePacket] == 0 {
			t.Errorf("%s: no wire events", node)
		}
	}
	// a's wire carries data packets; b's the acknowledges.
	if byNodeKind["a"][probe.WirePacket] != 4 {
		t.Errorf("a wire packets = %d, want 4 data bytes", byNodeKind["a"][probe.WirePacket])
	}
	if byNodeKind["b"][probe.WirePacket] != 4 {
		t.Errorf("b wire packets = %d, want 4 acks", byNodeKind["b"][probe.WirePacket])
	}
}

// TestTotalStats: the system-wide totals are the per-node counters
// folded together.
func TestTotalStats(t *testing.T) {
	s, err := sieve.Build(sieve.Params{Limit: 20, Stages: 8})
	if err != nil {
		t.Fatal(err)
	}
	s.Net.Run(sim.Second)
	total := s.Net.TotalStats()
	if total.Instructions == 0 || total.Cycles == 0 {
		t.Error("aggregate stats empty")
	}
	// Messages out across the system must equal messages in: every
	// communication has two ends.
	if total.ExternalOut == 0 {
		t.Error("no external traffic counted")
	}
	var sum uint64
	for _, n := range s.Net.Nodes() {
		sum += n.M.Stats().Instructions
	}
	if sum != total.Instructions {
		t.Errorf("aggregate %d != per-node sum %d", total.Instructions, sum)
	}
}
