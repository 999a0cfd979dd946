package network_test

import (
	"fmt"
	"strings"
	"testing"

	"transputer/internal/core"
	"transputer/internal/link"
	"transputer/internal/network"
	"transputer/internal/probe"
	"transputer/internal/sim"
)

// altOnLink3 waits in an ALT whose one guard is link 3's input.
const altOnLink3 = `
	alt
	ldc 1
	mint
	ldnlp 7        -- link 3 in
	enbc
	altwt
	ldc b-dend
	ldc 1
	mint
	ldnlp 7
	disc
	altend
dend:
b:
	stopp
`

// TestUnwiredLinkHangs: an output and an ALT on links nothing is wired
// to wait for ever, as on real hardware, whatever mode the links are
// in: the system settles, the watchdog names the output's link and the
// ALT's wait, and the probe stream is the one pinned below — the
// output's start and no link event after it, since neither end has a
// wire.
func TestUnwiredLinkHangs(t *testing.T) {
	for _, reliable := range []bool{false, true} {
		s := network.NewSystem()
		bus := probe.NewBus()
		var events []string
		bus.Subscribe(func(e probe.Event) {
			events = append(events, fmt.Sprintf("%v %s %v link %d", e.Time, e.Node, e.Kind, e.Link))
		})
		s.AttachProbe(bus)
		if reliable {
			s.SetReliable()
		}
		a := s.MustAddTransputer("a", cfg())
		b := s.MustAddTransputer("b", cfg())
		s.MustConnect(a, 0, b, 0)
		load(t, a, "\tldc 1\n\tmint\n\tldnlp 2        -- link 2 out\n\toutword\n\tstopp\n")
		load(t, b, altOnLink3)
		rep := s.Run(sim.Millisecond)
		if !rep.Settled || len(rep.Blocked) != 2 {
			t.Fatalf("reliable=%v: settled %v, blocked %v", reliable, rep.Settled, rep.Blocked)
		}
		wd := s.Watchdog()
		if len(wd.Procs) != 2 || wd.Procs[0].Kind != core.BlockLinkOut || wd.Procs[0].Link != 2 ||
			wd.Procs[1].Kind != core.BlockAlt || len(wd.DownLinks) != 0 {
			t.Errorf("reliable=%v: watchdog\n%s", reliable, wd)
		}
		for _, n := range []*network.Node{a, b} {
			for l := 1; l < 4; l++ {
				if n.Engine.Connected(l) {
					t.Errorf("reliable=%v: %s.%d is wired", reliable, n.Name, l)
				}
			}
		}
		want := []string{
			"200ns a link.xfer.start link 2",
			"200ns a proc.stop link 0",
			"750ns b proc.stop link 0",
			"750ns a deadlock link 2",
			"750ns b deadlock link -1",
		}
		if got := strings.Join(events, "\n"); got != strings.Join(want, "\n") {
			t.Errorf("reliable=%v: events\n%s\nwant\n%s", reliable, got, strings.Join(want, "\n"))
		}
	}
}

// TestReliableBeforeConnect: SetReliable reaches link halves the
// wiring allocates after it, so switching the system to the
// error-detecting mode before its links are wired shows in neither the
// answer, its time nor either wire's counters.
func TestReliableBeforeConnect(t *testing.T) {
	type result struct {
		got    uint64
		at     sim.Time
		ab, ba link.WireStats
	}
	run := func(first bool) result {
		s := network.NewSystem()
		a := s.MustAddTransputer("a", cfg())
		b := s.MustAddTransputer("b", cfg())
		if first {
			s.SetReliable()
		}
		s.MustConnect(a, 1, b, 0)
		if !first {
			s.SetReliable()
		}
		load(t, a, "\tldc 1234\n\tmint\n\tldnlp 1        -- link 1 out\n\toutword\n\tstopp\n")
		load(t, b, "\tldlp 1\n\tmint\n\tldnlp 4        -- link 0 in\n\tldc 4\n\tin\n\tstopp\n")
		rep := s.Run(sim.Millisecond)
		if !rep.Settled || len(rep.Blocked) != 0 {
			t.Fatalf("first=%v: %+v", first, rep)
		}
		return result{b.M.Local(1), rep.Time, a.Engine.WireStats(1), b.Engine.WireStats(0)}
	}
	after, before := run(false), run(true)
	if after.got != 1234 || after.ab.BusyNs != 4*link.RelDataBits*link.BitNs {
		t.Errorf("received %d, the data wire busy %d ns: want 1234 in error-detecting frames", after.got, after.ab.BusyNs)
	}
	if before != after {
		t.Errorf("SetReliable before Connect: %+v, after it: %+v", before, after)
	}
}
