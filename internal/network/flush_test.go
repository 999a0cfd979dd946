package network

import (
	"fmt"
	"testing"

	"transputer/internal/core"
	"transputer/internal/occam"
	"transputer/internal/probe"
	"transputer/internal/sim"
)

// streamRing is an 8-node ring with every link streaming `rounds`
// words, a probe bus attached, and the collectors' backlog — events
// buffered and not yet published — measured at every flush.
func streamRing(t *testing.T, rounds int, pinned bool) (events, flushes, peak int) {
	t.Helper()
	r, err := occam.Compile(fmt.Sprintf(`DEF rounds = %d:
CHAN in, out:
PLACE in AT LINK0IN:
PLACE out AT LINK1OUT:
PROC src(CHAN out, VALUE rounds) =
  SEQ i = [0 FOR rounds]
    out ! i + i
:
PROC sink(CHAN in, VALUE rounds) =
  VAR x:
  SEQ i = [0 FOR rounds]
    in ? x
:
PAR
  src(out, rounds)
  sink(in, rounds)
`, rounds), occam.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSystem()
	nodes := make([]*Node, 8)
	var groups [][]string
	for i := range nodes {
		nodes[i] = s.MustAddTransputer(fmt.Sprintf("n%d", i), core.T424().WithMemory(16*1024))
		if err := nodes[i].Load(r.Image); err != nil {
			t.Fatal(err)
		}
		groups = append(groups, []string{nodes[i].Name})
	}
	for i, n := range nodes {
		s.MustConnect(n, 1, nodes[(i+1)%len(nodes)], 0)
	}
	if pinned {
		if err := s.SetPlacement(groups); err != nil {
			t.Fatal(err)
		}
	}
	bus := probe.NewBus()
	bus.Subscribe(func(probe.Event) { events++ })
	s.AttachProbe(bus)
	s.coord.OnFlush(func(upTo sim.Time, final bool) {
		backlog := 0
		for _, n := range s.nodes {
			backlog += len(n.col.buf) - n.col.next
		}
		flushes++
		peak = max(peak, backlog)
		s.flushProbes(upTo, final)
	})
	if rep := s.Run(sim.Second); !rep.Settled || len(rep.Blocked) > 0 {
		t.Fatalf("bad finish: %+v", rep)
	}
	return events, flushes, peak
}

// TestOneShardStreamsProbes: an observed run on one shard crosses one
// barrier, and must still hand its events to the bus as it goes — from
// the member loop, a pass at a time — instead of buffering the whole
// run in the collectors for the final flush.  The backlog a flush finds
// is what one pass of eight members can emit: it must not grow with the
// run, and must stay in the range the barrier path's does.
func TestOneShardStreamsProbes(t *testing.T) {
	shortEvents, _, shortPeak := streamRing(t, 64, false)
	events, flushes, peak := streamRing(t, 512, false)
	_, _, pinnedPeak := streamRing(t, 512, true)
	t.Logf("one shard: %d events, %d flushes, peak backlog %d (%d at an eighth of the traffic); one shard a node: peak %d",
		events, flushes, peak, shortPeak, pinnedPeak)
	if events < 7*shortEvents {
		t.Fatalf("%d events at 512 rounds, %d at 64: the long run is not longer", events, shortEvents)
	}
	if peak > shortPeak+16 {
		t.Errorf("peak backlog %d at 512 rounds, %d at 64: it grows with the run", peak, shortPeak)
	}
	if peak > 4*pinnedPeak {
		t.Errorf("peak backlog %d on one shard, %d on one shard a node", peak, pinnedPeak)
	}
	if peak*100 > events {
		t.Errorf("peak backlog %d of %d events: the run is being buffered", peak, events)
	}
}
