package network_test

import (
	"testing"

	"transputer/internal/core"
	"transputer/internal/network"
	"transputer/internal/sim"
)

// The partition is decided when the run starts — one shard at one
// worker, one a node above it, or whatever SetPlacement said.  That it
// is invisible is the determinism matrix's to check (internal/matrix,
// every leg of every scenario); these tests hold the rule itself.

// TestPartitionIgnoresCallOrder: the partition is taken from what the
// system knows when the run starts, so it does not matter whether
// SetWorkers or SetPlacement came before the nodes or after them (tnet
// sets workers after building the network).
func TestPartitionIgnoresCallOrder(t *testing.T) {
	names := []string{"n0", "n1", "n2", "n3"}
	stats := func(before, after func(s *network.System)) sim.EngineStats {
		img := ringImage(t, 64)
		s := network.NewSystem()
		before(s)
		nodes := make([]*network.Node, len(names))
		for i, name := range names {
			nodes[i] = s.MustAddTransputer(name, core.T424().WithMemory(16*1024))
			if err := nodes[i].Load(img); err != nil {
				t.Fatal(err)
			}
		}
		for i, n := range nodes {
			s.MustConnect(n, 1, nodes[(i+1)%len(nodes)], 0)
		}
		after(s)
		if rep := s.Run(sim.Second); !rep.Settled || len(rep.Blocked) > 0 {
			t.Fatalf("bad finish: %+v", rep)
		}
		es := s.EngineStats()
		es.BarrierWaitNs = 0 // wall clock
		return es
	}
	nothing := func(*network.System) {}
	for _, c := range []struct {
		name   string
		set    func(s *network.System)
		shards int
	}{
		{"one worker", func(s *network.System) { s.SetWorkers(1) }, 1},
		{"four workers", func(s *network.System) { s.SetWorkers(4) }, 4},
		{"pairs", func(s *network.System) {
			if err := s.SetPlacement([][]string{{"n0", "n1"}, {"n3", "n2"}}); err != nil {
				t.Fatal(err)
			}
		}, 2},
		{"one pinned alone, the rest private", func(s *network.System) {
			if err := s.SetPlacement([][]string{{"n2"}}); err != nil {
				t.Fatal(err)
			}
		}, 4},
	} {
		first, last := stats(c.set, nothing), stats(nothing, c.set)
		if first != last {
			t.Errorf("%s: set before the nodes %+v, after them %+v", c.name, first, last)
		}
		if first.Shards != c.shards || first.Ports != len(names) {
			t.Errorf("%s: %d ports on %d shards, want %d on %d", c.name, first.Ports, first.Shards, len(names), c.shards)
		}
		// Only a shard of several members scans them.
		if fused := c.shards < len(names); (first.Passes > 0) != fused || (first.LocalWindows > 0) != fused {
			t.Errorf("%s: %d member runs in %d scan passes", c.name, first.LocalWindows, first.Passes)
		}
	}
	// The worker count that holds is the one the run starts with.
	flipped := stats(func(s *network.System) { s.SetWorkers(4) }, func(s *network.System) { s.SetWorkers(1) })
	if one := stats(nothing, nothing); flipped != one {
		t.Errorf("workers 4 then 1: %+v, want the one-worker run's %+v", flipped, one)
	}
}

// TestPartitionSealedByRun: once a run has started the partition is
// fixed, and what would change it is refused instead of half-applied.
func TestPartitionSealedByRun(t *testing.T) {
	s := network.NewSystem()
	a := s.MustAddTransputer("a", core.T424().WithMemory(16*1024))
	b := s.MustAddTransputer("b", core.T424().WithMemory(16*1024))
	s.Run(sim.Microsecond)
	if _, err := s.AddTransputer("c", core.T424()); err == nil {
		t.Error("AddTransputer after Run succeeded")
	}
	if err := s.Connect(a, 0, b, 0); err == nil {
		t.Error("Connect after Run succeeded")
	}
	if err := s.SetPlacement([][]string{{"a", "b"}}); err == nil {
		t.Error("SetPlacement after Run succeeded")
	}
	if err := network.NewSystem().SetPlacement([][]string{{"a", "b"}, {"b"}}); err == nil {
		t.Error("a node named in two groups was accepted")
	}
}
