package tool

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"transputer/internal/network"
	"transputer/internal/sim"
)

// Shard fusion's contract is the parallel engine's, one level up: the
// partition is invisible.  The same topology run with one shard per
// node, everything fused onto one shard, or an adaptively chosen
// grouping — at any worker count, with or without the block cache —
// produces byte-identical timelines, flow traces, stats and host
// output.  These tests pin that for the shipped examples the sweep
// script exercises in CI.

// runFusedNet loads a topology, applies a fusion mode, and runs it
// with the given worker count and block-cache setting, capturing every
// observable output (see netOutput in parallel_test.go).
func runFusedNet(t *testing.T, path, tlPath, flPath, fuse string, workers int, blockcache bool) netOutput {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := network.ParseTopology(string(src))
	if err != nil {
		t.Fatal(err)
	}
	if err := ResolveFusion(topo, fuse, filepath.Dir(path), workers); err != nil {
		t.Fatal(err)
	}
	var hostOut bytes.Buffer
	net, err := BuildNetwork(topo, filepath.Dir(path), &hostOut)
	if err != nil {
		t.Fatal(err)
	}
	s := net.System
	s.SetWorkers(workers)
	s.SetBlockCache(blockcache)
	obs := NewObserver(s)
	obs.EnableTimeline(tlPath)
	obs.EnableFlows(flPath, LineResolver(net.Programs))
	obs.Start()
	rep := s.Run(net.Limit)

	var text bytes.Buffer
	fmt.Fprintf(&text, "settled=%v time=%v halted=%v blocked=%v\n",
		rep.Settled, rep.Time, rep.Halted, rep.Blocked)
	text.Write(hostOut.Bytes())
	if wd := s.Watchdog(); wd != nil {
		PrintWatchdog(&text, wd, LineResolver(net.Programs))
	}
	for _, n := range s.Nodes() {
		PrintStats(&text, n.Name, n.M.Stats(), n.M.Config().CycleNs)
		PrintLinkStats(&text, n)
	}
	if err := obs.Finish(rep.Time, &text); err != nil {
		t.Fatal(err)
	}
	tl, err := os.ReadFile(tlPath)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := os.ReadFile(flPath)
	if err != nil {
		t.Fatal(err)
	}
	return netOutput{time: rep.Time, timeline: tl, flows: fl, text: text.String(),
		nodes: len(s.Nodes()), shards: s.EngineStats().Shards}
}

// assertFusionInvariant runs one topology across the partition ×
// workers × blockcache grid and requires every output byte-identical
// to the unfused workers=1 reference — `-fuse off`, one shard a node
// on one goroutine: the sequential mailbox-and-barrier run.  The
// shipped examples carry no `shard` directives, so `topo` is the leg
// where the worker count picks the partition.  Every run writes the
// timeline and flow trace to the same files (read back between runs),
// so the paths Finish prints into the compared text are identical too.
func assertFusionInvariant(t *testing.T, path string) {
	t.Helper()
	tlPath := filepath.Join(t.TempDir(), "tl.json")
	flPath := filepath.Join(t.TempDir(), "flows.json")
	ref := runFusedNet(t, path, tlPath, flPath, "off", 1, true)
	if ref.shards != ref.nodes {
		t.Fatalf("-fuse off: %d nodes on %d shards", ref.nodes, ref.shards)
	}
	for _, fuse := range []string{"off", "topo", "auto", "full"} {
		for _, workers := range []int{1, 4} {
			for _, bc := range []bool{true, false} {
				if fuse == "off" && workers == 1 && bc {
					continue
				}
				got := runFusedNet(t, path, tlPath, flPath, fuse, workers, bc)
				label := fmt.Sprintf("fuse=%s workers=%d blockcache=%v", fuse, workers, bc)
				// What auto picks is the planner's business; the rest is fixed.
				if want, fixed := map[string]int{"off": got.nodes, "full": 1,
					"topo": map[int]int{1: 1, 4: got.nodes}[workers]}[fuse]; fixed && got.shards != want {
					t.Errorf("%s: %d nodes on %d shards, want %d", label, got.nodes, got.shards, want)
				}
				if got.time != ref.time {
					t.Errorf("%s: settle time %v, want %v", label, got.time, ref.time)
				}
				if got.text != ref.text {
					t.Errorf("%s: stats/host output differs:\n--- reference ---\n%s\n--- got ---\n%s",
						label, ref.text, got.text)
				}
				if !bytes.Equal(got.timeline, ref.timeline) {
					t.Errorf("%s: timeline differs (%d bytes vs %d)", label, len(got.timeline), len(ref.timeline))
				}
				if !bytes.Equal(got.flows, ref.flows) {
					t.Errorf("%s: flow trace differs (%d bytes vs %d)", label, len(got.flows), len(ref.flows))
				}
				if t.Failed() {
					t.Fatalf("%s: stopping after first divergence", label)
				}
			}
		}
	}
}

// TestFusionInvariantLossyLink: the seeded fault campaign — drops,
// corruption, retransmits — must not see the partition.
func TestFusionInvariantLossyLink(t *testing.T) {
	assertFusionInvariant(t, filepath.Join("..", "..", "examples", "faults", "lossy-link.tnet"))
}

// TestFusionInvariantSeveredRing: a timed cable cut and the deadlock
// watchdog's post-mortem, identical at every partition.
func TestFusionInvariantSeveredRing(t *testing.T) {
	assertFusionInvariant(t, filepath.Join("..", "..", "examples", "faults", "severed-ring.tnet"))
}

// TestFusionInvariantVChanSieve: virtual channels multiplexed over
// fused and unfused wires alike.
func TestFusionInvariantVChanSieve(t *testing.T) {
	assertFusionInvariant(t, filepath.Join("..", "..", "examples", "vchan", "sieve.tnet"))
}

// TestFusionInvariantRing: the plain message ring with a host end —
// the host shares its node's port, so fusing the ring also fuses the
// host protocol.
func TestFusionInvariantRing(t *testing.T) {
	assertFusionInvariant(t, filepath.Join("..", "..", "examples", "netdemo", "ring.tnet"))
}

// TestEngineStatsNamesThePartitionsOrigin: the first line -enginestats
// prints says whether the partition was derived from the worker count
// or made explicit, and by which mode.
func TestEngineStatsNamesThePartitionsOrigin(t *testing.T) {
	for _, c := range []struct {
		fuse    string
		workers int
		want    string
	}{
		{"", 1, "engine: 4 nodes on 1 shards (derived: 1 worker), "},
		{"", 4, "engine: 4 nodes on 1 shards (derived: 4 workers), "},
		{"off", 1, "engine: 4 nodes on 1 shards (explicit: off), "},
		{"topo", 4, "engine: 4 nodes on 1 shards (explicit: topo), "},
	} {
		var out bytes.Buffer
		PrintEngineStats(&out, sim.EngineStats{Ports: 4, Shards: 1}, PartitionOrigin(c.fuse, c.workers))
		if !bytes.HasPrefix(out.Bytes(), []byte(c.want)) {
			t.Errorf("fuse=%q workers=%d: %q, want it to start %q", c.fuse, c.workers, out.String(), c.want)
		}
	}
}

// TestResolveFusionIsExplicit: every mode but a directive-free topo
// names every node, so the worker count has no say in the partition.
func TestResolveFusionIsExplicit(t *testing.T) {
	fresh := func() *network.Topology {
		return &network.Topology{Transputers: []network.TransputerSpec{{Name: "a"}, {Name: "b"}, {Name: "c"}}}
	}
	for mode, want := range map[string][][]string{
		"off":  {{"a"}, {"b"}, {"c"}},
		"full": {{"a", "b", "c"}},
		"topo": nil,
	} {
		topo := fresh()
		if err := ResolveFusion(topo, mode, ".", 4); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(topo.Shards, want) {
			t.Errorf("-fuse %s: placement %v, want %v", mode, topo.Shards, want)
		}
	}
	// The planner's answer is a whole partition too, one-node parts
	// included: what it declined to fuse stays apart at one worker.
	got := network.GreedyFuse([]string{"a", "b", "c"}, []network.FuseEdge{{A: "a", B: "c", Weight: 9}, {A: "b", B: "c", Weight: 1}}, 1, 5)
	if want := [][]string{{"a", "c"}, {"b"}}; !reflect.DeepEqual(got, want) {
		t.Errorf("GreedyFuse = %v, want %v", got, want)
	}
}

// TestUnknownFuseModeRejected: a mode outside FuseModes — including
// greedy, which used to be one — is an error naming the accepted
// values, and leaves the topology's own placement alone.
func TestUnknownFuseModeRejected(t *testing.T) {
	for _, mode := range []string{"greedy", "bogus"} {
		topo := &network.Topology{Shards: [][]string{{"a", "b"}}}
		err := ResolveFusion(topo, mode, ".", 4)
		want := fmt.Sprintf("unknown fuse mode %q (want off|topo|auto|full)", mode)
		if err == nil || err.Error() != want {
			t.Errorf("ResolveFusion(%q) = %v, want %q", mode, err, want)
		}
		if len(topo.Shards) != 1 {
			t.Errorf("ResolveFusion(%q) changed the placement: %v", mode, topo.Shards)
		}
	}
}
