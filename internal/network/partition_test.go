package network_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"transputer/internal/apps/dbsearch"
	"transputer/internal/bench"
	"transputer/internal/core"
	"transputer/internal/fault"
	"transputer/internal/link"
	"transputer/internal/network"
	"transputer/internal/probe"
	"transputer/internal/route"
	"transputer/internal/sim"
)

// The partition is decided when the run starts — one shard at one
// worker, one a node above it, or whatever SetPlacement said — and it
// must be invisible.  These tests hold the derived partitions against
// the pinned one-shard-a-node run, the mailbox-and-barrier path a
// sequential run used to take, on everything a run shows.

// pinPrivate makes the placement explicit with every node alone on a
// shard, whatever the worker count: the way to ask for the mailbox and
// barrier path now that one worker no longer implies it.
func pinPrivate(t testing.TB, s *network.System) {
	t.Helper()
	groups := make([][]string, len(s.Nodes()))
	for i, n := range s.Nodes() {
		groups[i] = []string{n.Name}
	}
	if err := s.SetPlacement(groups); err != nil {
		t.Fatal(err)
	}
}

// partitionScenario builds a system and says how to run it; extra is
// whatever else the scenario shows (answers, deliveries).
type partitionScenario struct {
	name  string
	build func(t *testing.T) (s *network.System, run func() (rep network.Report, extra string))
}

func plainRun(s *network.System, limit sim.Time) func() (network.Report, string) {
	return func() (network.Report, string) { return s.Run(limit), "" }
}

var partitionScenarios = []partitionScenario{
	{"ring", func(t *testing.T) (*network.System, func() (network.Report, string)) {
		s, err := bench.Ring(8)
		if err != nil {
			t.Fatal(err)
		}
		return s, plainRun(s, sim.Second)
	}},
	{"grid", func(t *testing.T) (*network.System, func() (network.Report, string)) {
		s, err := bench.Grid(3)
		if err != nil {
			t.Fatal(err)
		}
		return s, plainRun(s, sim.Second)
	}},
	{"vchan pair", func(t *testing.T) (*network.System, func() (network.Report, string)) {
		s, err := bench.VCFan(8)
		if err != nil {
			t.Fatal(err)
		}
		return s, plainRun(s, sim.Second)
	}},
	{"dbsearch 16", func(t *testing.T) (*network.System, func() (network.Report, string)) {
		db, err := dbsearch.Build(dbsearch.Defaults16())
		if err != nil {
			t.Fatal(err)
		}
		return db.Net, func() (network.Report, string) {
			counts, rep := db.RunSearches([]int64{3, 11}, sim.Second)
			return rep, fmt.Sprint(counts)
		}
	}},
	// A wire cut for good, and a node that loses power and comes back:
	// the cut retires a pair from the wiring matrix mid-run, the restart
	// needs its pairs kept there — both decided from the fault plan before
	// the partition exists — with heartbeats and the routing layer on
	// every node, a bounded Run and a Continue.
	{"severed and restored ring", func(t *testing.T) (*network.System, func() (network.Report, string)) {
		s := network.NewSystem()
		nodes := make([]*network.Node, 5)
		for i := range nodes {
			nodes[i] = s.MustAddTransputer(fmt.Sprintf("n%d", i), core.T424().WithMemory(64*1024))
		}
		for i, n := range nodes {
			s.MustConnect(n, 0, nodes[(i+1)%len(nodes)], 1)
		}
		s.SetLinkMode(network.LinkMode{Reliable: true})
		s.SetHeartbeat(0, 0)
		r, err := route.Attach(s, route.Config{})
		if err != nil {
			t.Fatal(err)
		}
		err = s.ApplyFaults(fault.Plan{Seed: 5, Rules: []fault.Rule{
			{Kind: fault.Sever, Node: "n0", Link: 0, At: 200 * sim.Microsecond},
			{Kind: fault.Halt, Node: "n3", Link: -1, At: 300 * sim.Microsecond},
			{Kind: fault.Restart, Node: "n3", Link: -1, At: 900 * sim.Microsecond},
		}})
		if err != nil {
			t.Fatal(err)
		}
		for i, at := range []sim.Time{50 * sim.Microsecond, 250 * sim.Microsecond, 400 * sim.Microsecond, 2 * sim.Millisecond} {
			for _, pair := range [][2]string{{"n0", "n1"}, {"n1", "n4"}, {"n2", "n3"}, {"n4", "n2"}} {
				if _, err := r.SendAt(at, pair[0], pair[1], []byte(fmt.Sprintf("m%d %s->%s", i, pair[0], pair[1]))); err != nil {
					t.Fatal(err)
				}
			}
		}
		return s, func() (network.Report, string) {
			first := s.Run(6 * sim.Millisecond)
			r.Stop()
			s.StopHeartbeats()
			rep := s.Continue(first.Time + 4*sim.Millisecond)
			var extra bytes.Buffer
			fmt.Fprintf(&extra, "first %+v undelivered %d\n", first, r.Undelivered())
			for _, d := range r.AllDeliveries() {
				fmt.Fprintf(&extra, "%s %s %d %d %q\n", d.Origin, d.Dest, d.Seq, d.At, d.Payload)
			}
			if wd := s.Watchdog(); wd != nil {
				extra.WriteString(wd.String())
			}
			return rep, extra.String()
		}
	}},
}

// partitionOutcome is everything a run shows.
type partitionOutcome struct {
	Report   network.Report
	Extra    string
	Stats    []core.Stats
	Wires    [][core.NumLinks]link.WireStats
	Timeline []byte
	Flows    []byte
}

// runPartitioned runs a scenario observed (timeline and flow table, as
// tnet -timeline -flows renders them) and returns what it showed and
// how many shards it ran on.
func runPartitioned(t *testing.T, sc partitionScenario, workers int, cache, pinned bool) (partitionOutcome, int) {
	t.Helper()
	s, run := sc.build(t)
	s.SetWorkers(workers)
	s.SetBlockCache(cache)
	if pinned {
		pinPrivate(t, s)
	}
	bus := probe.NewBus()
	timeline, flows := probe.NewTimeline(bus), probe.NewFlowTable(bus)
	s.AttachProbe(bus)
	var out partitionOutcome
	out.Report, out.Extra = run()
	for _, n := range s.Nodes() {
		out.Stats = append(out.Stats, n.M.Stats())
		var w [core.NumLinks]link.WireStats
		for l := range w {
			w[l] = n.Engine.WireStats(l)
		}
		out.Wires = append(out.Wires, w)
	}
	var tl, fl bytes.Buffer
	if err := timeline.WriteChromeTrace(&tl); err != nil {
		t.Fatal(err)
	}
	flows.Finish(out.Report.Time)
	if err := flows.WriteJSON(&fl); err != nil {
		t.Fatal(err)
	}
	out.Timeline, out.Flows = tl.Bytes(), fl.Bytes()
	if timeline.Len() == 0 {
		t.Fatalf("%s: the run published no events", sc.name)
	}
	return out, s.EngineStats().Shards
}

// TestDerivedPartitionInvisible: derived placement at workers {1, 4} ×
// block cache against the pinned one-shard-a-node run.
func TestDerivedPartitionInvisible(t *testing.T) {
	for _, sc := range partitionScenarios {
		t.Run(sc.name, func(t *testing.T) {
			want, shards := runPartitioned(t, sc, 1, true, true)
			nodes := len(want.Stats)
			if shards != nodes {
				t.Errorf("pinned: %d shards for %d nodes", shards, nodes)
			}
			for _, workers := range []int{1, 4} {
				for _, cache := range []bool{true, false} {
					what := fmt.Sprintf("derived workers=%d cache=%v", workers, cache)
					got, shards := runPartitioned(t, sc, workers, cache, false)
					if wantShards := map[int]int{1: 1, 4: nodes}[workers]; shards != wantShards {
						t.Errorf("%s: %d shards, want %d", what, shards, wantShards)
					}
					if !reflect.DeepEqual(got.Report, want.Report) {
						t.Errorf("%s: report %+v, want %+v", what, got.Report, want.Report)
					}
					if got.Extra != want.Extra {
						t.Errorf("%s: scenario output differs:\n%s\n--- want ---\n%s", what, got.Extra, want.Extra)
					}
					if !reflect.DeepEqual(got.Stats, want.Stats) {
						t.Errorf("%s: per-node stats differ", what)
					}
					if !reflect.DeepEqual(got.Wires, want.Wires) {
						t.Errorf("%s: wire stats differ", what)
					}
					if !bytes.Equal(got.Timeline, want.Timeline) {
						t.Errorf("%s: timeline differs (%d bytes, want %d)", what, len(got.Timeline), len(want.Timeline))
					}
					if !bytes.Equal(got.Flows, want.Flows) {
						t.Errorf("%s: flow table differs (%d bytes, want %d)", what, len(got.Flows), len(want.Flows))
					}
				}
			}
		})
	}
}

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
