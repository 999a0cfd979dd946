package chaos

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"transputer/internal/fault"
	"transputer/internal/network"
	"transputer/internal/raceflag"
	"transputer/internal/sim"
)

// TestGenerateDeterministic: a scenario is a pure function of
// (topology, seed).
func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate("ring8", 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Generate("ring8", 7)
	if len(a.Rules) != len(b.Rules) || len(a.Messages) != len(b.Messages) {
		t.Fatalf("same seed, different scenarios: %+v vs %+v", a, b)
	}
	for i := range a.Rules {
		if a.Rules[i] != b.Rules[i] {
			t.Errorf("rule %d differs: %+v vs %+v", i, a.Rules[i], b.Rules[i])
		}
	}
	c, _ := Generate("ring8", 8)
	if len(a.Rules) == len(c.Rules) && len(a.Messages) == len(c.Messages) {
		same := true
		for i := range a.Rules {
			if a.Rules[i] != c.Rules[i] {
				same = false
			}
		}
		if same && len(a.Rules) > 0 {
			t.Error("different seeds produced identical rule sets")
		}
	}
}

// TestGenerateRespectsConstraints: generated plans obey the rules the
// network layer enforces, across many seeds.
func TestGenerateRespectsConstraints(t *testing.T) {
	for _, topo := range Topologies() {
		for seed := uint64(1); seed <= 200; seed++ {
			sc, err := Generate(topo, seed)
			if err != nil {
				t.Fatal(err)
			}
			if err := (fault.Plan{Seed: seed, Rules: sc.Rules}).Validate(); err != nil {
				t.Errorf("%s seed %d: invalid plan: %v", topo, seed, err)
			}
			halts := make(map[string]sim.Time)
			for _, r := range sc.Rules {
				if r.Kind == fault.Halt {
					halts[r.Node] = r.At
				}
			}
			for _, r := range sc.Rules {
				if r.Kind == fault.Restart && r.At <= halts[r.Node] {
					t.Errorf("%s seed %d: restart of %q at %v does not follow its halt at %v",
						topo, seed, r.Node, r.At, halts[r.Node])
				}
			}
		}
	}
}

// TestCampaignSmoke runs a few seeds end to end on both topologies,
// with the worker-count determinism cross-check on, and on ring8 two
// seeds of short outages: 30, whose n6 is back 10 µs after its halt,
// before any heartbeat notices, and 98, where both ends of the link
// n1–n2 halt and restart.
func TestCampaignSmoke(t *testing.T) {
	for _, topo := range Topologies() {
		seeds := []uint64{1, 2, 3, 4, 5}
		if topo == "ring8" {
			seeds = append(seeds, 30, 98)
		}
		for _, seed := range seeds {
			campaign(t, topo, seed)
		}
	}
}

// TestCampaign runs what CI's chaos job runs under the race detector,
// but for seeds 1 to 200 instead of 25: every seed on both topologies
// must pass.  It is too slow for -short and for the race detector, and
// skips under both.
func TestCampaign(t *testing.T) {
	if testing.Short() || raceflag.Enabled {
		t.Skip("200 seeds on both topologies: not under -short or -race")
	}
	for _, topo := range Topologies() {
		for seed := uint64(1); seed <= 200; seed++ {
			campaign(t, topo, seed)
		}
	}
}

// campaign generates and runs one scenario at four workers, as tchaos
// does, and reports its failures.
func campaign(t *testing.T, topo string, seed uint64) {
	t.Helper()
	sc, err := Generate(topo, seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() {
		t.Errorf("%s seed %d failed:\n  %s", topo, seed, strings.Join(res.Failures, "\n  "))
	}
}

// TestShrunkPlansDeliver replays the shrunk plans of two ring8 seeds
// that once lost a message between live, connected nodes: a heartbeat
// declared a link down at one end only, and that end reset its half of
// the byte stream.  Each plan must pass every invariant.
func TestShrunkPlansDeliver(t *testing.T) {
	for _, name := range []string{"ring8-seed354.tnet", "ring8-seed591.tnet"} {
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("testdata", name))
			if err != nil {
				t.Fatal(err)
			}
			topo, err := network.ParseTopology(string(src))
			if err != nil {
				t.Fatal(err)
			}
			sc := Scenario{Topo: "ring8", Seed: topo.Seed, Rules: topo.Faults,
				Messages: topo.Messages, RunLimit: topo.RunLimit}
			fails, err := evaluate(sc, 4)
			if err != nil {
				t.Fatal(err)
			}
			if len(fails) > 0 {
				t.Errorf("%s failed:\n  %s", name, strings.Join(fails, "\n  "))
			}
		})
	}
}

// TestTopologyFileReplays: the artifact a failing scenario writes must
// parse as a valid tnet topology carrying the same campaign.
func TestTopologyFileReplays(t *testing.T) {
	sc, err := Generate("grid3x3", 3)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := network.ParseTopology(sc.TopologyFile())
	if err != nil {
		t.Fatalf("rendered topology does not parse: %v\n%s", err, sc.TopologyFile())
	}
	if len(topo.Faults) != len(sc.Rules) {
		t.Errorf("rendered %d rules, scenario has %d", len(topo.Faults), len(sc.Rules))
	}
	if len(topo.Messages) != len(sc.Messages) {
		t.Errorf("rendered %d messages, scenario has %d", len(topo.Messages), len(sc.Messages))
	}
	if !topo.Route {
		t.Error("rendered topology is missing the route directive")
	}
	if topo.Seed != sc.Seed || topo.RunLimit != sc.RunLimit {
		t.Errorf("seed/limit lost in rendering: %d/%v", topo.Seed, topo.RunLimit)
	}
}

// TestDropRule: removing a halt takes its restart along.
func TestDropRule(t *testing.T) {
	rules := []fault.Rule{
		{Kind: fault.Sever, Node: "a", Link: 0, At: 1},
		{Kind: fault.Halt, Node: "b", Link: -1, At: 2},
		{Kind: fault.Restart, Node: "b", Link: -1, At: 500},
	}
	got := dropRule(rules, 1)
	if len(got) != 1 || got[0].Kind != fault.Sever {
		t.Errorf("dropRule(halt) = %+v, want just the sever", got)
	}
	got = dropRule(rules, 2)
	if len(got) != 2 {
		t.Errorf("dropRule(restart) = %+v, want sever+halt", got)
	}
}

// TestFinalTopology: the loss-excuse computation understands death and
// partition.
func TestFinalTopology(t *testing.T) {
	sc := Scenario{Topo: "ring8", Rules: []fault.Rule{
		{Kind: fault.Halt, Node: "n3", Link: -1, At: 100},
		{Kind: fault.Halt, Node: "n6", Link: -1, At: 100},
		{Kind: fault.Restart, Node: "n6", Link: -1, At: 5000},
	}}
	dead, comp := finalTopology(sc)
	if !dead["n3"] || dead["n6"] {
		t.Errorf("dead = %v", dead)
	}
	// n3 dead splits the ring into one arc: n4..n2 the long way round.
	if comp["n2"] != comp["n4"] {
		t.Error("ring minus one node should stay connected")
	}
	// Cutting a second, non-adjacent point partitions the arc.
	sc.Rules = append(sc.Rules, fault.Rule{Kind: fault.Sever, Node: "n0", Link: 0, At: 100})
	_, comp = finalTopology(sc)
	if comp["n1"] == comp["n7"] {
		t.Error("severed arc should be partitioned")
	}
}
