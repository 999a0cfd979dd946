package chaos

import (
	"strings"
	"testing"

	"transputer/internal/fault"
	"transputer/internal/network"
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
				if r.Kind == fault.Restart {
					if r.At-halts[r.Node] < minOutage {
						t.Errorf("%s seed %d: outage of %q too short: %v",
							topo, seed, r.Node, r.At-halts[r.Node])
					}
				}
			}
		}
	}
}

// TestCampaignSmoke runs a few seeds end to end on both topologies,
// with the worker-count determinism cross-check on.
func TestCampaignSmoke(t *testing.T) {
	for _, topo := range Topologies() {
		for seed := uint64(1); seed <= 5; seed++ {
			sc, err := Generate(topo, seed)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(sc, 4)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Ok() {
				t.Errorf("%s seed %d failed:\n  %s", topo, seed,
					strings.Join(res.Failures, "\n  "))
			}
		}
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
	if !topo.Route || !topo.Heartbeat || !topo.LinkMode.Reliable {
		t.Error("rendered topology is missing the self-healing directives")
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
