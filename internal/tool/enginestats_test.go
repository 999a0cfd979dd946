package tool_test

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"transputer/internal/matrix"
	"transputer/internal/network"
	"transputer/internal/tool"
)

// What -enginestats prints.  That no partition shows in any other
// output is the determinism matrix's to check (internal/matrix: every
// shipped topology on every leg, built by BuildNetwork and run by
// Network.Run).

// TestEnginePartitionFollowsWorkers: the partition is the worker
// count's, and -enginestats' first line says what it was: the shipped
// four-node ring runs on one shard at one worker and on a shard a node
// at four.
func TestEnginePartitionFollowsWorkers(t *testing.T) {
	for _, c := range []struct {
		workers int
		want    string
	}{
		{1, "engine: 4 nodes on 1 shards, "},
		{4, "engine: 4 nodes on 4 shards, "},
	} {
		topo := ringTopology(t)
		var stdout, stderr bytes.Buffer
		f := tool.NetFlags{Tool: "tnet", Workers: c.workers, EngineStats: true}
		if exit := tool.RunNet(f, topo, "../../examples/netdemo", &stdout, &stderr); exit != 0 {
			t.Fatalf("workers=%d: exit %d: %s", c.workers, exit, stderr.String())
		}
		_, engine, _ := strings.Cut(stderr.String(), "engine: ")
		if got := "engine: " + engine; !strings.HasPrefix(got, c.want) {
			t.Errorf("workers=%d: %q, want it to start %q", c.workers, got, c.want)
		}
	}
}

// ringTopology parses the shipped four-node ring.
func ringTopology(t *testing.T) *network.Topology {
	t.Helper()
	src, err := os.ReadFile("../../examples/netdemo/ring.tnet")
	if err != nil {
		t.Fatal(err)
	}
	topo, err := network.ParseTopology(string(src))
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestEngineStatsCreditLineIgnoresThePartition: of everything
// -enginestats prints, the acknowledge-credit line alone describes what
// the links did rather than how the nodes were grouped, so the shipped
// ring reports the same counts on one shard at one worker, a shard a
// node at four, and a shard a node at one (the stepwise reference's
// partition, set on the built system as the determinism matrix does):
// every message is one word, whose first byte draws the real
// acknowledge carrying the grant for the other three.  A run that is
// watched takes the per-packet path.
func TestEngineStatsCreditLineIgnoresThePartition(t *testing.T) {
	creditLine := func(f tool.NetFlags, private bool) string {
		f.EngineStats = true
		var stdout, stderr bytes.Buffer
		net, err := tool.BuildNetwork(ringTopology(t), "../../examples/netdemo", &stdout)
		if err != nil {
			t.Fatal(err)
		}
		if private {
			if err := net.System.SetPlacement(matrix.PrivateShards(net.System)); err != nil {
				t.Fatal(err)
			}
		}
		if exit := net.Run(f, &stderr); exit != 0 {
			t.Fatalf("%+v: exit %d: %s", f, exit, stderr.String())
		}
		for _, line := range strings.Split(stderr.String(), "\n") {
			if strings.HasPrefix(line, "engine: credit ") {
				return line
			}
		}
		t.Fatalf("%+v: no credit line in %q", f, stderr.String())
		return ""
	}
	const want = "engine: credit 16 grants, 48 acknowledges credited, 0 revoked (0 bytes un-acknowledged), " +
		"0 bytes un-acknowledged by cuts, 0 late completions"
	for _, c := range []struct {
		workers int
		private bool
	}{{1, false}, {4, false}, {1, true}} {
		if got := creditLine(tool.NetFlags{Workers: c.workers}, c.private); got != want {
			t.Errorf("workers=%d private=%v:\n got %s\nwant %s", c.workers, c.private, got, want)
		}
	}
	const none = "engine: credit 0 grants, 0 acknowledges credited, 0 revoked (0 bytes un-acknowledged), " +
		"0 bytes un-acknowledged by cuts, 0 late completions"
	if got := creditLine(tool.NetFlags{Workers: 1, Metrics: true}, false); got != none {
		t.Errorf("-metrics:\n got %s\nwant %s", got, none)
	}
}
