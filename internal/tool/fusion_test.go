package tool

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"transputer/internal/network"
	"transputer/internal/sim"
)

// How a -fuse mode becomes a placement, and how -enginestats names it.
// That no placement shows in any output is the determinism matrix's to
// check (internal/matrix: every shipped topology on every leg, through
// RunNet).

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

// TestEngineStatsCreditLineIgnoresThePartition: of everything
// -enginestats prints, the acknowledge-credit line alone describes what
// the links did rather than how the nodes were grouped, so the shipped
// ring reports the same counts on one shard at one worker, a shard a
// node at four, and the explicit reference partition: every message is
// one word, whose first byte draws the real acknowledge carrying the
// grant for the other three.  A run that is watched takes the
// per-packet path.
func TestEngineStatsCreditLineIgnoresThePartition(t *testing.T) {
	src, err := os.ReadFile("../../examples/netdemo/ring.tnet")
	if err != nil {
		t.Fatal(err)
	}
	creditLine := func(f NetFlags) string {
		f.EngineStats, f.BlockCache = true, true
		var stdout, stderr bytes.Buffer
		topo, err := network.ParseTopology(string(src))
		if err != nil {
			t.Fatal(err)
		}
		if exit := RunNet(f, topo, "../../examples/netdemo", &stdout, &stderr); exit != 0 {
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
	for _, f := range []NetFlags{{Workers: 1, Fuse: "topo"}, {Workers: 4, Fuse: "topo"}, {Workers: 1, Fuse: "off"}} {
		if got := creditLine(f); got != want {
			t.Errorf("workers=%d fuse=%s:\n got %s\nwant %s", f.Workers, f.Fuse, got, want)
		}
	}
	const none = "engine: credit 0 grants, 0 acknowledges credited, 0 revoked (0 bytes un-acknowledged), " +
		"0 bytes un-acknowledged by cuts, 0 late completions"
	if got := creditLine(NetFlags{Workers: 1, Fuse: "topo", Metrics: true}); got != none {
		t.Errorf("-metrics:\n got %s\nwant %s", got, none)
	}
}

// TestResolveFusionIsExplicit: off names every node, so the worker
// count has no say in the partition; a directive-free topo leaves it
// one.
func TestResolveFusionIsExplicit(t *testing.T) {
	for mode, want := range map[string][][]string{
		"off":  {{"a"}, {"b"}, {"c"}},
		"topo": nil,
	} {
		topo := &network.Topology{Transputers: []network.TransputerSpec{{Name: "a"}, {Name: "b"}, {Name: "c"}}}
		if err := ResolveFusion(topo, mode); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(topo.Shards, want) {
			t.Errorf("-fuse %s: placement %v, want %v", mode, topo.Shards, want)
		}
	}
}

// TestUnknownFuseModeRejected: a mode outside FuseModes — including
// greedy, auto and full, which used to be modes — is an error naming
// the accepted values, from ResolveFusion and from tnet (exit 1), and
// leaves the topology's own placement alone.
func TestUnknownFuseModeRejected(t *testing.T) {
	for _, mode := range []string{"greedy", "auto", "full", "bogus"} {
		topo := &network.Topology{Shards: [][]string{{"a", "b"}}}
		err := ResolveFusion(topo, mode)
		want := fmt.Sprintf("unknown fuse mode %q (want off|topo)", mode)
		if err == nil || err.Error() != want {
			t.Errorf("ResolveFusion(%q) = %v, want %q", mode, err, want)
		}
		if len(topo.Shards) != 1 {
			t.Errorf("ResolveFusion(%q) changed the placement: %v", mode, topo.Shards)
		}
		var stdout, stderr bytes.Buffer
		one := &network.Topology{Transputers: []network.TransputerSpec{{Name: "a", Model: "t424"}}}
		exit := RunNet(NetFlags{Tool: "tnet", Workers: 1, BlockCache: true, Fuse: mode}, one, "", &stdout, &stderr)
		if exit != 1 || stderr.String() != "tnet: "+want+"\n" {
			t.Errorf("tnet -fuse %s exited %d saying %q, want 1 and %q", mode, exit, stderr.String(), want)
		}
	}
}
