package matrix

import (
	"fmt"
	"strings"
	"testing"
)

// The rows no older test name runs: internal/network and internal/tool
// run the rest (their matrix_test.go files).

func TestSelfHealingTopologies(t *testing.T) { Run(t, "healed-ring.tnet", "restart-grid.tnet") }

func TestQuickstartAsANetworkOfOne(t *testing.T) { Run(t, "squares.occ") }

// The 16-bit T222 streams as the T424 does: two-byte words through the
// link layer, the same on every leg.
func TestSixteenBitStreamingRing(t *testing.T) { Run(t, "16-bit streaming ring") }

// The router keeps a pump and a send slot on every vchan of a
// multiplexed wire (route.Router over link.Engine's vchans).
func TestRoutedVChanRing(t *testing.T) { Run(t, "routed vchan ring") }

func TestChaosPlansReplay(t *testing.T) {
	var plans []string
	for _, sc := range chaosPlans() {
		plans = append(plans, sc.Name)
	}
	Run(t, plans...)
}

// TestLegs holds the pruning rule to what it promises.  A network has
// five engines a bus mode — one shard and one shard a node, each cached
// and not, and one shard a node on four threads — and two partitions,
// each reached by derivation and by SetPlacement; a network of one has
// two engines and one partition.
func TestLegs(t *testing.T) {
	for nodes, want := range map[int]struct{ legs, engines, reached int }{1: {4, 4, 2}, 2: {11, 10, 4}, 9: {11, 10, 4}} {
		legs := Legs(nodes)
		if legs[0] != Reference(false) || legs[1] != Reference(true) {
			t.Errorf("%d nodes: the references do not come first: %v", nodes, legs[:2])
		}
		engines, reached := map[string]int{}, map[string]bool{}
		for _, l := range legs {
			n := l.shards(nodes)
			engines[fmt.Sprint(n, min(l.Workers, n), l.Cache, l.Bus)]++
			reached[fmt.Sprint(n, l.Place != Derived)] = true
		}
		if len(legs) != want.legs || len(engines) != want.engines || len(reached) != want.reached {
			t.Errorf("%d nodes: %d legs, %d engines, partitions reached %d ways, want %+v:\n%v",
				nodes, len(legs), len(engines), len(reached), want, legs)
		}
	}
}

// TestGoldenFile: one line a scenario and bus mode, no line for a
// scenario that is gone, and a header that says where it was made.
func TestGoldenFile(t *testing.T) {
	if !strings.Contains(golden, "Generated on linux/"+goldenArch) {
		t.Errorf("golden.txt does not say it was generated on linux/%s", goldenArch)
	}
	lines := map[string]int{}
	for _, line := range strings.Split(golden, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		f := strings.SplitN(line, " ", 3)
		if len(f) != 3 || len(f[0]) != 64 || f[1] != "detached" && f[1] != "attached" || Lookup(f[2]) == nil {
			t.Errorf("golden.txt: %q is not \"<sha256> detached|attached <scenario>\"", line)
			continue
		}
		lines[f[1]+" "+f[2]]++
	}
	for _, sc := range Scenarios {
		for _, mode := range []string{"detached", "attached"} {
			if n := lines[mode+" "+sc.Name]; n != 1 {
				t.Errorf("golden.txt has %d lines for %q %s, want 1", n, sc.Name, mode)
			}
		}
	}
}
