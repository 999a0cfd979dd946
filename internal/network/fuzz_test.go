package network_test

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"transputer/internal/matrix"
	"transputer/internal/network"
	"transputer/internal/sim"
	"transputer/internal/tool"
)

// FuzzParseTopology throws arbitrary text at the topology parser and
// checks its contract: no panic, a successful parse only ever wires
// declared nodes — and what parses runs (see runsTheSame).
func FuzzParseTopology(f *testing.F) {
	f.Add("transputer a t424\ntransputer b t424\nconnect a.0 b.1\n")
	f.Add("transputer a t424 mem=64K program=p.occ\nhost a.2\nrun 50ms\n")
	f.Add("# comment\n\ntransputer n t424\ninput n 1 2 3\n")
	f.Add("transputer a t424\ntransputer b t424\nconnect a.0 b.0\nvchan a.0 4\nroute on\n")
	f.Add("seed 42\nlinkmode detect\nheartbeat 1ms 5ms\n")
	f.Add("transputer a t424\nheartbeat\nrun -1ms\n")
	for _, ex := range []string{
		"../../examples/netdemo/ring.tnet",
		"../../examples/vchan/sieve.tnet",
		"../../examples/faults/healed-ring.tnet",
		"../../examples/faults/severed-ring.tnet",
		"../../examples/faults/restart-grid.tnet",
		"../../examples/faults/lossy-link.tnet",
	} {
		if b, err := os.ReadFile(ex); err == nil {
			f.Add(string(b))
		}
	}
	// Topologies that reach the run with no program: liveness and routing
	// under messages at the first nanosecond, a restart, a cut under a
	// routed message, odd memory sizes, the file's own placement.
	f.Add("transputer a t424\ntransputer b t424\nconnect a.0 b.0\nlinkmode reliable\nheartbeat\nroute\nmessage a b at=1ns data=x\nmessage b a at=1ns data=y\n")
	f.Add("transputer a t424 mem=4097\ntransputer b t222 mem=5\nconnect a.0 b.0\nlinkmode reliable\nroute\nheartbeat\nmessage a b at=5us data=xyz\nfault halt b at=10us\nfault restart b at=400us\n")
	f.Add("transputer a t424\ntransputer b t424\ntransputer c t424\nconnect a.0 b.0\nconnect b.1 c.0\nlinkmode reliable\nroute\nheartbeat\nmessage a c at=5us data=xyz\nfault sever b.1 at=6us\nfault halt a at=7us\nshard a b\nshard c\n")
	f.Add("transputer a t424\ntransputer b t424\nconnect a.0 b.0\nconnect a.1 b.1\nlinkmode reliable\nheartbeat\nroute\nmessage a b at=1us data=x\nfault corrupt a.0 rate=1\nfault jitter b.1 rate=1 max=1ms\n")
	f.Fuzz(func(t *testing.T, src string) {
		topo, err := network.ParseTopology(src)
		if err != nil {
			return
		}
		if topo == nil {
			t.Fatalf("ParseTopology(%q) returned neither topology nor error", src)
		}
		declared := make(map[string]bool, len(topo.Transputers))
		for _, tr := range topo.Transputers {
			declared[tr.Name] = true
		}
		for _, c := range topo.Connections {
			if !declared[c.A] || !declared[c.B] {
				t.Fatalf("ParseTopology(%q) accepted a wire between undeclared nodes %q-%q", src, c.A, c.B)
			}
		}
		for _, h := range topo.Hosts {
			if !declared[h.Node] {
				t.Fatalf("ParseTopology(%q) accepted a host on undeclared node %q", src, h.Node)
			}
		}
		if diffs := runsTheSame(topo); len(diffs) > 0 {
			t.Fatalf("ParseTopology(%q) runs differently on one shard and on one a node:\n%s", src, diffs)
		}
	})
}

// runsTheSame builds a parsed topology the way tnet does — without its
// programs (there is no file system under a fuzz input) or its own
// placement, at most 16 nodes of at most 64K, for at most a simulated
// millisecond — and runs it on two legs of the determinism matrix, all
// on one shard and one shard a node.  Either the build refuses both
// with the same error or the two runs show the same thing; a panic or a
// hang is the fuzzer's to report.
func runsTheSame(topo *network.Topology) []string {
	if len(topo.Transputers) > 16 {
		return nil
	}
	for i := range topo.Transputers {
		topo.Transputers[i].Program = ""
		topo.Transputers[i].MemBytes = min(topo.Transputers[i].MemBytes, 64*1024)
	}
	topo.Shards = nil
	topo.RunLimit = min(topo.RunLimit, sim.Millisecond)
	sc := matrix.Scenario{Build: func() (*matrix.Running, error) {
		var host bytes.Buffer
		net, err := tool.BuildNetwork(topo, "", &host)
		if err != nil {
			return nil, err
		}
		return &matrix.Running{Net: net.System, Run: func() (network.Report, string) {
			rep := tool.RunToQuiescence(net)
			tool.PrintRouteSummary(&host, net.Router)
			return rep, host.String()
		}}, nil
	}}
	one, errOne := sc.Observe(matrix.Leg{Workers: 1, Cache: true, Place: matrix.OneShard})
	each, errEach := sc.Observe(matrix.Leg{Workers: 1, Cache: true, Place: matrix.Private})
	if errOne != nil || errEach != nil {
		if fmt.Sprint(errOne) != fmt.Sprint(errEach) {
			return []string{fmt.Sprintf("one shard: %v; one a node: %v", errOne, errEach)}
		}
		return nil
	}
	return matrix.Diff(one, each)
}
