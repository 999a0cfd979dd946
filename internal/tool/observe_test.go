package tool

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"transputer/internal/network"
	"transputer/internal/sim"
)

// buildRing parses and builds the shipped netdemo ring.
func buildRing(t *testing.T) *Network {
	t.Helper()
	dir := filepath.Join("..", "..", "examples", "netdemo")
	src, err := os.ReadFile(filepath.Join(dir, "ring.tnet"))
	if err != nil {
		t.Fatal(err)
	}
	topo, err := network.ParseTopology(string(src))
	if err != nil {
		t.Fatal(err)
	}
	net, err := BuildNetwork(topo, dir, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestRingTimelineAcceptance runs the shipped netdemo ring with a
// timeline attached and checks the exported Chrome trace is valid JSON
// containing scheduler, channel-transfer and wire events from at least
// two nodes.
func TestRingTimelineAcceptance(t *testing.T) {
	net := buildRing(t)
	obs := NewObserver(net.System)
	out := filepath.Join(t.TempDir(), "ring.json")
	obs.EnableTimeline(out)
	obs.Start()
	rep := net.System.Run(net.Limit)
	if !rep.Settled {
		t.Fatalf("ring did not settle: %+v", rep)
	}
	if err := obs.Finish(rep.Time, io.Discard); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
			Cat  string `json:"cat"`
			Args map[string]interface{}
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}

	// Map trace pids back to node names, then count event categories
	// per node.
	nodeOf := map[int]string{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "process_name" {
			nodeOf[e.Pid] = e.Args["name"].(string)
		}
	}
	type counts struct{ sched, chancat, wire int }
	perNode := map[string]*counts{}
	for _, e := range doc.TraceEvents {
		node := nodeOf[e.Pid]
		if node == "" {
			continue
		}
		c := perNode[node]
		if c == nil {
			c = &counts{}
			perNode[node] = c
		}
		switch e.Cat {
		case "sched":
			c.sched++
		case "link", "chan": // processor-side channel transfers
			c.chancat++
		case "wire":
			c.wire++
		}
	}
	full := 0
	for node, c := range perNode {
		if c.sched > 0 && c.chancat > 0 && c.wire > 0 {
			full++
		} else {
			t.Logf("%s: sched=%d chan/link=%d wire=%d", node, c.sched, c.chancat, c.wire)
		}
	}
	if len(perNode) < 2 {
		t.Fatalf("events from %d nodes, want >= 2", len(perNode))
	}
	if full < 2 {
		t.Errorf("only %d nodes have scheduler+channel+wire events, want >= 2", full)
	}
}

// TestProfilerAttribution compiles the quickstart program and checks
// the sampling profiler attributes at least 90%% of running samples to
// occam source lines via the compiler's source map.
func TestProfilerAttribution(t *testing.T) {
	src := filepath.Join("..", "..", "examples", "quickstart", "squares.occ")
	net, err := quickstartSystem(t, src)
	if err != nil {
		t.Fatal(err)
	}
	obs := NewObserver(net.System)
	obs.EnableProfile(filepath.Join(t.TempDir(), "p.json"), sim.Microsecond)
	p := net.Programs[0]
	obs.AddProfileTarget(p.Node, p.Image, p.Path)
	obs.Start()
	rep := net.System.Run(sim.Second)
	if !rep.Settled {
		t.Fatalf("did not settle: %+v", rep)
	}
	prof := obs.ResolveProfile()
	if len(prof.Targets) != 1 {
		t.Fatalf("targets = %d", len(prof.Targets))
	}
	tp := prof.Targets[0]
	if tp.Total < 10 {
		t.Fatalf("only %d running samples; period too coarse for the test", tp.Total)
	}
	frac := float64(tp.Attributed) / float64(tp.Total)
	if frac < 0.9 {
		t.Errorf("attributed %.1f%% of samples to source lines, want >= 90%%", 100*frac)
	}
	// The hot line must be the producer's output (the multiply + send).
	if tp.Buckets[0].Line == 0 {
		t.Errorf("top bucket unattributed: %+v", tp.Buckets[0])
	}
}

// TestObserverMetricsEndToEnd: metrics from a real run account busy
// time and link traffic.
func TestObserverMetricsEndToEnd(t *testing.T) {
	net := buildRing(t)
	obs := NewObserver(net.System)
	obs.EnableMetrics()
	obs.Start()
	rep := net.System.Run(net.Limit)
	if !rep.Settled {
		t.Fatalf("%+v", rep)
	}
	var buf bytes.Buffer
	if err := obs.Finish(rep.Time, &buf); err != nil {
		t.Fatal(err)
	}
	report := buf.String()
	for _, want := range []string{"n0:", "n1:", "n2:", "n3:", "link 1:", "busy"} {
		if !bytes.Contains([]byte(report), []byte(want)) {
			t.Errorf("metrics report missing %q:\n%s", want, report)
		}
	}
}

// quickstartSystem builds a one-node system with a host on link 0
// running the given occam source.
func quickstartSystem(t *testing.T, srcPath string) (*Network, error) {
	t.Helper()
	cfg, err := ModelConfig("t424", 64*1024)
	if err != nil {
		return nil, err
	}
	img, err := LoadAny(srcPath, cfg.WordBits/8)
	if err != nil {
		return nil, err
	}
	s := network.NewSystem()
	n, err := s.AddTransputer("main", cfg)
	if err != nil {
		return nil, err
	}
	host, err := s.AttachHost(n, 0, io.Discard)
	if err != nil {
		return nil, err
	}
	if err := n.Load(img); err != nil {
		return nil, err
	}
	return &Network{
		System:   s,
		Hosts:    []*network.Host{host},
		Programs: []Program{{Node: n, Image: img, Path: srcPath}},
	}, nil
}
