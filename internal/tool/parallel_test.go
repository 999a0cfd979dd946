package tool

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"transputer/internal/apps/sieve"
	"transputer/internal/probe"
	"transputer/internal/sim"
)

// The parallel engine's contract is that worker count is invisible:
// the same build produces byte-identical observable output whether
// windows run on one goroutine or many — and, since the worker count
// now picks the partition when nothing else does, whether the nodes
// share the one shard a sequential run gets or have one each.  These
// tests pin that for the shipped examples — the sieve pipeline
// (examples/pipeline), the seeded lossy-link fault campaign, and the
// severed-ring deadlock campaign with its watchdog report; the
// sequential run on one shard a node is fusion_test.go's `-fuse off`
// reference for the same files.

// netOutput is everything observable from one run: the exported
// timeline and flow-trace bytes, the stats/metrics/watchdog text, and
// the settle time.
type netOutput struct {
	time     sim.Time
	timeline []byte
	flows    []byte
	text     string
	// nodes on shards is the partition the run used — not an output, and
	// not compared: the one thing here that -fuse and -workers change.
	nodes, shards int
}

// runExampleNet loads a topology file, runs it with the given worker
// count and full observability attached, and captures every output.
func runExampleNet(t *testing.T, path, tlPath, flPath string, workers int) netOutput {
	t.Helper()
	var hostOut bytes.Buffer
	net, err := LoadNetworkFile(path, &hostOut)
	if err != nil {
		t.Fatal(err)
	}
	s := net.System
	s.SetWorkers(workers)
	obs := NewObserver(s)
	obs.EnableTimeline(tlPath)
	obs.EnableFlows(flPath, LineResolver(net.Programs))
	obs.EnableMetrics()
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

func assertIdenticalRuns(t *testing.T, path string) {
	t.Helper()
	// Both runs write the timeline and flows to the same files (read
	// back between runs), so the paths printed by Finish are identical
	// too.
	tlPath := filepath.Join(t.TempDir(), "tl.json")
	flPath := filepath.Join(t.TempDir(), "flows.json")
	want := runExampleNet(t, path, tlPath, flPath, 1)
	got := runExampleNet(t, path, tlPath, flPath, 4)
	if want.shards != 1 || got.shards != got.nodes {
		t.Errorf("%d nodes ran on %d shards at one worker and %d at four, want 1 and one a node",
			got.nodes, want.shards, got.shards)
	}
	if got.time != want.time {
		t.Errorf("settle times differ: workers=1 %v, workers=4 %v", want.time, got.time)
	}
	if got.text != want.text {
		t.Errorf("stats/metrics/watchdog output differs:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s",
			want.text, got.text)
	}
	if !bytes.Equal(got.timeline, want.timeline) {
		t.Errorf("timelines differ: workers=1 %d bytes, workers=4 %d bytes",
			len(want.timeline), len(got.timeline))
	}
	if !bytes.Equal(got.flows, want.flows) {
		t.Errorf("flow traces differ: workers=1 %d bytes, workers=4 %d bytes",
			len(want.flows), len(got.flows))
	}

	// The flow document's own invariant: the critical path tiles
	// [0, end] exactly — its spans sum to the end-to-end completion
	// time.
	doc, err := probe.ReadFlowDoc(bytes.NewReader(got.flows))
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, s := range doc.CriticalPath {
		sum += s.DurNs
	}
	if sum != doc.EndNs || doc.CriticalPathNs != doc.EndNs {
		t.Errorf("critical path sums to %d (CriticalPathNs %d), want end-to-end %d",
			sum, doc.CriticalPathNs, doc.EndNs)
	}
	if len(doc.Flows) == 0 {
		t.Errorf("no flows traced for %s", path)
	}
}

// TestParallelDeterminismLossyLink replays the seeded lossy-link fault
// campaign (drops, corruption, lost acks, retransmits) at one and four
// workers: every retry decision comes from per-wire seeded streams, so
// the campaign must be byte-for-byte identical.
func TestParallelDeterminismLossyLink(t *testing.T) {
	assertIdenticalRuns(t, filepath.Join("..", "..", "examples", "faults", "lossy-link.tnet"))
}

// TestParallelDeterminismSeveredRing replays the severed-ring deadlock
// campaign: the timed cable cut and the watchdog's post-mortem (which
// processes are blocked where) must not depend on the worker count.
func TestParallelDeterminismSeveredRing(t *testing.T) {
	assertIdenticalRuns(t, filepath.Join("..", "..", "examples", "faults", "severed-ring.tnet"))
}

// TestParallelDeterminismPipeline runs the multi-stage sieve pipeline
// (the examples/pipeline program) at one and four workers — and at one
// worker pinned one shard a node, the sequential mailbox path — and
// compares the answers, the settle time, and the aggregate statistics
// down to the per-opcode counts.
func TestParallelDeterminismPipeline(t *testing.T) {
	flPath := filepath.Join(t.TempDir(), "flows.json")
	run := func(workers int, pinned bool) ([]int64, sim.Time, interface{}, []byte) {
		s, err := sieve.Build(sieve.Params{Limit: 60, Stages: 17})
		if err != nil {
			t.Fatal(err)
		}
		s.Net.SetWorkers(workers)
		if pinned {
			var alone [][]string
			for _, n := range s.Net.Nodes() {
				alone = append(alone, []string{n.Name})
			}
			if err := s.Net.SetPlacement(alone); err != nil {
				t.Fatal(err)
			}
		}
		obs := NewObserver(s.Net)
		obs.EnableFlows(flPath, nil)
		obs.Start()
		primes, rep := s.Run(10 * sim.Second)
		if !rep.Settled {
			t.Fatalf("workers=%d: did not settle: %+v", workers, rep)
		}
		if err := obs.Finish(rep.Time, io.Discard); err != nil {
			t.Fatal(err)
		}
		fl, err := os.ReadFile(flPath)
		if err != nil {
			t.Fatal(err)
		}
		return primes, rep.Time, s.Net.TotalStats(), fl
	}
	p1, t1, st1, f1 := run(1, true)
	var f4 []byte
	for _, workers := range []int{1, 4} {
		p, tt, st, f := run(workers, false)
		if !reflect.DeepEqual(p1, p) {
			t.Errorf("workers=%d: answers differ: %v vs %v", workers, p1, p)
		}
		if t1 != tt {
			t.Errorf("workers=%d: settle times differ: %v vs %v", workers, t1, tt)
		}
		if !reflect.DeepEqual(st1, st) {
			t.Errorf("workers=%d: total stats differ:\npinned: %+v\ngot: %+v", workers, st1, st)
		}
		if !bytes.Equal(f1, f) {
			t.Errorf("workers=%d: flow traces differ: pinned %d bytes, got %d bytes", workers, len(f1), len(f))
		}
		f4 = f
	}
	doc, err := probe.ReadFlowDoc(bytes.NewReader(f4))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Flows) == 0 || doc.CriticalPathNs != doc.EndNs {
		t.Errorf("pipeline flow doc: %d flows, critical path %d vs end %d",
			len(doc.Flows), doc.CriticalPathNs, doc.EndNs)
	}
}
