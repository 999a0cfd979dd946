package dbsearch

import (
	"bytes"
	"reflect"
	"testing"

	"transputer/internal/core"
	"transputer/internal/network"
	"transputer/internal/occam"
	"transputer/internal/sim"
)

// TestSmallArray checks answers against the host-side reference on a
// 2x2 array.
func TestSmallArray(t *testing.T) {
	p := Params{Rows: 2, Cols: 2, RecordsPerNode: 50, KeySpace: 16, MemBytes: 64 * 1024}
	s, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	keys := []int64{3, 7, 3, 15}
	got, rep := s.RunSearches(keys, 100*sim.Millisecond)
	if !rep.Settled {
		t.Fatalf("did not settle: %+v", rep)
	}
	if !s.Results.Done {
		t.Fatal("results host did not receive exit")
	}
	if len(got) != len(keys) {
		t.Fatalf("got %d answers for %d keys: %v", len(got), len(keys), got)
	}
	for i, k := range keys {
		want := Reference(p, k)
		if got[i] != want {
			t.Errorf("key %d: count = %d, want %d", k, got[i], want)
		}
	}
}

// TestFigure8Array runs the paper's 4x4 illustration with the full 200
// records per node.
func TestFigure8Array(t *testing.T) {
	p := Defaults16()
	s, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	keys := []int64{11, 42}
	got, rep := s.RunSearches(keys, 500*sim.Millisecond)
	if !rep.Settled || !s.Results.Done {
		t.Fatalf("rep=%+v done=%v", rep, s.Results.Done)
	}
	total := int64(0)
	for i, k := range keys {
		want := Reference(p, k)
		if got[i] != want {
			t.Errorf("key %d: count = %d, want %d", k, got[i], want)
		}
		total += got[i]
	}
	if total == 0 {
		t.Error("suspicious: no key matched anywhere")
	}
	if p.LongestPathLinks() != 6 {
		t.Errorf("longest path = %d links, want 6 for 4x4", p.LongestPathLinks())
	}
}

// TestReferenceDistribution sanity-checks the record generator: every
// node contributes and keys are spread over the space.
func TestReferenceDistribution(t *testing.T) {
	p := Defaults16()
	sum := int64(0)
	for k := int64(0); k < int64(p.KeySpace); k++ {
		sum += Reference(p, k)
	}
	if sum != int64(p.TotalRecords()) {
		t.Errorf("reference counts sum to %d, want %d", sum, p.TotalRecords())
	}
	if p.TotalRecords() != 3200 {
		t.Errorf("4x4 records = %d", p.TotalRecords())
	}
	if Defaults128().TotalRecords() != 25600 {
		t.Errorf("128-board records = %d", Defaults128().TotalRecords())
	}
	if Defaults128().LongestPathLinks() != 22 {
		t.Errorf("128-board longest path = %d", Defaults128().LongestPathLinks())
	}
}

// TestSharedCodeAcrossWorkers runs the 4x4 array on one worker and on
// four, where the sixteen nodes' first decodes of their common program
// reach the system's code store from four goroutines at once: under the
// race detector this is the test of the store's publication.  Answers,
// report and every node's statistics must agree.
func TestSharedCodeAcrossWorkers(t *testing.T) {
	type run struct {
		answers []int64
		rep     network.Report
		stats   []core.Stats
	}
	search := func(workers int) run {
		s, err := Build(Defaults16())
		if err != nil {
			t.Fatal(err)
		}
		s.Net.SetWorkers(workers)
		got, rep := s.RunSearches([]int64{11, 42, 7}, 500*sim.Millisecond)
		r := run{answers: got, rep: rep}
		for _, n := range s.Net.Nodes() {
			r.stats = append(r.stats, n.M.Stats())
		}
		return r
	}
	one, four := search(1), search(4)
	if !one.rep.Settled || len(one.answers) != 3 {
		t.Fatalf("one worker: settled=%v answers=%v", one.rep.Settled, one.answers)
	}
	if !reflect.DeepEqual(one, four) {
		t.Errorf("one worker and four differ:\none:  %+v %+v\nfour: %+v %+v", one.answers, one.rep, four.answers, four.rep)
	}
}

// TestConfiguredSearchMatchesNodeSource compiles each array as Build
// does, one configured program, and every node's program alone with
// NodeSource: each processor's code, entry and workspace must be the
// same bytes and figures.  (Source marks differ: they point into
// different sources.)
func TestConfiguredSearchMatchesNodeSource(t *testing.T) {
	for _, p := range []Params{
		Defaults128(),
		Defaults16(),
		{Rows: 2, Cols: 2, RecordsPerNode: 50, KeySpace: 16},
		{Rows: 1, Cols: 4, RecordsPerNode: 50, KeySpace: 16},
		{Rows: 4, Cols: 1, RecordsPerNode: 50, KeySpace: 16},
		{Rows: 1, Cols: 1, RecordsPerNode: 50, KeySpace: 16},
	} {
		procs, err := occam.CompileConfigured(ArraySource(p), occam.Options{})
		if err != nil {
			t.Fatalf("%dx%d: %v", p.Rows, p.Cols, err)
		}
		if len(procs) != p.Rows*p.Cols {
			t.Fatalf("%dx%d: %d processors", p.Rows, p.Cols, len(procs))
		}
		for i, proc := range procs {
			r, c := i/p.Cols, i%p.Cols
			want, err := occam.Compile(NodeSource(p, r, c), occam.Options{})
			if err != nil {
				t.Fatal(err)
			}
			got := proc.Compiled.Image
			if proc.ID != int64(i) || !bytes.Equal(got.Code, want.Image.Code) || got.Entry != want.Image.Entry ||
				got.WsBelow != want.Image.WsBelow || got.WsAbove != want.Image.WsAbove {
				t.Errorf("%dx%d node %d.%d: processor %d has %d bytes of code, entry %d, workspace %d/%d; "+
					"NodeSource compiles to %d bytes (same: %v), entry %d, workspace %d/%d",
					p.Rows, p.Cols, r, c, proc.ID, len(got.Code), got.Entry, got.WsBelow, got.WsAbove,
					len(want.Image.Code), bytes.Equal(got.Code, want.Image.Code), want.Image.Entry,
					want.Image.WsBelow, want.Image.WsAbove)
			}
		}
	}
}
