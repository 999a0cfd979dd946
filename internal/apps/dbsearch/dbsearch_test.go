package dbsearch

import (
	"reflect"
	"testing"

	"transputer/internal/core"
	"transputer/internal/network"
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
