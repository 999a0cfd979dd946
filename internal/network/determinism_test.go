package network_test

import (
	"reflect"
	"testing"

	"transputer/internal/apps/dbsearch"
	"transputer/internal/apps/sieve"
	"transputer/internal/sim"
)

// The simulation must be perfectly deterministic: identical builds
// produce identical simulated times, identical answers and identical
// instruction counts.  Determinism is what makes the cycle-level
// claims in EXPERIMENTS.md reproducible, so it is pinned here.

func TestDeterministicDatabaseSearch(t *testing.T) {
	run := func() (sim.Time, []int64, uint64) {
		p := dbsearch.Params{Rows: 3, Cols: 3, RecordsPerNode: 60, KeySpace: 16, MemBytes: 64 * 1024}
		s, err := dbsearch.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		counts, rep := s.RunSearches([]int64{4, 9}, sim.Second)
		if !rep.Settled {
			t.Fatal("did not settle")
		}
		return rep.Time, counts, s.Net.TotalStats().Instructions
	}
	t1, c1, i1 := run()
	t2, c2, i2 := run()
	if t1 != t2 {
		t.Errorf("simulated times differ: %v vs %v", t1, t2)
	}
	if i1 != i2 {
		t.Errorf("instruction counts differ: %d vs %d", i1, i2)
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Errorf("answers differ at %d: %d vs %d", i, c1[i], c2[i])
		}
	}
}

func TestDeterministicSieve(t *testing.T) {
	run := func() (sim.Time, int) {
		s, err := sieve.Build(sieve.Params{Limit: 30, Stages: 10})
		if err != nil {
			t.Fatal(err)
		}
		primes, rep := s.Run(sim.Second)
		return rep.Time, len(primes)
	}
	t1, n1 := run()
	t2, n2 := run()
	if t1 != t2 || n1 != n2 {
		t.Errorf("runs differ: %v/%d vs %v/%d", t1, n1, t2, n2)
	}
}

// TestDeterministicAcrossWorkers runs the database-search grid at one
// and four workers, each on the partition its worker count gives,
// against one worker pinned one shard a node: worker count and
// partition must be invisible in the settle time, the answers, and
// every aggregate counter including the per-opcode histogram.
func TestDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int, pinned bool) (sim.Time, []int64, interface{}) {
		p := dbsearch.Params{Rows: 3, Cols: 3, RecordsPerNode: 60, KeySpace: 16, MemBytes: 64 * 1024}
		s, err := dbsearch.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		s.Net.SetWorkers(workers)
		if pinned {
			pinPrivate(t, s.Net)
		}
		counts, rep := s.RunSearches([]int64{4, 9}, sim.Second)
		if !rep.Settled {
			t.Fatalf("workers=%d pinned=%v: did not settle", workers, pinned)
		}
		return rep.Time, counts, s.Net.TotalStats()
	}
	t1, c1, st1 := run(1, true)
	for _, workers := range []int{1, 4} {
		tt, c, st := run(workers, false)
		if tt != t1 {
			t.Errorf("workers=%d: simulated time %v, want %v", workers, tt, t1)
		}
		if !reflect.DeepEqual(c, c1) {
			t.Errorf("workers=%d: answers %v, want %v", workers, c, c1)
		}
		if !reflect.DeepEqual(st, st1) {
			t.Errorf("workers=%d: total stats differ:\n%+v\nwant: %+v", workers, st, st1)
		}
	}
}

func TestTotalStats(t *testing.T) {
	s, err := sieve.Build(sieve.Params{Limit: 20, Stages: 8})
	if err != nil {
		t.Fatal(err)
	}
	s.Net.Run(sim.Second)
	total := s.Net.TotalStats()
	if total.Instructions == 0 || total.Cycles == 0 {
		t.Error("aggregate stats empty")
	}
	// Messages out across the system must equal messages in: every
	// communication has two ends.
	if total.ExternalOut == 0 {
		t.Error("no external traffic counted")
	}
	var sum uint64
	for _, n := range s.Net.Nodes() {
		sum += n.M.Stats().Instructions
	}
	if sum != total.Instructions {
		t.Errorf("aggregate %d != per-node sum %d", total.Instructions, sum)
	}
}
