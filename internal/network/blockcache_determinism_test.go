package network_test

import (
	"fmt"
	"reflect"
	"testing"

	"transputer/internal/apps/sieve"
	"transputer/internal/bench"
	"transputer/internal/core"
	"transputer/internal/probe"
	"transputer/internal/sim"
)

// The predecoded block cache and the quiescence-extended windows are
// pure simulator-performance machinery: these tests pin that neither
// is visible in any observable output — probe timelines, per-node
// statistics down to the opcode histograms, or settle times — at any
// worker count, on the partition the worker count gives (one shard at
// one worker) or pinned one shard a node, the path every delivery
// crosses a barrier on.

// sieveObservables runs the sieve pipeline with the given worker
// count, cache setting and placement, capturing every probe event and
// every node's full statistics.
func sieveObservables(t *testing.T, workers int, cache, pinned bool) (sim.Time, []probe.Event, []core.Stats) {
	t.Helper()
	s, err := sieve.Build(sieve.Params{Limit: 30, Stages: 10})
	if err != nil {
		t.Fatal(err)
	}
	s.Net.SetWorkers(workers)
	s.Net.SetBlockCache(cache)
	if pinned {
		pinPrivate(t, s.Net)
	}
	bus := probe.NewBus()
	var evs []probe.Event
	bus.Subscribe(func(e probe.Event) { evs = append(evs, e) })
	s.Net.AttachProbe(bus)
	_, rep := s.Run(sim.Second)
	if !rep.Settled {
		t.Fatalf("workers=%d cache=%v: did not settle", workers, cache)
	}
	var stats []core.Stats
	for _, n := range s.Net.Nodes() {
		stats = append(stats, n.M.Stats())
	}
	return rep.Time, evs, stats
}

// TestBlockCacheInvisibleInTimeline runs a shipped example with the
// cache force-disabled and enabled: the merged probe timeline, the
// per-node statistics (function and operation histograms included)
// and the settle time must be identical.
func TestBlockCacheInvisibleInTimeline(t *testing.T) {
	tOn, evOn, stOn := sieveObservables(t, 1, true, true)
	tOff, evOff, stOff := sieveObservables(t, 1, false, true)
	if tOn != tOff {
		t.Errorf("settle times differ: %v vs %v", tOn, tOff)
	}
	if len(evOn) != len(evOff) {
		t.Fatalf("timeline lengths differ: %d vs %d", len(evOn), len(evOff))
	}
	for i := range evOn {
		if evOn[i] != evOff[i] {
			t.Fatalf("timeline event %d differs:\non:  %+v\noff: %+v", i, evOn[i], evOff[i])
		}
	}
	if !reflect.DeepEqual(stOn, stOff) {
		t.Errorf("per-node stats differ:\non:  %+v\noff: %+v", stOn, stOff)
	}
}

// TestBlockCacheDeterministicAcrossWorkers crosses worker counts with
// cache settings and placements: every combination must yield one
// observable history.
func TestBlockCacheDeterministicAcrossWorkers(t *testing.T) {
	tRef, evRef, stRef := sieveObservables(t, 1, true, true)
	for _, workers := range []int{1, 4} {
		for _, cache := range []bool{true, false} {
			for _, pinned := range []bool{true, false} {
				if pinned && (workers == 4 || cache) {
					continue // the reference itself, or the partition four workers derive anyway
				}
				tt, ev, st := sieveObservables(t, workers, cache, pinned)
				if tt != tRef {
					t.Errorf("workers=%d cache=%v pinned=%v: settle time %v, want %v", workers, cache, pinned, tt, tRef)
				}
				if !reflect.DeepEqual(ev, evRef) {
					t.Errorf("workers=%d cache=%v pinned=%v: timeline differs", workers, cache, pinned)
				}
				if !reflect.DeepEqual(st, stRef) {
					t.Errorf("workers=%d cache=%v pinned=%v: stats differ", workers, cache, pinned)
				}
			}
		}
	}
}

// TestSparseTrafficDeterministicAcrossWorkers runs the compute-heavy
// ring — links idle for almost the whole run, so windows are extended
// by quiet promises and topology distances — at one and four workers,
// pinned one shard a node (where those horizons are the coordinator's)
// and on the partition the worker count gives.  The extended horizons
// must not change a single observable.
func TestSparseTrafficDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int, cache, pinned bool) (sim.Time, uint64, []core.Stats) {
		s, err := bench.ComputeRing(4)
		if err != nil {
			t.Fatal(err)
		}
		s.SetWorkers(workers)
		s.SetBlockCache(cache)
		if pinned {
			pinPrivate(t, s)
		}
		rep := s.Run(10 * sim.Second)
		if !rep.Settled || len(rep.Blocked) > 0 || len(rep.Halted) > 0 {
			t.Fatalf("workers=%d cache=%v pinned=%v: bad finish: %+v", workers, cache, pinned, rep)
		}
		var stats []core.Stats
		for _, n := range s.Nodes() {
			stats = append(stats, n.M.Stats())
		}
		return rep.Time, s.TotalStats().Cycles, stats
	}
	tRef, cRef, stRef := run(1, true, true)
	for _, workers := range []int{1, 4} {
		for _, cache := range []bool{true, false} {
			for _, pinned := range []bool{true, false} {
				if pinned && (workers == 4 || cache) {
					continue // the reference itself, or the partition four workers derive anyway
				}
				tt, cc, st := run(workers, cache, pinned)
				if tt != tRef || cc != cRef {
					t.Errorf("workers=%d cache=%v pinned=%v: time/cycles %v/%d, want %v/%d",
						workers, cache, pinned, tt, cc, tRef, cRef)
				}
				if !reflect.DeepEqual(st, stRef) {
					t.Errorf("workers=%d cache=%v pinned=%v: per-node stats differ", workers, cache, pinned)
				}
			}
		}
	}
}

// TestVChanBlockCacheInvisible runs the virtual-channel fan — eight
// producer streams multiplexed over one wire — across the worker ×
// cache × placement grid, capturing the full probe timeline.  Cross-shard chunk
// deliveries here routinely land at the same instant as the
// destination's own instruction stream, the collision that exposed
// the barrier-dependent delivery ordering the kernel's delivery rank
// now pins (see sim.Kernel's less).
func TestVChanBlockCacheInvisible(t *testing.T) {
	run := func(workers int, cache, pinned bool) (sim.Time, []probe.Event, []core.Stats) {
		s, err := bench.VCFan(8)
		if err != nil {
			t.Fatal(err)
		}
		s.SetWorkers(workers)
		s.SetBlockCache(cache)
		if pinned {
			pinPrivate(t, s)
		}
		bus := probe.NewBus()
		var evs []probe.Event
		bus.Subscribe(func(e probe.Event) { evs = append(evs, e) })
		s.AttachProbe(bus)
		rep := s.Run(sim.Second)
		if !rep.Settled || len(rep.Blocked) > 0 || len(rep.Halted) > 0 {
			t.Fatalf("workers=%d cache=%v: bad finish: %+v", workers, cache, rep)
		}
		var stats []core.Stats
		for _, n := range s.Nodes() {
			stats = append(stats, n.M.Stats())
		}
		return rep.Time, evs, stats
	}
	tRef, evRef, stRef := run(1, true, true)
	for _, workers := range []int{1, 4} {
		for _, cache := range []bool{true, false} {
			for _, pinned := range []bool{true, false} {
				if pinned && (workers == 4 || cache) {
					continue // the reference itself, or the partition four workers derive anyway
				}
				what := fmt.Sprintf("workers=%d cache=%v pinned=%v", workers, cache, pinned)
				tt, ev, st := run(workers, cache, pinned)
				if tt != tRef {
					t.Errorf("%s: settle time %v, want %v", what, tt, tRef)
				}
				if len(ev) != len(evRef) {
					t.Fatalf("%s: timeline lengths differ: %d vs %d", what, len(ev), len(evRef))
				}
				for i := range ev {
					if ev[i] != evRef[i] {
						t.Fatalf("%s: timeline event %d differs:\ngot:  %+v\nwant: %+v", what, i, ev[i], evRef[i])
					}
				}
				if !reflect.DeepEqual(st, stRef) {
					t.Errorf("%s: per-node stats differ", what)
				}
			}
		}
	}
}
