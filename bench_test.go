package transputer_test

// The go test -bench surface: three benchmarks that measure the
// simulator itself.  The repo's benchmark is benchmark/ (go run
// ./benchmark); these stay as the way to profile (go test -bench X
// -cpuprofile).  The paper's tables and figures are tests, not
// benchmarks: internal/exp's TestE1..TestE16 and TestA1..TestA4 hold
// each reproduced figure to the paper's, and cmd/texp prints them.
//
// BenchmarkSystemThroughput measures the simulator's own execution
// rate on multi-transputer workloads: two communication-heavy
// topologies (every node of a ring and of a 3x3 torus grid circulates
// tokens continuously) and one compute-heavy ring (each node sieves
// primes locally and the links carry a single word).  The custom
// metric is simulated machine cycles per wall-clock second — the
// number the sharded parallel engine and the predecoded block cache
// exist to raise.  The workload builders live in internal/bench.

import (
	"fmt"
	"testing"
	"transputer"

	"transputer/internal/apps/dbsearch"
	"transputer/internal/bench"
	"transputer/internal/sim"
)

func runThroughput(b *testing.B, workers int, workload string) {
	b.Helper()
	b.ReportAllocs()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		s, err := bench.Build(workload)
		if err != nil {
			b.Fatal(err)
		}
		s.SetWorkers(workers)
		n, err := bench.Run(s, 10*sim.Second)
		if err != nil {
			b.Fatal(err)
		}
		cycles += n
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "simcycles/s")
}

// BenchmarkSystemThroughput drives every workload once sequentially —
// on the one shard one worker gets — and on two and four workers, a
// shard a node (identical simulation, different wall clock).
func BenchmarkSystemThroughput(b *testing.B) {
	for _, w := range []int{1, 2, 4} {
		for _, name := range bench.Workloads() {
			name, w := name, w
			b.Run(fmt.Sprintf("%s/workers=%d", name, w), func(b *testing.B) {
				runThroughput(b, w, name)
			})
		}
	}
}

// BenchmarkDatabaseSearch128 runs the figure 7 single-board system
// (E9): 128 transputers and 25,600 records searched in under the
// paper's 1.3 ms per query when pipelined.
func BenchmarkDatabaseSearch128(b *testing.B) {
	b.ReportAllocs()
	perQuery := benchSearch(b, dbsearch.Defaults128(), 4)
	if perQuery >= 1300*sim.Microsecond {
		b.Fatalf("per-query period %v, paper says under 1.3ms", perQuery)
	}
}

func benchSearch(b *testing.B, p dbsearch.Params, queries int) sim.Time {
	b.Helper()
	var perQuery sim.Time
	for i := 0; i < b.N; i++ {
		s, err := dbsearch.Build(p)
		if err != nil {
			b.Fatal(err)
		}
		keys := make([]int64, queries)
		for j := range keys {
			keys[j] = int64((13 * j) % p.KeySpace)
		}
		counts, rep := s.RunSearches(keys, 10*sim.Second)
		if !rep.Settled || len(counts) != queries {
			b.Fatalf("search failed: %+v", rep)
		}
		for j, k := range keys {
			if counts[j] != dbsearch.Reference(p, k) {
				b.Fatalf("key %d: %d != reference %d", k, counts[j], dbsearch.Reference(p, k))
			}
		}
		perQuery = rep.Time / sim.Time(queries)
	}
	b.ReportMetric(float64(perQuery)/1000, "µs/query")
	b.ReportMetric(float64(p.TotalRecords()), "records")
	return perQuery
}

// BenchmarkSimulatorSpeed measures the host-side speed of the
// simulator itself: simulated instructions per wall-clock second on a
// compute-bound loop.  (All paper-facing metrics are in simulated
// units; this one is for users sizing long runs.)
func BenchmarkSimulatorSpeed(b *testing.B) {
	img, err := transputer.AssembleSource(`
	ldc 0
	stl 1
loop:
	ldl 1
	adc 1
	stl 1
	ldl 1
	eqc 200000
	cj loop
	stopp
`, 4)
	if err != nil {
		b.Fatal(err)
	}
	var instrs uint64
	for i := 0; i < b.N; i++ {
		m, err := transputer.NewMachine(transputer.T424().WithMemory(64 * 1024))
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Load(img); err != nil {
			b.Fatal(err)
		}
		res := transputer.Run(m, 0)
		if !res.Settled {
			b.Fatal("loop did not settle")
		}
		instrs = m.Stats().Instructions
	}
	b.ReportMetric(float64(instrs)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Msim-instr/s")
}
