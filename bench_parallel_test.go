package transputer_test

// BenchmarkSystemThroughput measures the simulator's own execution
// rate on multi-transputer workloads: two communication-heavy
// topologies (every node of a ring and of a 3x3 torus grid circulates
// tokens continuously) and one compute-heavy ring (each node sieves
// primes locally and the links carry a single word).  The custom
// metric is simulated machine cycles per wall-clock second — the
// number the sharded parallel engine and the predecoded block cache
// exist to raise.  The workload builders live in internal/bench.  The
// repo's benchmark is benchmark/; this one stays as the way to profile
// a workload (go test -bench SystemThroughput -cpuprofile).

import (
	"fmt"
	"testing"

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
