package transputer_test

// One benchmark per table and figure of the paper, as indexed in
// DESIGN.md.  Each reports the reproduced quantity as a custom metric
// (in the paper's own units — cycles, microseconds, MIPS, Mbyte/s) and
// fails if the reproduction drifts from the paper's figure.
//
//	go test -bench=. -benchmem

import (
	"testing"
	"transputer"

	"transputer/internal/apps/dbsearch"
	"transputer/internal/apps/sieve"
	"transputer/internal/apps/systolic"
	"transputer/internal/apps/workstation"
	"transputer/internal/exp"
	"transputer/internal/sim"
)

// requirePass runs an experiment once per iteration and fails the
// benchmark if any row mismatches the paper.
func requirePass(b *testing.B, run func() exp.Result) exp.Result {
	b.Helper()
	var last exp.Result
	for i := 0; i < b.N; i++ {
		last = run()
		if !last.Pass() {
			for _, row := range last.Rows {
				if !row.OK {
					b.Fatalf("%s %q: paper %q, measured %q", last.ID, row.Label, row.Paper, row.Measured)
				}
			}
		}
	}
	return last
}

// BenchmarkTableDirectFunctions regenerates the section 3.2.6 table
// (E1): byte and cycle counts of x := 0, x := y, z := 1.
func BenchmarkTableDirectFunctions(b *testing.B) {
	requirePass(b, exp.E1DirectFunctions)
}

// BenchmarkTablePrefix754 regenerates the section 3.2.7 operand
// register trace (E2).
func BenchmarkTablePrefix754(b *testing.B) {
	requirePass(b, exp.E2Prefix754)
}

// BenchmarkTableExpressionEval regenerates the section 3.2.9 table
// (E3): x + 2 and (v+w)*(y+z) with multiply at 7+wordlength cycles.
func BenchmarkTableExpressionEval(b *testing.B) {
	requirePass(b, exp.E3ExpressionEvaluation)
}

// BenchmarkCommunicationCycles sweeps message sizes against the
// max(24, 21+8n/wordlength) formula of section 3.2.10 (E4).
func BenchmarkCommunicationCycles(b *testing.B) {
	requirePass(b, exp.E4CommunicationCycles)
}

// BenchmarkPrioritySwitchLatency measures the 58-cycle low-to-high
// bound and the 17-cycle high-to-low switch of section 3.2.4 (E5).
func BenchmarkPrioritySwitchLatency(b *testing.B) {
	requirePass(b, exp.E5PrioritySwitch)
}

// BenchmarkLinkThroughput measures one link direction against the
// "about 1 Mbyte/sec" of section 2.3.1 (E6).
func BenchmarkLinkThroughput(b *testing.B) {
	r := requirePass(b, exp.E6LinkThroughput)
	_ = r
	mbps, _ := exp.HostPairThroughput(false)
	b.ReportMetric(mbps, "Mbyte/s")
}

// BenchmarkMessageLatency4Byte measures the "about 6 microseconds"
// 4-byte inter-transputer message of section 4.2 (E7).
func BenchmarkMessageLatency4Byte(b *testing.B) {
	var t sim.Time
	for i := 0; i < b.N; i++ {
		var err error
		t, err = exp.PingLatency()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(t)/1000, "µs/msg")
	if t < 4*sim.Microsecond || t > 8*sim.Microsecond {
		b.Fatalf("4-byte message took %v, paper says about 6µs", t)
	}
}

// BenchmarkDatabaseSearch16 runs the figure 8 array (E8): 4x4
// transputers, 200 records each, answers checked against a host
// reference search.
func BenchmarkDatabaseSearch16(b *testing.B) {
	benchSearch(b, dbsearch.Defaults16(), 4)
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

// BenchmarkSearchPipelining quantifies request overlap in the array
// (E13): the pipelined per-query period against the single-query
// latency.
func BenchmarkSearchPipelining(b *testing.B) {
	requirePass(b, exp.E13SearchPipelining)
}

// BenchmarkWorkstation runs the figure 6 workstation session (E10).
func BenchmarkWorkstation(b *testing.B) {
	var t sim.Time
	for i := 0; i < b.N; i++ {
		s, err := workstation.Build()
		if err != nil {
			b.Fatal(err)
		}
		rep := s.Run(sim.Second)
		if !rep.Settled || !s.Host.Done {
			b.Fatalf("session failed: %+v", rep)
		}
		if s.Host.Values[0] != workstation.ExpectedDiskSum() ||
			s.Host.Values[1] != workstation.ExpectedGfxSum() {
			b.Fatal("checksums wrong")
		}
		t = rep.Time
	}
	b.ReportMetric(float64(t)/1000, "µs/session")
}

// BenchmarkMIPSRate measures the execution rate on the paper's typical
// instruction mix against the 15 MIPS figure of section 3.2.1 (E11).
func BenchmarkMIPSRate(b *testing.B) {
	requirePass(b, exp.E11MIPSRate)
}

// BenchmarkSingleByteFraction measures the fraction of executed
// instructions encoded in one byte (E12, paper 3.2.3).
func BenchmarkSingleByteFraction(b *testing.B) {
	requirePass(b, exp.E12SingleByteFraction)
}

// BenchmarkAggregateLinkBandwidth drives all eight half-links of a
// transputer pair (E14, paper 3.1).
func BenchmarkAggregateLinkBandwidth(b *testing.B) {
	requirePass(b, exp.E14AggregateBandwidth)
}

// BenchmarkAblationStopAndWaitLink compares the overlapped acknowledge
// against stop-and-wait (A1, figure 1's design argument).
func BenchmarkAblationStopAndWaitLink(b *testing.B) {
	requirePass(b, exp.A1StopAndWaitLink)
	over, _ := exp.HostPairThroughput(false)
	plain, _ := exp.HostPairThroughput(true)
	b.ReportMetric(over/plain, "speedup")
}

// BenchmarkAblationFixedWidthEncoding compares prefix-encoded code
// size against a fixed-width encoding (A2, paper 3.3).
func BenchmarkAblationFixedWidthEncoding(b *testing.B) {
	requirePass(b, exp.A2FixedWidthEncoding)
}

// BenchmarkAblationFetchBuffer compares cycle counts with and without
// the two-word instruction fetch buffer (A3, paper 3.2.5).
func BenchmarkAblationFetchBuffer(b *testing.B) {
	requirePass(b, exp.A3FetchBuffer)
}

// BenchmarkWordLength16vs32 runs identical program bytes on the T222
// and T424 (A4, paper 3.3).
func BenchmarkWordLength16vs32(b *testing.B) {
	requirePass(b, exp.A4WordLength)
}

// BenchmarkSievePipeline exercises a 17-transputer systolic pipeline —
// the concurrency style of the paper's cited applications.
func BenchmarkSievePipeline(b *testing.B) {
	var t sim.Time
	for i := 0; i < b.N; i++ {
		s, err := sieve.Build(sieve.Defaults())
		if err != nil {
			b.Fatal(err)
		}
		primes, rep := s.Run(10 * sim.Second)
		if !rep.Settled || len(primes) != 15 {
			b.Fatalf("sieve failed: %v %+v", primes, rep)
		}
		t = rep.Time
	}
	b.ReportMetric(float64(t)/1000, "µs/run")
}

// BenchmarkInterruptLatency measures the stimulus-to-handler latency
// of a PRI PAR event handler (E15, paper 2.2.2).
func BenchmarkInterruptLatency(b *testing.B) {
	requirePass(b, exp.E15InterruptLatency)
}

// BenchmarkSystolicArray runs a 10-transputer systolic matrix-vector
// product (the application style of the paper's references 21/22).
func BenchmarkSystolicArray(b *testing.B) {
	p := systolic.Defaults()
	want := systolic.Reference(p)
	var t sim.Time
	for i := 0; i < b.N; i++ {
		s, err := systolic.Build(p)
		if err != nil {
			b.Fatal(err)
		}
		got, rep := s.Run(10 * sim.Second)
		if !rep.Settled || len(got) != len(want) {
			b.Fatalf("array failed: %+v", rep)
		}
		for j := range want {
			if got[j] != want[j] {
				b.Fatalf("y[%d] = %d, want %d", j, got[j], want[j])
			}
		}
		t = rep.Time
	}
	b.ReportMetric(float64(t)/1000, "µs/product")
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

// BenchmarkConfigurationTradeoff measures the same program on one
// transputer and on a network (E16, the paper's low-cost /
// high-performance configuration claim).
func BenchmarkConfigurationTradeoff(b *testing.B) {
	requirePass(b, exp.E16ConfigurationTradeoff)
}
