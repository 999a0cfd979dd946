package bench

import (
	"os"
	"sort"
	"testing"
	"time"

	"transputer/internal/probe"
	"transputer/internal/sim"
)

// The probe subsystem's first invariant is that a detached bus costs
// nothing: every emit site nil-checks the bus before building an
// event, and flow identifiers are only minted when a bus is attached.
// These benchmarks make the cost of each mode measurable, and the
// env-gated guard test turns the comparison into a CI tripwire.

func runWorkload(b testing.TB, attach bool) {
	s, err := Ring(8)
	if err != nil {
		b.Fatal(err)
	}
	if attach {
		bus := probe.NewBus()
		bus.Subscribe(func(probe.Event) {})
		s.AttachProbe(bus)
	}
	if _, err := Run(s, 10*sim.Second); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProbeDetached measures the communication-heavy ring with no
// probe bus: the shipping configuration.
func BenchmarkProbeDetached(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runWorkload(b, false)
	}
}

// BenchmarkProbeAttached measures the same ring with a bus and a no-op
// subscriber attached: every channel rendezvous, link transfer and
// wire packet now builds and publishes an event and mints flow IDs.
func BenchmarkProbeAttached(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runWorkload(b, true)
	}
}

// TestNilBusOverheadGuard is the CI guard for the nil-bus fast path:
// with probes detached the ring must not run measurably slower than
// with a bus attached — if it ever does, an emit site stopped
// nil-checking the bus (or started paying for flow bookkeeping while
// detached).  Wall-clock comparisons are noisy, so the guard takes the
// median of several runs, allows generous slack, and only runs when
// TRANSPUTER_BENCH_GUARD=1 (set by the CI job).
func TestNilBusOverheadGuard(t *testing.T) {
	if os.Getenv("TRANSPUTER_BENCH_GUARD") == "" {
		t.Skip("set TRANSPUTER_BENCH_GUARD=1 to run the nil-bus overhead guard")
	}
	median := func(attach bool) time.Duration {
		const runs = 5
		runWorkload(t, attach) // warm the compile cache and the heap
		wall := make([]time.Duration, 0, runs)
		for i := 0; i < runs; i++ {
			start := time.Now()
			runWorkload(t, attach)
			wall = append(wall, time.Since(start))
		}
		sort.Slice(wall, func(i, j int) bool { return wall[i] < wall[j] })
		return wall[len(wall)/2]
	}
	detached := median(false)
	attached := median(true)
	t.Logf("ring8 median wall time: detached %v, attached %v", detached, attached)
	// The detached run does strictly less work than the attached one;
	// 25% slack absorbs scheduler and allocator noise on shared CI
	// runners while still catching a forgotten nil check (attaching the
	// bus roughly doubles the per-event cost on this workload).
	if float64(detached) > 1.25*float64(attached) {
		t.Errorf("nil-bus fast path regressed: detached median %v > 1.25 × attached median %v",
			detached, attached)
	}
}
