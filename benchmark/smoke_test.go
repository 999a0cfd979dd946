package main

import (
	"math"
	"path/filepath"
	"testing"
	"time"
)

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	spec, err := readBenchmarkSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkMetrics asserts that got holds exactly the named metrics, each
// finite and with the unit BENCHMARK.json gives it.
func checkMetrics(t *testing.T, workload string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", workload, name)
		case m.Unit != unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", workload, name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s is %v", workload, name, m.Value)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s is not in BENCHMARK.json", workload, name)
		}
	}
}

// TestSmoke runs every workload for one iteration at 1/32 size and
// every layer driver for a tiny operation count.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %s, BENCHMARK.json says %s", i, w.name, spec.Workloads[i].Name)
		}
	}
	endToEndUnits := map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEndUnits[m.Name] = m.Unit
	}
	perLayerUnits := map[string]string{}
	for _, m := range spec.PerLayer {
		perLayerUnits[m.Name] = m.Unit
	}
	for _, name := range exactCounters {
		if _, ok := perLayerUnits[name]; !ok {
			t.Errorf("exact counter %s is not a per-layer metric", name)
		}
	}

	if d := yardstick(); d <= 0 {
		t.Errorf("the yardstick took %v", d)
	}
	drv, chanInstr, err := drivers(64)
	if err != nil {
		t.Fatal(err)
	}

	tr := newTracer()
	for _, full := range workloads {
		w := full.scaled(32)
		start := time.Now()
		in, err := w.setup(1)
		if err != nil {
			t.Fatalf("%s: set-up: %v", w.name, err)
		}
		setupS := time.Since(start).Seconds()
		ref, err := w.reference(in)
		if err != nil {
			t.Fatalf("%s: reference: %v", w.name, err)
		}

		// once is a pass of one iteration.
		once := func(e engine, tr *tracer, ref [32]byte) *samples {
			s := &samples{}
			r := w.iterate(in, e, tr, &ref)
			r.slowdown = 1 // the yardstick is not worth 60 ms an iteration here
			s.add(r)
			return s
		}
		s := once(w.engine(), nil, ref)
		if s.failed != 0 {
			t.Errorf("%s: %v", w.name, s.firstErr)
		}
		checkMetrics(t, w.name, endToEnd(s, setupS), endToEndUnits)

		// Two traced runs in one process: every metric present, every
		// exact counter equal.
		var layers [2]map[string]metric
		for i := range layers {
			on, off, detached := once(w.engine(), tr, ref), s, &samples{}
			if w.observed {
				e := w.engine()
				e.observed = false
				detached = once(e, nil, ref)
			}
			if on.failed+off.failed+detached.failed != 0 {
				t.Errorf("%s: traced pass failed: %v %v %v", w.name, on.firstErr, off.firstErr, detached.firstErr)
			}
			layers[i] = w.perLayer(on, off, detached, tr, drv, chanInstr)
			checkMetrics(t, w.name, layers[i], perLayerUnits)
		}
		for _, name := range exactCounters {
			if a, b := layers[0][name].Value, layers[1][name].Value; a != b {
				t.Errorf("%s: %s is %v in one run and %v in the next", w.name, name, a, b)
			}
		}

		// A reference digest that differs has to fail the op.
		bad := ref
		bad[0] ^= 1
		if s = once(w.engine(), nil, bad); s.failed != 1 || s.firstErr == nil {
			t.Errorf("%s: a corrupted reference digest was not reported as failed", w.name)
		}
	}

	// The spans load back as a Chrome trace with a span for every call
	// into a layer.
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChromeTrace(path, tr.chrome("smoke")); err != nil {
		t.Fatal(err)
	}
	evs, err := readChromeTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	calls := map[string]int{}
	for _, e := range evs {
		calls[e.Name]++
	}
	iterations := calls["bench.iteration"]
	for _, layer := range []string{"occam.compile", "network.build", "network.run", "network.stats", "bench.verify"} {
		if calls[layer] != iterations || iterations == 0 {
			t.Errorf("trace has %d %s spans for %d iterations", calls[layer], layer, iterations)
		}
	}
	if calls["probe.render"] == 0 {
		t.Error("trace has no probe.render span")
	}
}
