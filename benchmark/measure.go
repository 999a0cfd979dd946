package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of a run's standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

const (
	// warmups is the number of untimed iterations before the first
	// timed one; set-up time is the cold process doing exactly these.
	warmups = 2
	// setupSamples is the number of fresh processes set-up is timed in.
	setupSamples = 5
	// minIterations is the fewest timed iterations a pass makes however
	// short -seconds is.
	minIterations = 4
	// tracedShare is the part of -seconds a traced run spends on the
	// workload; the layer drivers, whose operation counts are fixed,
	// take the rest.
	tracedShare = 0.4
)

// percentile interpolates linearly between the closest ranks of an
// ascending sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// ascending returns a sorted copy.
func ascending(vs []float64) []float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	return s
}

func median(vs []float64) float64 { return percentile(ascending(vs), 0.5) }

// samples are the per-iteration measurements of one pass.  wallMs and
// runMs are as the clock read them; nominalWallMs and nominalRunMs are
// the same divided by the iteration's host slowdown.
type samples struct {
	wallMs, runMs, nominalWallMs, nominalRunMs []float64
	slowdown, allocMB, mallocs, liveMB         []float64
	cpu, wall                                  time.Duration // summed over the timed regions
	counters                                   counters      // of the last iteration
	digest                                     [sha256.Size]byte
	failed                                     int
	firstErr                                   error
}

// iterate adds one iteration, run between two readings of the pass's
// yardstick.
func (s *samples) iterate(p *pacer, w workload, in inputs, e engine, tr *tracer, ref *[sha256.Size]byte) {
	var r result
	slowdown := p.slowdown(func() { r = w.iterate(in, e, tr, ref) })
	r.slowdown = slowdown
	s.add(r)
}

func (s *samples) add(r result) {
	s.wallMs = append(s.wallMs, float64(r.wall)/1e6)
	s.runMs = append(s.runMs, float64(r.run)/1e6)
	s.nominalWallMs = append(s.nominalWallMs, float64(r.wall)/1e6/r.slowdown)
	s.nominalRunMs = append(s.nominalRunMs, float64(r.run)/1e6/r.slowdown)
	s.slowdown = append(s.slowdown, r.slowdown)
	s.allocMB = append(s.allocMB, float64(r.allocBytes)/1e6)
	s.mallocs = append(s.mallocs, float64(r.mallocs))
	s.liveMB = append(s.liveMB, float64(r.liveHeap)/1e6)
	s.cpu += r.cpu
	s.wall += r.wall
	s.counters = r.counters
	s.digest = r.digest
	if r.err != nil {
		s.failed++
		if s.firstErr == nil {
			s.firstErr = r.err
		}
	}
}

// cpuTime is the processor time the process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setup is what a cold process does before its first timed iteration:
// generate the inputs, then compile, build and run the network twice.
func (w workload) setup(seed int64) (inputs, error) {
	in := w.inputs(seed)
	for i := 0; i < warmups; i++ {
		if r := w.iterate(in, w.engine(), nil, nil); r.err != nil {
			return in, r.err
		}
	}
	return in, nil
}

// setupSeconds times set-up in fresh processes of this binary, from
// exec to exit, so that work a change moves into package
// initialisation or a first-use cache shows too.  Each is divided by
// the host slowdown around it; it returns the median.
func setupSeconds(w workload, seed int64) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var secs []float64
	var p pacer
	for i := 0; i < setupSamples; i++ {
		cmd := exec.Command(self, "-setup-only", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10))
		cmd.Stderr = os.Stderr
		var took time.Duration
		slowdown := p.slowdown(func() {
			start := time.Now()
			err = cmd.Run()
			took = time.Since(start)
		})
		if err != nil {
			return 0, fmt.Errorf("set-up process: %w", err)
		}
		secs = append(secs, took.Seconds()/slowdown)
	}
	return median(secs), nil
}

// reference takes the digest every iteration has to reproduce, on the
// slow path: block cache off, one worker, one shard a node, no bus.
func (w workload) reference(in inputs) ([sha256.Size]byte, error) {
	r := w.iterate(in, slowPath, nil, nil)
	return r.digest, r.err
}

// untraced is the pass the end-to-end metrics come from.
func (w workload) untraced(in inputs, ref [sha256.Size]byte, seconds float64) *samples {
	s, p := &samples{}, &pacer{}
	start := time.Now()
	for len(s.wallMs) < minIterations || time.Since(start).Seconds() < seconds {
		s.iterate(p, w, in, w.engine(), nil, &ref)
	}
	return s
}

// traced is the pass the per-layer metrics come from.  Untraced
// iterations alternate with the traced ones so that the cost of
// tracing is measured on the same minutes of the same host; an
// observed workload also runs with the bus detached, which prices the
// probe layer.
func (w workload) traced(in inputs, ref [sha256.Size]byte, seconds float64, tr *tracer) (on, off, detached *samples) {
	on, off, detached = &samples{}, &samples{}, &samples{}
	p := &pacer{}
	start := time.Now()
	for len(on.wallMs) < minIterations || time.Since(start).Seconds() < seconds*tracedShare {
		off.iterate(p, w, in, w.engine(), nil, &ref)
		on.iterate(p, w, in, w.engine(), tr, &ref)
		if w.observed {
			e := w.engine()
			e.observed = false
			detached.iterate(p, w, in, e, nil, &ref)
		}
	}
	return on, off, detached
}

// endToEnd turns the untraced pass into the metrics a user would see.
// Allocation is the least of the iterations, not the median: an
// observed iteration allocates 8 MiB more whenever two collections
// happen to fall between its two JSON renders, and which way most
// iterations of a run fall is chance.
func endToEnd(s *samples, setupS float64) map[string]metric {
	return map[string]metric{
		"setup_s":          {setupS, "s"},
		"simcycles_per_s":  {float64(s.counters.stats.Cycles) / (median(s.nominalRunMs) / 1e3), "cycles/s"},
		"answer_wall_ms":   {median(s.nominalWallMs), "ms"},
		"alloc_mb_per_run": {slices.Min(s.allocMB), "MB"},
		"live_heap_mb":     {median(s.liveMB), "MB"},
	}
}

// distribution describes how the wall times of one pass are distributed:
// every iteration does identical work, so this is host noise.
func distribution(ms []float64) string {
	s := ascending(ms)
	out := fmt.Sprintf("n=%d p25=%.2f p50=%.2f p75=%.2f", len(s), percentile(s, 0.25), percentile(s, 0.5), percentile(s, 0.75))
	// The highest percentile that still has ten samples beyond it.
	if n := len(s); n >= 20 {
		out += fmt.Sprintf(" p%d=%.2f", 100*(n-10)/n, s[n-11])
	}
	return out + " ms"
}

// warnings lists what makes a pass's timings doubtful; none of it
// fails the run.
func (w workload) warnings(s *samples) []string {
	var ws []string
	sorted := ascending(s.wallMs)
	if r := percentile(sorted, 0.75) / percentile(sorted, 0.25); r > 1.15 {
		ws = append(ws, fmt.Sprintf("%s: p75/p25 of answer_wall_ms is %.2f (> 1.15): the host is noisy", w.name, r))
	}
	if u := s.cpuUtil(); w.workers == 1 && u < 0.9 {
		ws = append(ws, fmt.Sprintf("%s: host.cpu_util is %.2f (< 0.9) on one worker: the process was not running for part of the wall time", w.name, u))
	}
	return ws
}

func (s *samples) cpuUtil() float64 {
	if s.wall == 0 {
		return 0
	}
	return float64(s.cpu) / float64(s.wall)
}

// exactCounters are the per-layer metrics that repeat bit for bit for
// one seed on one commit, so two commits compare exactly.
var exactCounters = []string{
	"core.instructions", "core.cycles", "core.deschedules", "core.messages_out",
	"core.bytes_out", "core.external_out",
	"sim.barriers", "sim.windows", "sim.shard_windows", "sim.local_windows",
	"sim.cross", "sim.fused", "sim.mean_span_ns",
	"link.data_bytes", "link.acks", "link.retransmits", "link.busy_ns",
	"probe.events", "model.sim_time_us",
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer turns the traced pass and the layer drivers into the
// per-layer metrics.  drv are the drivers' unit costs; chanInstr is
// the chan loop's instructions per message.
func (w workload) perLayer(on, off, detached *samples, tr *tracer, drv map[string]metric, chanInstr float64) map[string]metric {
	m := make(map[string]metric, 64)
	for name, v := range drv {
		m[name] = v
	}
	for _, layer := range []string{"occam.compile", "network.build", "network.run", "network.stats", "probe.render", "bench.verify"} {
		m[layer+"_ms"] = metric{median(tr.durations(layer)), "ms"}
	}

	c := on.counters
	count := func(name string, v uint64) { m[name] = metric{float64(v), "count"} }
	count("core.instructions", c.stats.Instructions)
	count("core.cycles", c.stats.Cycles)
	count("core.deschedules", c.stats.Deschedules)
	count("core.messages_out", c.stats.MessagesOut)
	count("core.bytes_out", c.stats.BytesOut)
	count("core.external_out", c.stats.ExternalOut)
	count("sim.barriers", c.eng.Barriers)
	count("sim.windows", c.eng.Windows)
	count("sim.shard_windows", c.eng.ShardWindows)
	count("sim.local_windows", c.eng.LocalWindows)
	count("sim.cross", c.eng.Cross)
	count("sim.fused", c.eng.Fused)
	count("link.data_bytes", c.wires.DataBytes)
	count("link.acks", c.wires.Acks)
	count("link.retransmits", c.wires.Retransmits)
	count("probe.events", c.probeEvents)
	m["sim.mean_span_ns"] = metric{ratio(float64(c.eng.SpanSum), float64(c.eng.Windows)), "ns"}
	m["link.busy_ns"] = metric{float64(c.wires.BusyNs), "ns"}
	m["model.sim_time_us"] = metric{float64(c.simTime) / 1e3, "us"}
	m["sim.barrier_wait_ms"] = metric{float64(c.eng.BarrierWaitNs) / 1e6, "ms"}

	runNs := median(on.runMs) * 1e6
	m["host_ns_per_instr"] = metric{ratio(runNs, float64(c.stats.Instructions)), "ns"}
	m["host_ns_per_window"] = metric{ratio(runNs, float64(c.eng.Windows)), "ns"}
	m["sim.shards_per_window"] = metric{ratio(float64(c.eng.ShardWindows), float64(c.eng.Windows)), "count"}
	m["host_ns_per_link_byte"] = metric{ratio(runNs, float64(c.wires.DataBytes)), "ns"}
	var probeNs float64
	if len(detached.runMs) > 0 {
		probeNs = runNs - median(detached.runMs)*1e6
	}
	m["probe.ns_per_event"] = metric{ratio(probeNs, float64(c.probeEvents)), "ns"}
	m["mallocs_per_run"] = metric{median(on.mallocs), "count"}
	m["host.cpu_util"] = metric{on.cpuUtil(), "frac"}
	m["host.slowdown"] = metric{median(on.slowdown), "frac"}
	m["trace.overhead_frac"] = metric{ratio(median(on.wallMs), median(off.wallMs)) - 1, "frac"}

	// The budget is an estimate: it multiplies the drivers' unit costs
	// by the iteration's exact counts; nothing is timed inside Run.
	// Messages are priced as the chan loop's instructions, the rest of
	// the instruction stream as the mean of the alu and mem loops; a
	// barrier as the coordinator driver's, scaled linearly between its
	// 8- and 128-shard figures; every delivery as a kernel event.
	unit := func(name string) float64 { return drv[name].Value }
	msgInstr := math.Min(float64(c.stats.MessagesIn+c.stats.MessagesOut)*chanInstr, float64(c.stats.Instructions))
	plain := (unit("core.steprun.ns_per_instr.alu") + unit("core.steprun.ns_per_instr.mem")) / 2
	coreNs := msgInstr*unit("core.steprun.ns_per_instr.chan") + (float64(c.stats.Instructions)-msgInstr)*plain
	b8, b128 := unit("sim.coord.ns_per_barrier.k8"), unit("sim.coord.ns_per_barrier.k128")
	barrierNs := b8 + (b128-b8)*float64(c.eng.Shards-8)/120
	simNs := float64(c.eng.Barriers)*math.Max(barrierNs, 0) + float64(c.eng.Cross+c.eng.Fused)*unit("sim.kernel.ns_per_event")
	linkNs := float64(c.wires.DataBytes) * unit("link.plain.ns_per_byte")
	probeEstNs := float64(c.probeEvents) * unit("probe.publish.ns_per_event.full")
	shares := []float64{ratio(coreNs, runNs), ratio(simNs, runNs), ratio(linkNs, runNs), ratio(probeEstNs, runNs)}
	residual := 1.0
	for i, layer := range []string{"core", "sim", "link", "probe"} {
		m["est_share."+layer] = metric{shares[i], "frac"}
		residual -= shares[i]
	}
	m["est_share.residual"] = metric{residual, "frac"}
	return m
}
