// Benchmark is the repository's one benchmark: six workloads run
// through the simulator the way a tnet user runs it, five end-to-end
// metrics from an untraced pass, and per-layer unit costs and counters
// from a traced pass and a set of layer drivers.  README.md says why
// each workload is there and how the metrics interact.
//
// Usage:
//
//	go run ./benchmark [-seed n] [-seconds s] [-repeat n] [-tracefile f]
//	go run ./benchmark -workload name -seed n -seconds s -trace 0|1 [-tracefile f]
//
// Without -workload every workload runs, untraced then traced, each
// run in a fresh process of this binary exactly as the second form
// runs it; the exit code is non-zero if any check failed.  -repeat n
// does that n times and compares the sets against the bounds fixed in
// BENCHMARK.json.
//
// With -workload one workload runs for -seconds and the last line of
// standard output is one JSON object: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1.  -tracefile writes
// the traced pass's spans as a Chrome trace.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json the program reads: the
// bound of each end-to-end metric, which -repeat compares sets
// against, and the names the smoke test holds the program to.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit string
		Bound      float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkSpec(path string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	err = json.Unmarshal(data, &spec)
	return spec, err
}

func main() {
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	name := flag.String("workload", "", "run this one workload and end with a JSON line (default: all of them)")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 13, "how long one pass measures")
	trace := flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass and layer drivers, per-layer metrics")
	tracefile := flag.String("tracefile", "", "write the traced pass's spans to this file as a Chrome trace")
	repeat := flag.Int("repeat", 1, "run every workload this many times and compare the sets")
	setupOnly := flag.Bool("setup-only", false, "do a workload's set-up and exit (what set-up time is measured on)")
	flag.Parse()

	if *name == "" {
		os.Exit(runSets(*repeat, *seed, *seconds, *tracefile))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *setupOnly {
		if _, err := w.setup(*seed); err != nil {
			fatal(err)
		}
		return
	}
	rep, err := runOne(os.Stdout, w, *seed, *seconds, *trace == 1, *tracefile)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// header prints the host record: what a number was measured on.
func header(out io.Writer, w workload, seed int64, seconds float64, traced bool) {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	pass := "untraced"
	if traced {
		pass = "traced"
	}
	fmt.Fprintf(out, "# %s (%s): %s\n", w.name, pass, w.describe())
	fmt.Fprintf(out, "# host: nproc=%d GOMAXPROCS=%d %s %s/%s cpu=%q commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpu, commit)
	fmt.Fprintf(out, "# seed=%d seconds=%g warm-up iterations=%d set-up samples=%d min timed iterations=%d\n",
		seed, seconds, warmups, setupSamples, minIterations)
	fmt.Fprintf(out, "# yardstick: arith=%d chase=%d map=%d nominal=%v\n", yardArith, yardChase, yardMap, yardNominal)
}

func printMetrics(out io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "%-40s %16.6g %s\n", name, m[name].Value, m[name].Unit)
	}
}

// runOne measures one workload in this process.
func runOne(out io.Writer, w workload, seed int64, seconds float64, traced bool, tracefile string) (report, error) {
	header(out, w, seed, seconds, traced)
	var setupS float64
	if !traced {
		var err error
		if setupS, err = setupSeconds(w, seed); err != nil {
			return report{}, err
		}
	}
	in, err := w.setup(seed)
	if err != nil {
		return report{}, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}
	ref, err := w.reference(in)
	if err != nil {
		return report{}, fmt.Errorf("%s: reference run: %w", w.name, err)
	}

	var s *samples
	var metrics map[string]metric
	if traced {
		tr := newTracer()
		on, off, detached := w.traced(in, ref, seconds, tr)
		drv, chanInstr, err := drivers(1)
		if err != nil {
			return report{}, err
		}
		s, metrics = on, w.perLayer(on, off, detached, tr, drv, chanInstr)
		if tracefile != "" {
			if err := writeChromeTrace(tracefile, tr.chrome(w.name)); err != nil {
				return report{}, err
			}
		}
	} else {
		s = w.untraced(in, ref, seconds)
		metrics = endToEnd(s, setupS)
	}

	fmt.Fprintf(out, "# answer_wall_ms at nominal host speed: %s\n", distribution(s.nominalWallMs))
	fmt.Fprintf(out, "# answer_wall_ms as the clock read it:   %s\n", distribution(s.wallMs))
	fmt.Fprintf(out, "# host slowdown by the yardstick: median %.3f\n", median(s.slowdown))
	fmt.Fprintf(out, "# digest %x ops=%d failed=%d\n", s.digest[:8], len(s.wallMs), s.failed)
	if s.firstErr != nil {
		fmt.Fprintf(out, "# FAILED: %v\n", s.firstErr)
	}
	for _, warn := range w.warnings(s) {
		fmt.Fprintf(out, "# warning: %s\n", warn)
	}
	printMetrics(out, metrics)
	return report{Correct: s.failed == 0, Attempted: len(s.wallMs), Failed: s.failed, Metrics: metrics}, nil
}

// child runs one workload in a fresh process of this binary, passes
// its report through and returns the JSON line it ended with.
func child(w workload, seed int64, seconds float64, trace int, tracefile string) (report, error) {
	self, err := os.Executable()
	if err != nil {
		return report{}, err
	}
	args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace)}
	if tracefile != "" {
		args = append(args, "-tracefile", tracefile)
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return report{}, err
	}
	if err := cmd.Start(); err != nil {
		return report{}, err
	}
	var last string
	sc := bufio.NewScanner(stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	runErr := cmd.Wait()
	var rep report
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		fmt.Println(last)
		if runErr != nil {
			return report{}, fmt.Errorf("%s: %w", w.name, runErr)
		}
		return report{}, fmt.Errorf("%s: no report: %w", w.name, err)
	}
	return rep, nil
}

// runSets runs every workload, untraced then traced, `sets` times and
// returns the exit code.
func runSets(sets int, seed int64, seconds float64, tracefile string) int {
	type key struct{ workload, metric string }
	values := make(map[key][]float64)
	var spans []chromeSpan
	attempted, failed := 0, 0
	for set := 0; set < sets; set++ {
		spans = spans[:0]
		for i, w := range workloads {
			if w.workers > runtime.NumCPU() {
				fmt.Printf("# %s: skipped, %d workers need as many processors and the host has %d\n\n", w.name, w.workers, runtime.NumCPU())
				continue
			}
			part := ""
			if tracefile != "" {
				part = tracefile + "." + w.name + ".part"
			}
			for trace := 0; trace <= 1; trace++ {
				rep, err := child(w, seed, seconds, trace, part)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
				fmt.Println()
				attempted += rep.Attempted
				failed += rep.Failed
				for name, m := range rep.Metrics {
					values[key{w.name, name}] = append(values[key{w.name, name}], m.Value)
				}
			}
			if part != "" {
				evs, err := readChromeTrace(part)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
				os.Remove(part)
				for _, e := range evs {
					e.Pid = i + 1
					spans = append(spans, e)
				}
			}
		}
	}
	if tracefile != "" {
		if err := writeChromeTrace(tracefile, spans); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}

	code := 0
	if sets > 1 {
		// go run ./benchmark runs in the root of the repository.
		spec, err := readBenchmarkSpec("BENCHMARK.json")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: the bounds are in BENCHMARK.json:", err)
			return 1
		}
		fmt.Printf("# %d sets: (max-min)/median of each end-to-end metric against its bound\n", sets)
		for _, w := range workloads {
			for _, b := range spec.EndToEnd {
				vs := values[key{w.name, b.Name}]
				if len(vs) == 0 {
					continue
				}
				rel := (slices.Max(vs) - slices.Min(vs)) / median(vs)
				verdict := "ok"
				if rel > b.Bound {
					verdict = "EXCEEDS"
					code = 1
				}
				fmt.Printf("%-16s %-18s spread %6.2f%%  bound %5.1f%%  %s\n", w.name, b.Name, 100*rel, 100*b.Bound, verdict)
			}
			for _, name := range exactCounters {
				vs := values[key{w.name, name}]
				for _, v := range vs {
					if v != vs[0] {
						fmt.Printf("%-16s %-18s NOT EXACT: %v\n", w.name, name, vs)
						code = 1
						break
					}
				}
			}
		}
	}
	fmt.Printf("# all workloads: ops=%d failed=%d\n", attempted, failed)
	if failed > 0 {
		code = 1
	}
	return code
}
