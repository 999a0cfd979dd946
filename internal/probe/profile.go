package probe

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"transputer/internal/isa"
	"transputer/internal/sim"
)

// SampleClock is what a sampling tick needs from a target's scheduling
// domain: a way to plant the next tick and a local quiescence test.
// Callers pass the target node's *sim.Port (a bare *sim.Kernel
// satisfies it too).  Pending deliberately reflects only the target's
// own port — consulting global state from inside a window would make
// sampling depend on how far other shards had progressed.
type SampleClock interface {
	After(d sim.Time, fn func()) sim.EventID
	Pending() int
}

// Sampler is a sampling profiler: every Period of simulated time it
// reads each target's instruction pointer and accumulates a histogram.
// Each target's ticks ride that target's own event shard, so sampling
// is exact in simulated time, adds nothing to the simulated cycle
// counts, and stays deterministic at any worker count.
type Sampler struct {
	Period  sim.Time
	targets []*Target
	started bool
}

// Target is one profiled machine: Sample returns the current
// instruction pointer, or ok=false when no process is executing.
type Target struct {
	Name   string
	Sample func() (addr uint64, ok bool)
	clk    SampleClock

	// Counts maps sampled instruction addresses to hit counts.
	Counts map[uint64]uint64
	// Running and Idle count samples with and without an executing
	// process.
	Running, Idle uint64
}

// NewSampler builds a profiler with the given period, which must be
// positive.
func NewSampler(period sim.Time) *Sampler {
	if period <= 0 {
		panic(fmt.Sprintf("probe: sampling period %v is not positive", period))
	}
	return &Sampler{Period: period}
}

// AddTarget registers a machine to sample on its clock (its shard).
func (s *Sampler) AddTarget(name string, clk SampleClock, sample func() (uint64, bool)) *Target {
	t := &Target{Name: name, Sample: sample, clk: clk, Counts: map[uint64]uint64{}}
	s.targets = append(s.targets, t)
	return t
}

// Start schedules each target's first sample one period from now.  A
// target stops rescheduling itself once it is the only activity left
// on its shard, so runs still quiesce.
func (s *Sampler) Start() {
	if s.started {
		return
	}
	s.started = true
	for _, t := range s.targets {
		t.clk.After(s.Period, func() { s.tick(t) })
	}
}

func (s *Sampler) tick(t *Target) {
	if addr, ok := t.Sample(); ok {
		t.Counts[addr]++
		t.Running++
	} else {
		t.Idle++
	}
	if t.clk.Pending() == 0 {
		return // everything else on this shard has quiesced; let the run end
	}
	t.clk.After(s.Period, func() { s.tick(t) })
}

// ResolveOptions says how to attribute a target's sampled addresses.
type ResolveOptions struct {
	// CodeStart is the load address of the code image Code.
	CodeStart uint64
	Code      []byte
	// Marks is the image's source map (may be empty).
	Marks []isa.SourceMark
	// SourceLines holds the program source, for annotating the report.
	SourceLines []string
	// SourcePath names the source file in the report.
	SourcePath string
}

// Bucket is one row of a resolved profile.
type Bucket struct {
	// Where identifies the row: "file.occ:12" for a source line,
	// otherwise a code offset label.
	Where string `json:"where"`
	// Line is the source line number, 0 when unattributed.
	Line    int    `json:"line,omitempty"`
	Samples uint64 `json:"samples"`
	// Source is the source line text, when available.
	Source string `json:"source,omitempty"`
}

// TargetProfile is the resolved histogram of one machine.
type TargetProfile struct {
	Name string `json:"name"`
	// Total counts samples taken while a process was executing; Idle
	// counts samples of an idle processor.
	Total uint64 `json:"total"`
	Idle  uint64 `json:"idle"`
	// Attributed counts samples mapped to a source line.
	Attributed uint64   `json:"attributed"`
	Buckets    []Bucket `json:"buckets"`
}

// Profile is a saved profiling run.
type Profile struct {
	PeriodNs int64           `json:"period_ns"`
	Targets  []TargetProfile `json:"targets"`
}

// Resolve attributes a target's samples to source lines (via marks) or
// to code offsets labelled with the instruction there, producing one
// profile entry sorted by sample count.
func Resolve(t *Target, opt ResolveOptions) TargetProfile {
	type key struct {
		line int
		off  int
	}
	rows := map[key]uint64{}
	var attributed uint64
	//tvet:ignore detrange sums samples into per-line rows; addition commutes, so the rows do not depend on the order
	for addr, count := range t.Counts {
		off := int(addr - opt.CodeStart)
		if line := isa.SourceLine(opt.Marks, len(opt.Code), off); line > 0 {
			rows[key{line: line}] += count
			attributed += count
			continue
		}
		rows[key{off: off, line: -1}] += count
	}
	tp := TargetProfile{Name: t.Name, Total: t.Running, Idle: t.Idle, Attributed: attributed}
	//tvet:ignore detrange the buckets are sorted below by (samples, Where), and Where is unique per row: a total order
	for k, count := range rows {
		b := Bucket{Samples: count}
		if k.line > 0 {
			b.Line = k.line
			b.Where = fmt.Sprintf("%s:%d", sourceName(opt.SourcePath), k.line)
			if k.line-1 < len(opt.SourceLines) {
				b.Source = strings.TrimRight(opt.SourceLines[k.line-1], " \t")
			}
		} else {
			b.Where = fmt.Sprintf("code+%#x", k.off)
			if in, ok := isa.Decode(opt.Code, k.off); ok {
				b.Source = in.String()
			}
		}
		tp.Buckets = append(tp.Buckets, b)
	}
	sort.Slice(tp.Buckets, func(i, j int) bool {
		if tp.Buckets[i].Samples != tp.Buckets[j].Samples {
			return tp.Buckets[i].Samples > tp.Buckets[j].Samples
		}
		return tp.Buckets[i].Where < tp.Buckets[j].Where
	})
	return tp
}

func sourceName(path string) string {
	if path == "" {
		return "src"
	}
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// WriteJSON serialises the profile.
func (p *Profile) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// ReadProfile parses a serialised profile.
func ReadProfile(r io.Reader) (*Profile, error) {
	var p Profile
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return &p, nil
}

// WriteFolded emits the profile as folded stacks — one
// "target;where count" line per bucket, targets and buckets in profile
// order — the input format of standard flamegraph tooling
// (flamegraph.pl, inferno, speedscope).  Idle samples fold under a
// synthetic "(idle)" frame so the graph shows total wall time.
func (p *Profile) WriteFolded(w io.Writer) error {
	for _, t := range p.Targets {
		for _, b := range t.Buckets {
			if _, err := fmt.Fprintf(w, "%s;%s %d\n", t.Name, b.Where, b.Samples); err != nil {
				return err
			}
		}
		if t.Idle > 0 {
			if _, err := fmt.Fprintf(w, "%s;(idle) %d\n", t.Name, t.Idle); err != nil {
				return err
			}
		}
	}
	return nil
}

// Report renders the profile as text, top lines first.  top <= 0 means
// every bucket.
func (p *Profile) Report(w io.Writer, top int) {
	fmt.Fprintf(w, "sampling profile, period %v\n", sim.Time(p.PeriodNs))
	for _, t := range p.Targets {
		all := t.Total + t.Idle
		fmt.Fprintf(w, "%s: %d samples (%d running, %d idle", t.Name, all, t.Total, t.Idle)
		if t.Total > 0 {
			fmt.Fprintf(w, "; %.1f%% attributed to source lines", 100*float64(t.Attributed)/float64(t.Total))
		}
		fmt.Fprintln(w, ")")
		var cum uint64
		for i, b := range t.Buckets {
			if top > 0 && i >= top {
				fmt.Fprintf(w, "  ... %d more rows\n", len(t.Buckets)-i)
				break
			}
			cum += b.Samples
			fmt.Fprintf(w, "  %6.2f%% %6.2f%%  %8d  %-16s %s\n",
				100*float64(b.Samples)/float64(t.Total),
				100*float64(cum)/float64(t.Total),
				b.Samples, b.Where, b.Source)
		}
	}
}
