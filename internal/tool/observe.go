package tool

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"transputer/internal/core"
	"transputer/internal/isa"
	"transputer/internal/network"
	"transputer/internal/probe"
	"transputer/internal/sim"
)

// Observer bundles the probe-bus consumers behind the CLI flags: a
// timeline recorder (-timeline), a metrics aggregator (-metrics) and a
// sampling profiler (-prof).  Nothing is attached to the system until
// Start, so a run with no observer flags keeps the no-subscriber fast
// path (a nil bus) in every machine.
type Observer struct {
	sys *network.System
	bus *probe.Bus

	timeline     *probe.Timeline
	timelinePath string

	metrics *probe.Metrics

	flows     *probe.FlowTable
	flowsPath string

	sampler     *probe.Sampler
	profilePath string
	targets     []profTarget
}

type profTarget struct {
	t   *probe.Target
	opt probe.ResolveOptions
}

// NewObserver returns an inactive observer for the system.
func NewObserver(s *network.System) *Observer {
	return &Observer{sys: s}
}

func (o *Observer) ensureBus() *probe.Bus {
	if o.bus == nil {
		o.bus = probe.NewBus()
	}
	return o.bus
}

// EnableTimeline records every probe event for a Chrome trace written
// to path by Finish.
func (o *Observer) EnableTimeline(path string) {
	o.timelinePath = path
	o.timeline = probe.NewTimeline(o.ensureBus())
}

// EnableMetrics aggregates per-node and per-link metrics, reported by
// Finish.
func (o *Observer) EnableMetrics() {
	o.metrics = probe.NewMetrics(o.ensureBus())
}

// EnableFlows traces message flows: Finish writes the flow document
// (spans, latency histograms, critical path) to path and prints the
// summary.  resolve, when non-nil, annotates flows with occam source
// locations (see LineResolver).
func (o *Observer) EnableFlows(path string, resolve func(node string, iptr uint64) string) {
	o.flowsPath = path
	o.flows = probe.NewFlowTable(o.ensureBus())
	o.flows.Resolve = resolve
}

// EnableProfile samples every registered target's instruction pointer
// each period, saving the resolved profile to path at Finish.  Targets
// are registered with AddProfileTarget.
func (o *Observer) EnableProfile(path string, period sim.Time) {
	o.profilePath = path
	o.sampler = probe.NewSampler(period)
}

// AddProfileTarget registers a node for sampling.  The image supplies
// the source map; srcPath (may be empty, or name a file that no longer
// exists) supplies source text for the report.  No-op unless
// EnableProfile was called.
func (o *Observer) AddProfileTarget(n *network.Node, img core.Image, srcPath string) {
	if o.sampler == nil {
		return
	}
	m := n.M
	t := o.sampler.AddTarget(n.Name, n.Clock(), func() (uint64, bool) {
		if m.Idle() {
			return 0, false
		}
		return m.Iptr, true
	})
	opt := probe.ResolveOptions{
		CodeStart:  m.CodeStart(),
		Code:       img.Code,
		Marks:      img.Marks,
		SourcePath: srcPath,
	}
	if srcPath != "" {
		if src, err := os.ReadFile(srcPath); err == nil {
			opt.SourceLines = strings.Split(string(src), "\n")
		}
	}
	o.targets = append(o.targets, profTarget{t: t, opt: opt})
}

// Active reports whether any consumer has been enabled.
func (o *Observer) Active() bool { return o.bus != nil || o.sampler != nil }

// Start attaches the bus to the system (if any bus consumer is
// enabled) and arms the sampler.  Call after the system is fully built
// and before Run.
func (o *Observer) Start() {
	if o.bus != nil {
		o.sys.AttachProbe(o.bus)
	}
	if o.sampler != nil {
		o.sampler.Start()
	}
}

// Finish closes the accounting at the run's end time, writes the
// timeline and profile files, and prints the metrics report and a
// profile summary to w.
func (o *Observer) Finish(end sim.Time, w io.Writer) error {
	if o.timeline != nil {
		f, err := os.Create(o.timelinePath)
		if err != nil {
			return err
		}
		if err := o.timeline.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "timeline: %d events -> %s (load in chrome://tracing or ui.perfetto.dev)\n",
			o.timeline.Len(), o.timelinePath)
	}
	if o.metrics != nil {
		o.metrics.Finish(end)
		o.metrics.Report(w)
	}
	if o.flows != nil {
		o.flows.Finish(end)
		f, err := os.Create(o.flowsPath)
		if err != nil {
			return err
		}
		if err := o.flows.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "flows written to %s (render with tflow)\n", o.flowsPath)
		o.flows.Report(w, 10)
	}
	if o.sampler != nil {
		p := o.ResolveProfile()
		f, err := os.Create(o.profilePath)
		if err != nil {
			return err
		}
		if err := p.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "profile written to %s (render with tprof)\n", o.profilePath)
		p.Report(w, 10)
	}
	return nil
}

// ResolveProfile attributes all targets' samples without writing files.
func (o *Observer) ResolveProfile() *probe.Profile {
	p := &probe.Profile{PeriodNs: int64(o.sampler.Period)}
	for _, pt := range o.targets {
		p.Targets = append(p.Targets, probe.Resolve(pt.t, pt.opt))
	}
	return p
}

// LineResolver maps a node's instruction pointer to a source location
// ("file:line") through the loaded programs' source maps.  Unknown
// nodes and unmapped addresses resolve to "".
func LineResolver(progs []Program) func(node string, iptr uint64) string {
	byNode := make(map[string]Program, len(progs))
	for _, p := range progs {
		byNode[p.Node.Name] = p
	}
	return func(node string, iptr uint64) string {
		p, ok := byNode[node]
		if !ok {
			return ""
		}
		line := isa.SourceLine(p.Image.Marks, len(p.Image.Code), int(iptr-p.Node.M.CodeStart()))
		if line == 0 {
			return ""
		}
		return fmt.Sprintf("%s:%d", filepath.Base(p.Path), line)
	}
}
