package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one call into a layer, timed from the benchmark's side of
// the call.  Spans of one iteration share its number; parent is the
// index of the enclosing span, -1 for an iteration's root.
type span struct {
	name       string
	start, end time.Duration // since the tracer was made
	parent     int
	iter       int
}

// tracer keeps spans in memory until the run ends.  A nil tracer
// records nothing, which is how the untraced pass runs.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	iter  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

type spanRef struct {
	t *tracer
	i int
}

// begin opens a span under the innermost open one.  An iteration's
// root span starts a new iteration and forgets anything a failed
// iteration left open.
func (t *tracer) begin(name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	if name == "bench.iteration" {
		t.iter++
		t.open = t.open[:0]
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0), parent: parent, iter: t.iter})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return spanRef{t, i}
}

func (r spanRef) end() {
	if r.t == nil {
		return
	}
	r.t.spans[r.i].end = time.Since(r.t.t0)
	for n := len(r.t.open); n > 0 && r.t.open[n-1] >= r.i; n-- {
		r.t.open = r.t.open[:n-1]
	}
}

// durations returns the length in milliseconds of every closed span of
// the given name.
func (t *tracer) durations(name string) []float64 {
	var ds []float64
	for _, s := range t.spans {
		if s.name == name && s.end > 0 {
			ds = append(ds, float64(s.end-s.start)/1e6)
		}
	}
	return ds
}

// chromeSpan is a complete ("X") event of the Chrome trace format.
type chromeSpan struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

type chromeTrace struct {
	TraceEvents []chromeSpan `json:"traceEvents"`
}

// chrome renders the spans as one trace process; the full run gives
// each workload's a process number of its own when it merges them.
func (t *tracer) chrome(workload string) []chromeSpan {
	evs := make([]chromeSpan, 0, len(t.spans))
	for i, s := range t.spans {
		if s.end == 0 {
			continue
		}
		evs = append(evs, chromeSpan{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Args: map[string]any{"workload": workload, "iteration": s.iter, "span": i, "parent": s.parent},
		})
	}
	return evs
}

func writeChromeTrace(path string, evs []chromeSpan) error {
	data, err := json.Marshal(chromeTrace{TraceEvents: evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readChromeTrace(path string) ([]chromeSpan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var tr chromeTrace
	if err := json.Unmarshal(data, &tr); err != nil {
		return nil, err
	}
	return tr.TraceEvents, nil
}
