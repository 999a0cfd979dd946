package probe

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"transputer/internal/isa"
	"transputer/internal/sim"
)

func TestBusFanout(t *testing.T) {
	b := NewBus()
	var got []Kind
	b.Subscribe(func(e Event) { got = append(got, e.Kind) })
	b.Subscribe(func(e Event) { got = append(got, e.Kind) })
	b.Publish(Event{Kind: ChanRendezvous})
	if len(got) != 2 || got[0] != ChanRendezvous || got[1] != ChanRendezvous {
		t.Errorf("fanout = %v", got)
	}
}

func TestKindNames(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "" || k.String() == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if Kind(200).String() != "unknown" {
		t.Errorf("out-of-range kind should be unknown")
	}
}

// TestTimelineChromeTrace feeds a synthetic event sequence through the
// timeline and checks the exported JSON is valid Chrome trace-event
// format with matched B/E slices and named tracks.
func TestTimelineChromeTrace(t *testing.T) {
	b := NewBus()
	tl := NewTimeline(b)
	us := func(n int64) sim.Time { return sim.Time(n) * sim.Microsecond }
	b.Publish(Event{Time: us(1), Node: "n0", Kind: ProcDispatch, Proc: 0x8001, Pri: 1})
	b.Publish(Event{Time: us(2), Node: "n0", Kind: ChanBlock, Proc: 0x8001, Addr: 0x100, Out: true})
	b.Publish(Event{Time: us(2), Node: "n0", Kind: ProcStop, Proc: 0x8001})
	b.Publish(Event{Time: us(2), Node: "n0", Kind: ProcDispatch, Proc: 0x9001, Pri: 1})
	b.Publish(Event{Time: us(3), Node: "n0", Kind: ChanRendezvous, Proc: 0x9001, Addr: 0x100, Bytes: 4, Arg: 0x8001})
	b.Publish(Event{Time: us(4), Node: "n1", Kind: WirePacket, Link: 2, Dur: us(1)})
	b.Publish(Event{Time: us(6), Node: "n1", Kind: AckStall, Link: 2, Dur: us(1)})
	// n0's second slice is left open: the exporter must close it.

	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string                 `json:"name"`
			Ph   string                 `json:"ph"`
			Ts   float64                `json:"ts"`
			Dur  float64                `json:"dur"`
			Pid  int                    `json:"pid"`
			Tid  int                    `json:"tid"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}

	nodes := map[string]bool{}
	begins, ends := 0, 0
	sawStall := false
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name == "process_name" {
				nodes[e.Args["name"].(string)] = true
			}
		case "B":
			begins++
		case "E":
			ends++
		case "X":
			if e.Name == "ack.stall" {
				sawStall = true
				// The stall slice must end at the event time: ts+dur = 6µs.
				if e.Ts+e.Dur != 6 {
					t.Errorf("stall ts=%v dur=%v, want end at 6µs", e.Ts, e.Dur)
				}
			}
		}
	}
	if !nodes["n0"] || !nodes["n1"] {
		t.Errorf("missing node metadata: %v", nodes)
	}
	if begins != ends {
		t.Errorf("unbalanced slices: %d B vs %d E", begins, ends)
	}
	if begins != 2 {
		t.Errorf("begins = %d, want 2 dispatches", begins)
	}
	if !sawStall {
		t.Error("no ack.stall slice exported")
	}
}

func TestMetricsBusyAndQueues(t *testing.T) {
	b := NewBus()
	m := NewMetrics(b)
	us := func(n int64) sim.Time { return sim.Time(n) * sim.Microsecond }
	b.Publish(Event{Time: us(0), Node: "n0", Kind: ProcDispatch, Pri: 1})
	b.Publish(Event{Time: us(4), Node: "n0", Kind: ProcStop})
	b.Publish(Event{Time: us(5), Node: "n0", Kind: ProcReady, Pri: 1, Depth: 2})
	b.Publish(Event{Time: us(6), Node: "n0", Kind: ProcDispatch, Pri: 1, Depth: 1})
	m.Finish(us(10))

	if got := m.NodeBusy("n0"); got != us(4)+us(4) {
		t.Errorf("busy = %v, want 8µs (4 closed + 4 to end)", got)
	}
	var rep strings.Builder
	m.Report(&rep)
	if !strings.Contains(rep.String(), "n0:") {
		t.Errorf("report missing node: %s", rep.String())
	}
}

// TestSamplerQuiesces checks the sampler stops rescheduling itself once
// the rest of the system drains, so runs still end.
func TestSamplerQuiesces(t *testing.T) {
	k := sim.NewKernel()
	s := NewSampler(sim.Microsecond)
	running := true
	tgt := s.AddTarget("m", k, func() (uint64, bool) {
		if running {
			return 0x80000040, true
		}
		return 0, false
	})
	// Simulated work for 5µs, then nothing.
	k.After(5*sim.Microsecond+sim.Time(1), func() { running = false })
	s.Start()
	k.Run()
	if tgt.Running != 5 {
		t.Errorf("running samples = %d, want 5", tgt.Running)
	}
	if tgt.Idle != 1 {
		t.Errorf("idle samples = %d, want 1 (the sample after quiescence)", tgt.Idle)
	}
	if tgt.Counts[0x80000040] != 5 {
		t.Errorf("counts = %v", tgt.Counts)
	}
}

func TestResolveAndProfileRoundTrip(t *testing.T) {
	tgt := &Target{
		Name: "m",
		Counts: map[uint64]uint64{
			0x1000: 3, // line 10 (mark at 0)
			0x1004: 2, // line 12 (mark at 4)
			0x2000: 1, // outside the code image
		},
		Running: 6,
		Idle:    4,
	}
	tp := Resolve(tgt, ResolveOptions{
		CodeStart: 0x1000,
		Code:      make([]byte, 0x100),
		Marks:     []isa.SourceMark{{Offset: 0, Line: 10}, {Offset: 4, Line: 12}},
		SourceLines: []string{
			"line one", "", "", "", "", "", "", "", "",
			"  x := x + 1", "", "  c ! x",
		},
		SourcePath: "prog.occ",
	})
	if tp.Attributed != 5 {
		t.Errorf("attributed = %d, want 5", tp.Attributed)
	}
	if len(tp.Buckets) != 3 {
		t.Fatalf("buckets = %+v", tp.Buckets)
	}
	if tp.Buckets[0].Where != "prog.occ:10" || tp.Buckets[0].Samples != 3 {
		t.Errorf("top bucket = %+v", tp.Buckets[0])
	}
	if tp.Buckets[0].Source != "  x := x + 1" {
		t.Errorf("source = %q", tp.Buckets[0].Source)
	}

	p := &Profile{PeriodNs: 1000, Targets: []TargetProfile{tp}}
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.PeriodNs != 1000 || len(back.Targets) != 1 || back.Targets[0].Attributed != 5 {
		t.Errorf("round trip = %+v", back)
	}
}
