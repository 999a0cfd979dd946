package probe_test

import (
	"bytes"
	"io"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"transputer/internal/bench"
	"transputer/internal/network"
	"transputer/internal/probe"
	"transputer/internal/raceflag"
	"transputer/internal/sim"
	"transputer/internal/tool"
)

// The renderers against their references (see render_test.go) on the
// events of real runs.  This file is an external test package because
// the networks it runs import probe.

// renderRun runs the system with a timeline and a flow table attached
// and compares what each writes with what its reference writes.
func renderRun(t *testing.T, s *network.System, limit sim.Time, resolve func(string, uint64) string) (*probe.Timeline, *probe.FlowDoc) {
	t.Helper()
	bus := probe.NewBus()
	tl := probe.NewTimeline(bus)
	ft := probe.NewFlowTable(bus)
	ft.Resolve = resolve
	s.AttachProbe(bus)
	rep := s.Run(limit)
	if !rep.Settled {
		t.Fatalf("run did not settle: %+v", rep)
	}

	var got, want bytes.Buffer
	if err := tl.WriteChromeTrace(&got); err != nil {
		t.Fatal(err)
	}
	if err := probe.RefWriteChromeTrace(tl.Events(), &want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("timeline of %d events: %d bytes differ from the reference's %d", tl.Len(), got.Len(), want.Len())
	}

	ft.Finish(rep.Time)
	doc := ft.Doc()
	if !reflect.DeepEqual(doc.Flows, probe.RefFlows(tl.Events(), resolve)) {
		t.Errorf("the table's %d flows differ from the reference accumulation's", len(doc.Flows))
	}
	got.Reset()
	want.Reset()
	if err := ft.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if err := probe.RefWriteFlowJSON(doc, &want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("flow document of %d flows: %d bytes differ from the reference's", len(doc.Flows), got.Len())
	}
	// And the document reads back as what was written, and tflow's
	// report of it is the table's and the reference's.
	back, err := probe.ReadFlowDoc(&got)
	if err != nil {
		t.Fatalf("the flow document does not parse: %v", err)
	}
	if len(back.Flows) != len(doc.Flows) || back.CriticalPathNs != int64(rep.Time) {
		t.Errorf("read back %d flows and a %d ns critical path, wrote %d and %d",
			len(back.Flows), back.CriticalPathNs, len(doc.Flows), rep.Time)
	}
	for _, top := range []int{0, 1, 10, len(doc.Flows) + 1} {
		var table, tflow, ref bytes.Buffer
		ft.Report(&table, top)
		back.Report(&tflow, top)
		probe.RefReport(doc, &ref, top)
		if !bytes.Equal(table.Bytes(), tflow.Bytes()) || !bytes.Equal(table.Bytes(), ref.Bytes()) {
			t.Errorf("report of %d flows, top %d: the table's %d bytes, tflow's %d, the reference's %d",
				len(doc.Flows), top, table.Len(), tflow.Len(), ref.Len())
		}
	}
	return tl, doc
}

// TestRingMatchesReference: the benchmark's observed workload in small,
// every link of an 8-node ring streaming, no source locations.
func TestRingMatchesReference(t *testing.T) {
	s, err := bench.Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	tl, doc := renderRun(t, s, 10*sim.Second, nil)
	if tl.Len() < 10000 || len(doc.Flows) < 8*256 {
		t.Errorf("ring recorded %d events and %d flows: too few to be the streaming ring", tl.Len(), len(doc.Flows))
	}
}

// TestTimelineStoreAllocGuard pins what an observed run keeps an event,
// on the streaming ring's real traffic: its records take at most 10
// bytes an event (7.4 when this was written; a record of plain uvarints
// and one flow delta took 13.4), and recording them again allocates
// those bytes and at most one chunk of slack.
func TestTimelineStoreAllocGuard(t *testing.T) {
	s, err := bench.Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	bus := probe.NewBus()
	tl := probe.NewTimeline(bus)
	s.AttachProbe(bus)
	if rep := s.Run(10 * sim.Second); !rep.Settled {
		t.Fatalf("run did not settle: %+v", rep)
	}
	used := probe.StoredBytes(tl)
	if per := float64(used) / float64(tl.Len()); per > 10 {
		t.Errorf("%d events stored in %d bytes: %.2f an event, want at most 10", tl.Len(), used, per)
	}
	if raceflag.Enabled {
		return // the race detector's instrumentation allocates
	}
	evs := tl.Events()
	bus = probe.NewBus()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	again := probe.NewTimeline(bus)
	for i := range evs {
		bus.PublishRef(&evs[i])
	}
	runtime.ReadMemStats(&m1)
	if got := probe.StoredBytes(again); got != used {
		t.Errorf("the same events stored again take %d bytes, first %d", got, used)
	}
	// The node table and the list of chunks take the few KiB over.
	if got, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(used+probe.ChunkBytes+4<<10); got > limit {
		t.Errorf("recording %d events in %d bytes allocated %d, over %d", len(evs), used, got, limit)
	}
}

// TestLossyLinkMatchesReference: the shipped lossy link, whose run has
// the fault, NAK and retransmit kinds, flows with retry tails, a host
// far end and occam source locations.
func TestLossyLinkMatchesReference(t *testing.T) {
	net, err := tool.LoadNetworkFile(filepath.Join("..", "..", "examples", "faults", "lossy-link.tnet"), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	tl, doc := renderRun(t, net.System, net.Limit, tool.LineResolver(net.Programs))
	kinds := map[probe.Kind]int{}
	for _, e := range tl.Events() {
		kinds[e.Kind]++
	}
	for _, k := range []probe.Kind{probe.FaultDrop, probe.FaultCorrupt, probe.LinkNak, probe.LinkRetransmit, probe.HostCommand} {
		if kinds[k] == 0 {
			t.Errorf("the lossy run published no %v event", k)
		}
	}
	var located, retried int
	for _, f := range doc.Flows {
		if f.Loc != "" {
			located++
		}
		if f.Retransmits > 0 {
			retried++
		}
	}
	if located == 0 || retried == 0 {
		t.Errorf("%d flows with a source location, %d with retransmits: want some of each", located, retried)
	}
}

// TestFlowTableAllocGuard pins what an observed run's flow table keeps a
// flow, on the streaming ring's real traffic: after Finish its records,
// index and cold parts take at most 104 bytes a flow, the chunks' unused
// tails counted (a record and its index took about 300 when each flow
// was a 288-byte struct with a pointer to it), and writing the document
// and the report allocates a constant past the document's buffer,
// whatever the number of flows.
func TestFlowTableAllocGuard(t *testing.T) {
	s, err := bench.Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	bus := probe.NewBus()
	ft := probe.NewFlowTable(bus)
	s.AttachProbe(bus)
	rep := s.Run(10 * sim.Second)
	if !rep.Settled {
		t.Fatalf("run did not settle: %+v", rep)
	}
	ft.Finish(rep.Time)
	n := probe.FlowCount(ft)
	if n < 8*256 {
		t.Fatalf("ring made %d flows: too few to be the streaming ring", n)
	}
	held := probe.FlowTableBytes(ft)
	t.Logf("%d flows held in %d bytes, %d with a cold part", n, held, probe.ColdFlows(ft))
	if per := float64(held) / float64(n); per > 104 {
		t.Errorf("%d flows held in %d bytes: %.1f a flow, want at most 104", n, held, per)
	}
	if raceflag.Enabled {
		return // the race detector's instrumentation allocates
	}
	render := func() {
		if err := ft.WriteJSON(io.Discard); err != nil {
			t.Error(err)
		}
		ft.Report(io.Discard, 10)
	}
	render() // the first render sizes what the runtime keeps
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	render()
	runtime.ReadMemStats(&m1)
	t.Logf("rendering allocated %d bytes in %d allocations", m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs)
	// The document's 64 KiB buffer, the report's 4 KiB one and a few
	// hundred bytes of slots and names: nothing a flow or a path span.
	if got, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(64<<10+8<<10); got > limit {
		t.Errorf("rendering %d flows allocated %d bytes, over %d", n, got, limit)
	}
}
