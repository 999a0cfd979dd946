package probe

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"transputer/internal/raceflag"
	"transputer/internal/sim"
)

// The append encoders of timeline.go and flow.go replaced reflective
// ones that now live in timeline_ref_test.go and flow_ref_test.go.
// Every test here renders the same input through both and wants the
// same bytes: an argument key out of order, a missing omitempty, a raw
// '>' or a lost trailing newline all show as a difference.

// sameBytes fails the test at the first byte where got leaves want.
func sameBytes(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	clip := func(b []byte) []byte { return b[max(0, i-60):min(len(b), i+60)] }
	t.Errorf("%s: %d bytes, reference %d; they part at byte %d\n got: …%s…\nwant: …%s…",
		what, len(got), len(want), i, clip(got), clip(want))
}

// checkTimeline renders the events through the timeline and through
// the reference and compares.
func checkTimeline(t *testing.T, what string, evs []Event) {
	t.Helper()
	b := NewBus()
	tl := NewTimeline(b)
	for _, e := range evs {
		b.Publish(e)
	}
	var got, want bytes.Buffer
	if err := tl.WriteChromeTrace(&got); err != nil {
		t.Fatal(err)
	}
	if err := RefWriteChromeTrace(evs, &want); err != nil {
		t.Fatal(err)
	}
	sameBytes(t, what+" timeline", got.Bytes(), want.Bytes())
}

// checkFlows builds the events' flow table and compares its flows with
// the reference accumulation's, and what it writes and prints, streamed
// from its records, with what the references write and print for its
// document; then the document's own.
func checkFlows(t *testing.T, what string, evs []Event, end sim.Time, resolve func(string, uint64) string) {
	t.Helper()
	b := NewBus()
	ft := NewFlowTable(b)
	ft.Resolve = resolve
	for _, e := range evs {
		b.Publish(e)
	}
	ft.Finish(end)
	doc := ft.Doc()
	if want := RefFlows(evs, resolve); !reflect.DeepEqual(doc.Flows, want) {
		t.Errorf("%s: flows\n%+v\nreference\n%+v", what, doc.Flows, want)
	}
	var got, want bytes.Buffer
	if err := ft.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if err := RefWriteFlowJSON(doc, &want); err != nil {
		t.Fatal(err)
	}
	sameBytes(t, what+" flow table", got.Bytes(), want.Bytes())
	checkReports(t, what+" flow table", ft, doc)
	checkFlowDoc(t, what, doc)
}

// checkFlowDoc writes the document through the streaming writer and
// through the reference, and prints it through both report writers.
func checkFlowDoc(t *testing.T, what string, doc *FlowDoc) {
	t.Helper()
	var got, want bytes.Buffer
	if err := writeFlowDoc(&got, doc); err != nil {
		t.Fatal(err)
	}
	if err := RefWriteFlowJSON(doc, &want); err != nil {
		t.Fatal(err)
	}
	sameBytes(t, what+" flow document", got.Bytes(), want.Bytes())
	if doc != nil {
		checkReports(t, what+" flow document", doc, doc)
	}
}

// checkReports prints src's report, at slowest-list lengths from all
// to one and past the end, and compares it with the reference's for doc.
func checkReports(t *testing.T, what string, src interface{ Report(io.Writer, int) }, doc *FlowDoc) {
	t.Helper()
	for _, top := range []int{0, 1, 3, 10, len(doc.Flows) + 1} {
		var got, want bytes.Buffer
		src.Report(&got, top)
		RefReport(doc, &want, top)
		sameBytes(t, fmt.Sprintf("%s report, top %d", what, top), got.Bytes(), want.Bytes())
	}
}

// hostileNames are node names that exercise every escaping rule of
// encoding/json: HTML characters, quote and backslash, control bytes,
// the JavaScript line separators and invalid UTF-8.
var hostileNames = []string{
	"a<b", "a>b", "a&b", `say "hi"`, `back\slash`, "bell\a", "tab\tnl\n", "\x00", "del\x7f",
	"sep\u2028\u2029", "café", "bad\xff\xfeutf8", "",
}

func TestTimelineMatchesReference(t *testing.T) {
	t.Run("empty", func(t *testing.T) { checkTimeline(t, "no events", nil) })

	t.Run("kinds", func(t *testing.T) {
		evs := kindEvents(t)
		checkTimeline(t, "every kind", evs)
		// The flags that choose a name, a track or an arc, the other way
		// round, and flows switched off and on.
		var flipped []Event
		for _, e := range evs {
			e.Out, e.Ack = !e.Out, !e.Ack
			flipped = append(flipped, e)
			if e.Flow != 0 {
				e.Flow = 0
			} else {
				e.Flow = flowLink
			}
			flipped = append(flipped, e)
		}
		checkTimeline(t, "every kind, flags flipped", flipped)
		// A kind past the last declared one renders nothing but its node.
		checkTimeline(t, "unknown kind", []Event{{Kind: numKinds, Node: "n", Time: 5}})
	})

	t.Run("fields", func(t *testing.T) {
		// Extreme values in every field an argument is taken from.
		var evs []Event
		for _, e := range kindEvents(t) {
			e.Proc, e.Addr, e.Cycles, e.Flow = ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)
			e.Arg, e.Bytes, e.Depth, e.Link, e.Pri = -1<<63, -1<<63, -1<<63, -7, 123456
			evs = append(evs, e)
		}
		checkTimeline(t, "extreme fields", evs)
	})

	t.Run("names", func(t *testing.T) {
		var evs []Event
		for i, name := range hostileNames {
			at := sim.Time(i) * sim.Microsecond
			evs = append(evs,
				Event{Kind: ProcDispatch, Node: name, Time: at, Proc: 0x80000101},
				Event{Kind: WirePacket, Node: name, Time: at + 10, Dur: 100})
		}
		checkTimeline(t, "hostile node names", evs)
	})

	t.Run("times", func(t *testing.T) {
		// ns/1e3 as a float64: 0, below and at a microsecond, past 2^53
		// where the float is no longer exact, and the run limit.  None of
		// them reaches encoding/json's exponent form (see appendUsec).
		times := []sim.Time{0, 1, 999, sim.Microsecond, 1<<53 + 1, 10 * sim.Second, 1<<63 - 1}
		var evs []Event
		for _, at := range times {
			for _, dur := range []sim.Time{0, 1, at} {
				evs = append(evs,
					Event{Kind: WirePacket, Node: "n", Time: at, Dur: dur},
					Event{Kind: AckStall, Node: "n", Time: at, Dur: dur},
					Event{Kind: AckStall, Node: "n", Time: 0, Dur: dur}, // starts before zero
					Event{Kind: FaultDelay, Node: "n", Time: at, Dur: dur},
					Event{Kind: Heartbeat, Node: "n", Time: at, Dur: dur, Arg: 1})
			}
		}
		checkTimeline(t, "timestamps", evs)
	})

	t.Run("open slices", func(t *testing.T) {
		// Slices still open at the end close at the last event's time, in
		// node-name order whatever order the nodes appeared in.
		var evs []Event
		for i, name := range []string{"z", "m", "a", "q"} {
			evs = append(evs, Event{Kind: ProcDispatch, Node: name, Time: sim.Time(i), Proc: 0x101})
		}
		evs = append(evs, Event{Kind: ProcStop, Node: "m", Time: 9})
		checkTimeline(t, "open slices", evs)
	})

	t.Run("pages", func(t *testing.T) {
		// Events on either side of a chunk boundary, and more than one
		// flush of the buffer.
		ev := func(i int) Event {
			return Event{Kind: ChanRendezvous, Node: fmt.Sprintf("n%d", i%3), Time: sim.Time(i) * 7,
				Proc: uint64(0x100 + i%5), Addr: 0x80, Bytes: 4, Flow: PackFlow(2, uint64(i))}
		}
		b := NewBus()
		tl := NewTimeline(b)
		for i := 0; len(tl.chunks) < 2; i++ {
			b.Publish(ev(i))
		}
		perChunk := tl.Len() - 1
		for _, n := range []int{perChunk - 1, perChunk, perChunk + 1, 5*perChunk + 3} {
			evs := make([]Event, n)
			for i := range evs {
				evs[i] = ev(i)
			}
			checkTimeline(t, fmt.Sprintf("%d events", n), evs)
		}
	})
}

// TestAppendUsecMatchesFloat: below 1e15 ns appendUsec writes the
// quotient from integer arithmetic; it has to be the float's shortest
// form all the same, up to the bound and on both sides of it.
func TestAppendUsecMatchesFloat(t *testing.T) {
	check := func(at sim.Time) {
		got := appendUsec(nil, at)
		want := strconv.AppendFloat(nil, float64(at)/1e3, 'f', -1, 64)
		if !bytes.Equal(got, want) {
			t.Fatalf("appendUsec(%d) = %s, encoding/json writes %s", at, got, want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		check(sim.Time(rng.Int63n(1e15)))           // anywhere under the bound
		check(sim.Time(rng.Int63n(1e7)))            // a short run
		check(sim.Time(1e15 - 1 - rng.Int63n(1e6))) // just under the bound
		check(sim.Time(1e15 + rng.Int63n(1e6)))     // just over it
		check(sim.Time(rng.Int63()))                // anywhere at all
		check(-sim.Time(rng.Int63n(1e7)))
	}
	for _, at := range []sim.Time{0, 1, 10, 100, 999, 1000, 1001, 1010, 1100, 999999, 1e15 - 1, 1e15, 1<<53 + 1, 1<<63 - 1, -1 << 63} {
		check(at)
	}
}

// TestTimelineEventsIsACopy pins the storage contract: Len counts,
// Events returns every event in publication order in a slice the
// timeline does not share.
func TestTimelineEventsIsACopy(t *testing.T) {
	b := NewBus()
	tl := NewTimeline(b)
	const n = chunkBytes
	for i := 0; i < n; i++ {
		b.Publish(Event{Kind: Timeslice, Node: "n", Time: sim.Time(i)})
	}
	if len(tl.chunks) < 3 {
		t.Fatalf("%d events fill %d chunks: too few to cross two chunk boundaries", n, len(tl.chunks))
	}
	evs := tl.Events()
	if tl.Len() != n || len(evs) != n {
		t.Fatalf("Len = %d, len(Events) = %d, want %d", tl.Len(), len(evs), n)
	}
	for i, e := range evs {
		if e.Time != sim.Time(i) {
			t.Fatalf("event %d has time %v: not in publication order", i, e.Time)
		}
	}
	evs[0].Time = -1
	if tl.Events()[0].Time != 0 {
		t.Error("writing to the returned slice changed the timeline")
	}
}

// flowKindEvents is a stream that gives a flow table every case of its
// document: channel and link flows, a virtual channel, a host far end,
// retransmits, NAKs, drops, corruption, a link declared down, and
// flows with and without a source location.
func flowKindEvents(src, dst string) []Event {
	link, vc, ch, host, dead := PackFlow(1, 1), PackFlow(1, 2), PackFlow(2, 1), PackFlow(2, 2), PackFlow(3, 1)
	return []Event{
		{Kind: LinkXferStart, Node: src, Time: 1000, Link: 1, Bytes: 2, Out: true, Flow: link, IP: 0x40},
		{Kind: LinkXferStart, Node: dst, Time: 1000, Link: 0, Bytes: 2, Flow: link},
		{Kind: WirePacket, Node: src, Time: 1200, Link: 1, Bytes: 1, Dur: 1100, Flow: link},
		{Kind: FlowArrive, Node: dst, Time: 2300, Link: 0, Flow: link},
		{Kind: FaultDrop, Node: src, Time: 2400, Link: 1, Flow: link},
		{Kind: FaultCorrupt, Node: src, Time: 2500, Link: 1, Arg: 0x55, Flow: link},
		{Kind: LinkNak, Node: dst, Time: 2600, Link: 0, Flow: link},
		{Kind: LinkRetransmit, Node: src, Time: 3000, Link: 1, Arg: 1, Flow: link},
		{Kind: WirePacket, Node: src, Time: 3000, Link: 1, Bytes: 1, Dur: 1100, Flow: link},
		{Kind: WirePacket, Node: dst, Time: 4100, Link: 0, Ack: true, Dur: 200, Flow: link},
		{Kind: AckStall, Node: src, Time: 4350, Link: 1, Dur: 50, Flow: link},
		{Kind: LinkXferEnd, Node: src, Time: 5000, Link: 1, Out: true, Flow: link},
		{Kind: LinkXferEnd, Node: dst, Time: 5100, Link: 0, Flow: link},
		{Kind: VChanChunk, Node: src, Time: 5200, Link: 1, Arg: 3, Bytes: 8, Flow: vc},
		{Kind: VChanDeliver, Node: dst, Time: 5900, Link: 0, Arg: 3, Bytes: 8, Flow: vc},
		{Kind: ChanBlock, Node: dst, Time: 6000, Addr: 0x80000048, Out: true, Flow: ch, IP: 0x44},
		{Kind: ChanRendezvous, Node: dst, Time: 6400, Addr: 0x80000048, Bytes: 4, Flow: ch, IP: 0x52},
		{Kind: LinkXferStart, Node: dst, Time: 6500, Link: 2, Bytes: 4, Out: true, Flow: host},
		{Kind: LinkXferEnd, Node: dst, Time: 7000, Link: 2, Out: true, Flow: host},
		{Kind: LinkXferStart, Node: src, Time: 7100, Link: 3, Bytes: 1, Out: true, Flow: dead, IP: 0x60},
		{Kind: LinkDown, Node: src, Time: 9000, Link: 3, Arg: 32, Flow: dead},
	}
}

func TestFlowDocMatchesReference(t *testing.T) {
	resolve := func(node string, iptr uint64) string {
		if iptr == 0x60 {
			return "" // a send site the source map does not cover
		}
		return fmt.Sprintf("%s.occ:%d", node, iptr)
	}
	t.Run("cases", func(t *testing.T) {
		checkFlows(t, "every case", flowKindEvents("n0", "n1"), 10000, resolve)
		checkFlows(t, "no resolver", flowKindEvents("n0", "n1"), 10000, nil)
	})
	t.Run("names", func(t *testing.T) {
		for i, name := range hostileNames {
			other := hostileNames[(i+1)%len(hostileNames)]
			checkFlows(t, fmt.Sprintf("nodes %q and %q", name, other), flowKindEvents(name, other), 10000,
				func(node string, iptr uint64) string { return node + "<&>" + other })
		}
	})
	t.Run("empty", func(t *testing.T) {
		// No flows: Finish leaves flows and histograms nil, which the
		// reference writes as null; an empty, non-nil slice is "[]".
		checkFlows(t, "no events", nil, 0, nil)
		checkFlows(t, "no flows", []Event{{Kind: Timeslice, Node: "n", Time: 40}}, 50, nil)
		checkFlowDoc(t, "Finish not called", nil)
		checkFlowDoc(t, "zero document", &FlowDoc{})
		checkFlowDoc(t, "empty slices", &FlowDoc{Flows: []FlowInfo{}, Histograms: []FlowHistogram{}, CriticalPath: []PathSpan{}})
		checkFlowDoc(t, "extreme values", &FlowDoc{
			EndNs: -1 << 63,
			Flows: []FlowInfo{{ID: ^uint64(0), Addr: ^uint64(0), Link: -1, Bytes: -1 << 63, Down: true}},
		})
	})
	t.Run("many", func(t *testing.T) {
		// Enough flows for several flushes of the buffer.
		var evs []Event
		for i := 0; i < 1000; i++ {
			at := sim.Time(i) * 1000
			fl := PackFlow(uint64(1+i%3), uint64(i))
			evs = append(evs,
				Event{Kind: LinkXferStart, Node: fmt.Sprintf("n%d", i%3), Time: at, Link: i % 4, Bytes: 4, Out: true, Flow: fl, IP: uint64(i)},
				Event{Kind: LinkXferEnd, Node: fmt.Sprintf("n%d", (i+1)%3), Time: at + sim.Time(i%97), Link: 0, Flow: fl})
		}
		checkFlows(t, "1000 flows", evs, 1000*1000, resolve)
	})
}

// failAfter accepts n bytes, then fails every Write — and counts the
// Writes that came after the failure, which the renderers owe none of.
type failAfter struct {
	n     int
	err   error
	after int
}

func (w *failAfter) Write(p []byte) (int, error) {
	if w.err != nil {
		w.after++
		return 0, w.err
	}
	if len(p) > w.n {
		w.err = errors.New("disk full")
		return w.n, w.err
	}
	w.n -= len(p)
	return len(p), nil
}

// TestRenderWriteErrors: both writers now issue one Write per full
// buffer; each returns the first error and stops writing.  Observer.
// Finish relies on that to report a full disk.
func TestRenderWriteErrors(t *testing.T) {
	b := NewBus()
	tl := NewTimeline(b)
	ft := NewFlowTable(b)
	for i := 0; i < 4000; i++ {
		fl := PackFlow(1, uint64(i))
		b.Publish(Event{Kind: LinkXferStart, Node: "n0", Time: sim.Time(i), Link: 1, Out: true, Flow: fl})
		b.Publish(Event{Kind: LinkXferEnd, Node: "n1", Time: sim.Time(i), Flow: fl})
	}
	ft.Finish(4000)
	writers := map[string]func(io.Writer) error{
		"WriteChromeTrace": tl.WriteChromeTrace,
		"WriteJSON":        ft.WriteJSON,
	}
	for name, write := range writers {
		var whole bytes.Buffer
		if err := write(&whole); err != nil {
			t.Fatal(err)
		}
		if whole.Len() < 3*flushLen {
			t.Fatalf("%s wrote %d bytes: too few to need three flushes", name, whole.Len())
		}
		// Room for nothing, for less and for more than the first flush,
		// for all but the last byte — and for everything.
		for _, room := range []int{0, 1, flushLen - 1, flushLen + 4096, 2*flushLen + 4096, whole.Len() - 1} {
			w := &failAfter{n: room}
			if err := write(w); err == nil || err != w.err {
				t.Errorf("%s with room for %d bytes returned %v, want the writer's error", name, room, err)
			}
			if w.after != 0 {
				t.Errorf("%s with room for %d bytes wrote %d more times after the failure", name, room, w.after)
			}
		}
		if err := write(&failAfter{n: whole.Len()}); err != nil {
			t.Errorf("%s with room for everything returned %v", name, err)
		}
	}
}

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// leastAllocated is the smallest of three measurements of a repeatable
// fn: an allocation of the runtime's own (a GC worker, a timer) can land
// inside one MemStats window, but not inside all three.
func leastAllocated(fn func()) uint64 {
	return min(allocated(fn), allocated(fn), allocated(fn))
}

// TestRenderAllocGuard: rendering is O(1) in memory — both writers
// allocate the same for four times the events, the buffer and the
// per-node state and nothing per event — recording costs no more than
// 24 bytes an event and one chunk of slack, and a run of one event
// records and renders in a few KiB.
func TestRenderAllocGuard(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const n = 40000
	type sizes struct{ record, trace, flows uint64 }
	measure := func(n int) sizes {
		var s sizes
		b := NewBus()
		var tl *Timeline
		s.record = allocated(func() {
			tl = NewTimeline(b)
			for i := 0; i < n; i++ {
				b.Publish(Event{Kind: WirePacket, Node: "n0", Time: sim.Time(i), Dur: 1100, Link: 1})
			}
		})
		// As many flows, of a fixed set of links so that only their
		// number grows, for the flow writer.
		fb := NewBus()
		ft := NewFlowTable(fb)
		for i := 0; i < n; i++ {
			fb.Publish(Event{Kind: LinkXferStart, Node: "n0", Time: sim.Time(i), Link: i % 4, Out: true, Flow: PackFlow(1, uint64(i))})
		}
		// The run ends on a node no flow reaches: a one-span critical path.
		fb.Publish(Event{Kind: Timeslice, Node: "last", Time: sim.Time(n)})
		ft.Finish(sim.Time(n))
		s.trace = leastAllocated(func() {
			if err := tl.WriteChromeTrace(io.Discard); err != nil {
				t.Error(err)
			}
		})
		s.flows = leastAllocated(func() {
			if err := ft.WriteJSON(io.Discard); err != nil {
				t.Error(err)
			}
		})
		return s
	}
	one, four := measure(n), measure(4*n)
	if small := measure(1); max(small.record, small.trace, small.flows) > 16<<10 {
		t.Errorf("one event allocated %d bytes to record, %d to render and one flow %d: not sized to the run",
			small.record, small.trace, small.flows)
	}
	near := func(a, b uint64) bool { return max(a, b)-min(a, b) <= 4<<10 }
	if !near(one.trace, four.trace) {
		t.Errorf("WriteChromeTrace allocated %d bytes for %d events and %d for %d: not O(1)", one.trace, n, four.trace, 4*n)
	}
	if !near(one.flows, four.flows) {
		t.Errorf("WriteJSON allocated %d bytes for %d flows and %d for %d: not O(1)", one.flows, n, four.flows, 4*n)
	}
	for _, m := range []struct {
		n   int
		got uint64
	}{{n, one.record}, {4 * n, four.record}} {
		if limit := uint64(24*m.n + chunkBytes); m.got > limit {
			t.Errorf("recording %d events allocated %d bytes, over 24 x %d + %d = %d",
				m.n, m.got, m.n, chunkBytes, limit)
		}
	}
}
