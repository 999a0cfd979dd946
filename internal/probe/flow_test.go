package probe

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"unsafe"

	"transputer/internal/sim"
)

func TestPackFlow(t *testing.T) {
	fl := PackFlow(5, 1234)
	if FlowOrigin(fl) != 5 || FlowSeq(fl) != 1234 {
		t.Errorf("PackFlow round trip: origin %d seq %d", FlowOrigin(fl), FlowSeq(fl))
	}
	if PackFlow(1, 1) == PackFlow(2, 1) || PackFlow(1, 1) == PackFlow(1, 2) {
		t.Errorf("flow identities collide")
	}
}

// TestFlowTableLinkFlow reconstructs one traced link transfer with a
// retry tail: the data-packet wire time must split into first
// transmission and retransmission, acks and stalls must accumulate,
// and the critical path must tile [0, end] exactly.
func TestFlowTableLinkFlow(t *testing.T) {
	b := NewBus()
	ft := NewFlowTable(b)
	fl := PackFlow(1, 1)
	ev := func(e Event) { b.Publish(e) }

	ev(Event{Kind: LinkXferStart, Node: "n0", Time: 1000, Link: 1, Bytes: 2,
		Out: true, Flow: fl, IP: 0x40})
	ev(Event{Kind: WirePacket, Node: "n0", Time: 1200, Link: 1, Bytes: 1,
		Dur: 1100, Flow: fl})
	ev(Event{Kind: FlowArrive, Node: "n1", Time: 2300, Link: 0, Flow: fl})
	ev(Event{Kind: LinkRetransmit, Node: "n0", Time: 3000, Link: 1, Arg: 1, Flow: fl})
	ev(Event{Kind: WirePacket, Node: "n0", Time: 3000, Link: 1, Bytes: 1,
		Dur: 1100, Flow: fl})
	ev(Event{Kind: WirePacket, Node: "n1", Time: 4100, Link: 0, Ack: true,
		Dur: 200, Flow: fl})
	ev(Event{Kind: AckStall, Node: "n0", Time: 4350, Link: 1, Dur: 50, Flow: fl})
	ev(Event{Kind: LinkXferEnd, Node: "n0", Time: 5000, Link: 1, Out: true, Flow: fl})
	ev(Event{Kind: LinkXferEnd, Node: "n1", Time: 5100, Link: 0, Out: false, Flow: fl})

	ft.Finish(6000)
	doc := ft.Doc()
	if len(doc.Flows) != 1 {
		t.Fatalf("flows = %d, want 1", len(doc.Flows))
	}
	f := doc.Flows[0]
	if f.Kind != "link" || f.Src != "n0" || f.Dst != "n1" || f.Link != 1 {
		t.Errorf("flow identity = %s %s>%s L%d", f.Kind, f.Src, f.Dst, f.Link)
	}
	if f.Name != "n0.L1>n1#1" {
		t.Errorf("name = %q", f.Name)
	}
	if f.StartNs != 1000 || f.EndNs != 5100 {
		t.Errorf("span = [%d, %d]", f.StartNs, f.EndNs)
	}
	if f.QueueNs != 200 {
		t.Errorf("queue = %d, want 200", f.QueueNs)
	}
	if f.WireNs != 1100 || f.RetransNs != 1100 {
		t.Errorf("wire = %d retrans = %d, want 1100 each", f.WireNs, f.RetransNs)
	}
	if f.AckNs != 200 || f.AckStallNs != 50 {
		t.Errorf("ack = %d stall = %d", f.AckNs, f.AckStallNs)
	}
	if f.Retransmits != 1 {
		t.Errorf("retransmits = %d", f.Retransmits)
	}

	if len(doc.Histograms) != 1 {
		t.Fatalf("histograms = %d", len(doc.Histograms))
	}
	h := doc.Histograms[0]
	if h.Key != "n0.L1>n1" || h.Count != 1 || h.MaxNs != 4100 || h.P50Ns != 4100 {
		t.Errorf("histogram = %+v", h)
	}

	assertTiled(t, doc)
	// Last event landed on n1, so the walk is: n0 computes, the flow
	// crosses to n1, n1 computes to the end.
	want := []struct {
		node string
		what string
		dur  int64
	}{
		{"n0", "compute", 1000},
		{"n0", "n0.L1>n1#1", 4100},
		{"n1", "compute", 900},
	}
	if len(doc.CriticalPath) != len(want) {
		t.Fatalf("critical path = %+v", doc.CriticalPath)
	}
	for i, w := range want {
		s := doc.CriticalPath[i]
		if s.Node != w.node || s.What != w.what || s.DurNs != w.dur {
			t.Errorf("span %d = %+v, want %+v", i, s, w)
		}
	}
}

// TestFlowTableChanFlow covers an internal channel flow: the
// rendezvous wait span and the chan-keyed histogram.
func TestFlowTableChanFlow(t *testing.T) {
	b := NewBus()
	ft := NewFlowTable(b)
	ft.Resolve = func(node string, iptr uint64) string {
		if node == "n0" && iptr == 0x44 {
			return "pipe.occ:12"
		}
		return ""
	}
	fl := PackFlow(1, 1)
	b.Publish(Event{Kind: ChanBlock, Node: "n0", Time: 100, Addr: 0x80,
		Out: true, Flow: fl, IP: 0x44})
	b.Publish(Event{Kind: ChanRendezvous, Node: "n0", Time: 400, Addr: 0x80,
		Bytes: 4, Flow: fl, IP: 0x52})
	ft.Finish(500)
	doc := ft.Doc()
	if len(doc.Flows) != 1 {
		t.Fatalf("flows = %d", len(doc.Flows))
	}
	f := doc.Flows[0]
	if f.Kind != "chan" || f.WaitNs != 300 || f.Bytes != 4 {
		t.Errorf("chan flow = %+v", f)
	}
	if f.Name != "n0 ch@0x80#1" {
		t.Errorf("name = %q", f.Name)
	}
	if f.Loc != "pipe.occ:12" {
		t.Errorf("loc = %q, want source of the offering site", f.Loc)
	}
	assertTiled(t, doc)
}

// TestFlowTableCriticalPathSums builds a three-node relay and checks
// the critical path invariant on a multi-hop chain: spans are
// contiguous from 0 to the end time and sum exactly to it.
func TestFlowTableCriticalPathSums(t *testing.T) {
	b := NewBus()
	ft := NewFlowTable(b)
	hop := func(id uint64, src, dst string, start, end sim.Time) {
		fl := PackFlow(1, id)
		b.Publish(Event{Kind: LinkXferStart, Node: src, Time: start, Link: 0,
			Bytes: 1, Out: true, Flow: fl})
		b.Publish(Event{Kind: LinkXferEnd, Node: dst, Time: end, Link: 0, Flow: fl})
	}
	hop(1, "a", "b", 100, 900)
	hop(2, "b", "c", 1000, 1700)
	hop(3, "a", "c", 200, 1500) // a slower parallel path that loses
	ft.Finish(2000)
	doc := ft.Doc()
	assertTiled(t, doc)
	// The chain must be a→b→c, not the parallel a→c hop: flow 2 is the
	// latest arrival at c, and flow 1 the latest at b before flow 2
	// starts.
	var names []string
	for _, s := range doc.CriticalPath {
		names = append(names, s.What)
	}
	want := []string{"compute", "a.L0>b#1", "compute", "b.L0>c#1", "compute"}
	if len(names) != len(want) {
		t.Fatalf("critical path = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("critical path = %v, want %v", names, want)
		}
	}
}

// TestFlowDocRoundTrip pins the JSON round trip tflow depends on.
func TestFlowDocRoundTrip(t *testing.T) {
	b := NewBus()
	ft := NewFlowTable(b)
	fl := PackFlow(2, 9)
	b.Publish(Event{Kind: ChanBlock, Node: "n", Time: 10, Addr: 0x90, Flow: fl})
	b.Publish(Event{Kind: ChanRendezvous, Node: "n", Time: 30, Addr: 0x90,
		Bytes: 2, Flow: fl})
	ft.Finish(40)
	var buf bytes.Buffer
	if err := ft.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	doc, err := ReadFlowDoc(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if doc.EndNs != 40 || len(doc.Flows) != 1 || doc.Flows[0].ID != fl {
		t.Errorf("round trip = %+v", doc)
	}
	if doc.CriticalPathNs != doc.EndNs {
		t.Errorf("critical path sums to %d, want %d", doc.CriticalPathNs, doc.EndNs)
	}
	var rep bytes.Buffer
	doc.Report(&rep, 0)
	if !bytes.Contains(rep.Bytes(), []byte("critical path")) {
		t.Errorf("report missing critical path:\n%s", rep.String())
	}
}

// TestFlowRank pins the nearest-rank percentile used by histograms.
func TestFlowRank(t *testing.T) {
	lat := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	if got := rank(lat, 50); got != 50 {
		t.Errorf("p50 = %d, want 50", got)
	}
	if got := rank(lat, 95); got != 100 {
		t.Errorf("p95 = %d, want 100", got)
	}
	if got := rank([]int64{7}, 99); got != 7 {
		t.Errorf("p99 of singleton = %d", got)
	}
	if got := rank(nil, 50); got != 0 {
		t.Errorf("p50 of empty = %d", got)
	}
}

// TestCriticalPathMatchesReference: the walk over arrivals sorted by end
// time against the rescanning walk it replaced, on random streams over
// four nodes — equal instants, zero-length flows, flows whose events
// arrive out of time order, and in time order as a merged run's do.
func TestCriticalPathMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nodes := []string{"a", "b", "c", "d"}
	resolve := func(node string, iptr uint64) string { return fmt.Sprintf("%s:%d", node, iptr) }
	for trial := 0; trial < 2000; trial++ {
		flows := 1 + rng.Intn(40)
		evs := make([]Event, 3*flows)
		for i := range evs {
			evs[i] = Event{Kind: LinkXferStart, Node: nodes[rng.Intn(len(nodes))], Time: sim.Time(rng.Intn(60)),
				Out: true, IP: uint64(rng.Intn(3)), Flow: PackFlow(uint64(1+rng.Intn(3)), uint64(1+rng.Intn(flows)))}
		}
		if trial%2 == 0 {
			slices.SortStableFunc(evs, func(a, b Event) int { return int(a.Time - b.Time) })
		}
		b := NewBus()
		ft := NewFlowTable(b)
		if trial%3 == 0 {
			ft.Resolve = resolve
		}
		for _, e := range evs {
			b.Publish(e)
		}
		end := sim.Time(60 + rng.Intn(3))
		ft.Finish(end)
		if got, want := ft.Doc().CriticalPath, refCriticalPath(ft, end); !slices.Equal(got, want) {
			t.Fatalf("trial %d: critical path\n%+v\nreference\n%+v", trial, got, want)
		}
	}
}

// TestFlowTableIdentities: a flow is found again by its identity
// whatever its shape — sequence numbers in order, with gaps and far
// ahead of their origin's, origins past the dense index, hostile words.
func TestFlowTableIdentities(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var ids []uint64
	for seq := uint64(1); seq <= 300; seq++ {
		ids = append(ids, PackFlow(1, seq), PackFlow(2, 2*seq), PackFlow(3, 1+seq*seq))
	}
	ids = append(ids, PackFlow(denseOrigins-1, 1), PackFlow(denseOrigins, 1), PackFlow(1<<23, 5),
		PackFlow(4, 1<<39), PackFlow(4, 1), ^uint64(0), 1)
	for i := 0; i < 200; i++ {
		ids = append(ids, rng.Uint64()|1)
	}
	b := NewBus()
	ft := NewFlowTable(b)
	for i, id := range ids {
		b.Publish(Event{Kind: ChanBlock, Node: "n", Time: sim.Time(i), Flow: id})
	}
	for i := len(ids) - 1; i >= 0; i-- {
		b.Publish(Event{Kind: ChanRendezvous, Node: "n", Time: sim.Time(2*len(ids) - i), Flow: ids[i]})
	}
	ft.Finish(sim.Time(2 * len(ids)))
	flows := ft.Doc().Flows
	if len(flows) != len(ids) {
		t.Fatalf("%d identities made %d flows", len(ids), len(flows))
	}
	for i, f := range flows {
		if f.ID != ids[i] || f.StartNs != int64(i) || f.EndNs != int64(2*len(ids)-i) {
			t.Fatalf("flow %d is %#x over [%d, %d], want %#x over [%d, %d]",
				i, f.ID, f.StartNs, f.EndNs, ids[i], i, 2*len(ids)-i)
		}
	}
}

// TestSlowestMatchesFullSort: the slowest-flows list Report prints,
// picked in one pass, against the stable sort of every flow it
// replaced, on random documents full of equal latencies and IDs, at
// every list length from none to past the end.
func TestSlowestMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		doc := &FlowDoc{}
		for i := rng.Intn(50); i > 0; i-- {
			start := int64(rng.Intn(4))
			doc.Flows = append(doc.Flows, FlowInfo{ID: uint64(rng.Intn(6)), StartNs: start, EndNs: start + int64(rng.Intn(5))})
		}
		for top := -1; top <= len(doc.Flows)+2; top++ {
			var got []*FlowInfo
			for _, s := range slowest(doc, top) {
				got = append(got, &doc.Flows[s.i])
			}
			if want := refSlowest(doc, top); !slices.Equal(got, want) {
				t.Fatalf("trial %d, top %d of %d flows: picked %v, the full sort %v", trial, top, len(doc.Flows), got, want)
			}
		}
	}
}

// assertTiled checks the critical-path invariant: spans are
// chronologically contiguous from time zero and their durations sum
// exactly to the run's end-to-end completion time.
func assertTiled(t *testing.T, doc *FlowDoc) {
	t.Helper()
	var at, sum int64
	for i, s := range doc.CriticalPath {
		if s.StartNs != at {
			t.Errorf("span %d starts at %d, want %d (gap or overlap)", i, s.StartNs, at)
		}
		if s.DurNs < 0 {
			t.Errorf("span %d has negative duration %d", i, s.DurNs)
		}
		at = s.StartNs + s.DurNs
		sum += s.DurNs
	}
	if sum != doc.EndNs {
		t.Errorf("critical path sums to %d, want end-to-end %d", sum, doc.EndNs)
	}
	if doc.CriticalPathNs != sum {
		t.Errorf("CriticalPathNs = %d, want %d", doc.CriticalPathNs, sum)
	}
}

// TestFlowTableUnfinished: before Finish a table has no document.  Its
// report prints nothing, as WriteJSON writes null, and neither panics;
// nor does a nil document's report.
func TestFlowTableUnfinished(t *testing.T) {
	b := NewBus()
	ft := NewFlowTable(b)
	b.Publish(Event{Kind: ChanBlock, Node: "n", Time: 10, Addr: 0x90, Flow: PackFlow(1, 1)})
	var rep, doc bytes.Buffer
	ft.Report(&rep, 10)
	var none *FlowDoc
	none.Report(&rep, 0)
	if rep.Len() != 0 {
		t.Errorf("the report before Finish printed %q, want nothing", rep.String())
	}
	if err := ft.WriteJSON(&doc); err != nil || doc.String() != "null\n" {
		t.Errorf("WriteJSON before Finish wrote %q, %v; want null", doc.String(), err)
	}
	if ft.Doc() != nil {
		t.Errorf("Doc before Finish = %+v, want nil", ft.Doc())
	}
}

// TestFlowTableWideValues: a record keeps a node as a 16-bit number and
// its bytes, link and virtual channel in 32, 16 and 8 bits; a value that
// does not fit, or is its slot's escape, goes to the cold part and comes
// back whole.  The table's document and what it writes keep every value
// the events carried, past 65 535 nodes too.
func TestFlowTableWideValues(t *testing.T) {
	if unsafe.Sizeof(flowRec{}) != 88 {
		t.Errorf("unsafe.Sizeof(flowRec{}) = %d, want 88: a flow's record is most of what an observed run keeps a flow", unsafe.Sizeof(flowRec{}))
	}
	wide := []struct{ bytes, link, vc int }{
		{4, 1, 3},
		{math.MinInt32, math.MinInt16, math.MinInt8}, // each slot's escape
		{1 << 40, 1 << 20, 200},
		{-1 << 40, -129, -129},
		{math.MaxInt32, math.MaxInt16, math.MaxInt8},
		{math.MinInt64, math.MaxInt64, math.MinInt64},
	}
	// Two new nodes a flow, and "" first: the last flows' nodes are
	// numbered past 65 535.
	const crowd = math.MaxUint16/2 + 3
	b := NewBus()
	ft := NewFlowTable(b)
	var want []FlowInfo
	for i := 0; i < crowd; i++ {
		src, dst := "s"+strconv.Itoa(i), "d"+strconv.Itoa(i)
		w := wide[i%len(wide)]
		fl := PackFlow(1+uint64(i%3), uint64(i+1))
		at := sim.Time(i)
		b.Publish(Event{Kind: LinkXferStart, Node: src, Time: at, Link: w.link, Bytes: 7, Out: true, Flow: fl})
		b.Publish(Event{Kind: VChanChunk, Node: src, Time: at + 1, Link: w.link, Arg: int64(w.vc), Flow: fl})
		b.Publish(Event{Kind: VChanDeliver, Node: dst, Time: at + 2, Bytes: w.bytes, Flow: fl})
		want = append(want, FlowInfo{ID: fl, Kind: "link", Src: src, Dst: dst, Link: w.link,
			Bytes: w.bytes, StartNs: int64(at), EndNs: int64(at + 2)})
	}
	ft.Finish(crowd + 2)
	doc := ft.Doc()
	if len(doc.Flows) != crowd {
		t.Fatalf("%d flows, want %d", len(doc.Flows), crowd)
	}
	for i, f := range doc.Flows {
		w := want[i]
		w.Name = f.Name
		if f != w {
			t.Fatalf("flow %d:\n got %+v\nwant %+v", i, f, w)
		}
	}
	if f := doc.Flows[3]; f.Name != "s3.L-129>d3#1" {
		t.Errorf("flow 3 is named %q", f.Name)
	}
	var got, ref bytes.Buffer
	if err := ft.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if err := RefWriteFlowJSON(doc, &ref); err != nil {
		t.Fatal(err)
	}
	sameBytes(t, "wide values", got.Bytes(), ref.Bytes())
}
