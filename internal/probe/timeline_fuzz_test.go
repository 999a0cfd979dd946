package probe

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"transputer/internal/sim"
)

// fuzzValues are the field values a fuzz input names by index: the
// ends of 8, 16, 32 and 64 bits, signed and unsigned, and the values
// where a uvarint, or a zigzag one, takes another byte.
var fuzzValues = []uint64{
	0, 1, 0x80000048, math.MaxUint32, math.MaxUint32 + 1, 1 << 40, math.MaxUint64, math.MaxInt64, 1 << 63,
	math.MaxInt8, math.MaxInt8 + 1, math.MaxInt16, math.MaxInt16 + 1, math.MaxInt32, math.MaxInt32 + 1,
	neg(math.MinInt8), neg(math.MinInt8 - 1), neg(math.MinInt16), neg(math.MinInt16 - 1), neg(math.MinInt32), neg(math.MinInt32 - 1),
	1<<14 - 1, 1 << 14, 63, 64, neg(-64), neg(-65),
}

// neg is a negative value as its two's-complement bits.
func neg(v int64) uint64 { return uint64(v) }

// An input whose first byte is fuzzCrowdByte publishes fuzzCrowd node
// names first: past 127 names a node index takes two bytes.
// TestTimelineCrowds publishes the larger crowds.
const (
	fuzzCrowdByte = 0xFD
	fuzzCrowd     = 1 << 7
)

// crowd is n Timeslice events, each on a node of its own.
func crowd(n int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{Kind: Timeslice, Node: "x" + strconv.Itoa(i), Time: sim.Time(i)}
	}
	return evs
}

// fuzzNames are the node names a fuzz input names by index: repeats,
// the empty name, and names that need escaping.
var fuzzNames = append([]string{"n", "n0", "n1", "n", ""}, hostileNames...)

// fuzzEvents decodes a fuzz input.  An event takes a kind byte (one past
// the last kind included), a node byte, a flags byte (Ack, Out) and one
// byte for each numeric field: an index into fuzzValues or, past its
// end, the mark of a raw little-endian value in the next 8 bytes.  An
// input whose first byte is fuzzCrowdByte first publishes a crowd of
// fuzzCrowd nodes, so that the nodes after them take a node index of
// two bytes.
func fuzzEvents(data []byte) []Event {
	var evs []Event
	if len(data) > 0 && data[0] == fuzzCrowdByte {
		evs = crowd(fuzzCrowd)
		data = data[1:]
	}
	value := func() uint64 {
		if len(data) == 0 {
			return 0
		}
		sel := data[0]
		data = data[1:]
		if int(sel) < len(fuzzValues) {
			return fuzzValues[sel]
		}
		if len(data) < 8 {
			return uint64(sel)
		}
		v := binary.LittleEndian.Uint64(data)
		data = data[8:]
		return v
	}
	for len(data) >= 3 {
		e := Event{
			Kind: Kind(data[0]) % (numKinds + 1),
			Node: fuzzNames[int(data[1])%len(fuzzNames)],
			Ack:  data[2]&1 != 0,
			Out:  data[2]&2 != 0,
		}
		data = data[3:]
		e.Time, e.Cycles, e.Proc = sim.Time(value()), value(), value()
		e.Pri, e.Addr, e.Link, e.Bytes = int(value()), value(), int(value()), int(value())
		e.Dur, e.Depth, e.Arg = sim.Time(value()), int(value()), int64(value())
		e.Flow, e.IP = value(), value()
		evs = append(evs, e)
	}
	return evs
}

// fuzzInput encodes events in the form fuzzEvents decodes, a value as
// its index in fuzzValues if it is there and raw if not; a node must be
// one of fuzzNames.  Inputs stay small, which is what lets the fuzzer
// minimise what it finds from them within a short run.
func fuzzInput(evs ...Event) []byte {
	var b []byte
	for _, e := range evs {
		node := 0
		for i, name := range fuzzNames {
			if name == e.Node {
				node = i
				break
			}
		}
		var flags byte
		if e.Ack {
			flags |= 1
		}
		if e.Out {
			flags |= 2
		}
		b = append(b, byte(e.Kind), byte(node), flags)
		for _, v := range []uint64{uint64(e.Time), e.Cycles, e.Proc, uint64(e.Pri), e.Addr, uint64(e.Link),
			uint64(e.Bytes), uint64(e.Dur), uint64(e.Depth), uint64(e.Arg), e.Flow, e.IP} {
			if i := slices.Index(fuzzValues, v); i >= 0 {
				b = append(b, byte(i))
			} else {
				b = binary.LittleEndian.AppendUint64(append(b, 0xFE), v)
			}
		}
	}
	return b
}

// FuzzTimelineRoundTrip: whatever is published, the timeline's
// variable-length records give it all back — Events returns exactly the
// events, 64-bit extremes, negative values and any number of nodes
// included; WriteChromeTrace writes what the reference renderer writes
// for them; a Subscribe consumer beside the timeline gets its own
// identical copy of each; the metrics on the same bus take the same
// values without a panic; and the flow table keeps what the reference
// accumulation keeps, and streams what the references write and print
// (checkFlowTable).
func FuzzTimelineRoundTrip(f *testing.F) {
	kinds, extreme := seedEvents()
	f.Add(fuzzInput(kinds...))
	f.Add(fuzzInput(extreme...))
	f.Add(fuzzInput(append(kinds[:4:4], extreme[4:8]...)...))
	f.Add([]byte{byte(ProcDispatch), 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, byte(ProcDispatch), 4, 2, 20, 19, 18})
	// The deltas the records are encoded as.  Time stepping backwards,
	// to both ends of its range and back.
	var back []Event
	for _, at := range []sim.Time{1000, 500, 0, -5, math.MaxInt64, math.MinInt64, 7} {
		back = append(back, Event{Kind: WirePacket, Node: "n", Time: at, Dur: 1100})
	}
	f.Add(fuzzInput(back...))
	// A node's Cycles going down, and wrapping from MaxUint64 to 0 and on
	// to 1.
	var cycles []Event
	for i, c := range []uint64{100, 50, math.MaxUint64, 0, 1, 0, math.MaxUint64, 2} {
		cycles = append(cycles, Event{Kind: ProcDispatch, Node: "n", Time: sim.Time(i), Cycles: c, Proc: 0x80000101, Pri: 1})
	}
	f.Add(fuzzInput(cycles...))
	// Flow alternating between 0, MaxUint64 and 1.
	var flows []Event
	for i := 0; i < 9; i++ {
		flows = append(flows, Event{Kind: FlowArrive, Node: "n0", Time: sim.Time(i), Flow: []uint64{0, math.MaxUint64, 1}[i%3]})
	}
	f.Add(fuzzInput(flows...))
	// 128 nodes before the input's own: the node index of what follows
	// takes two bytes.
	f.Add(append([]byte{fuzzCrowdByte}, fuzzInput(kinds[0], extreme[1], kinds[2])...))
	// A node revisited after others: its Cycles, Proc and IP are encoded
	// against its own last values, not the previous event's.
	f.Add(fuzzInput(
		Event{Kind: ProcDispatch, Node: "n", Time: 10, Cycles: 1000, Proc: 0x101},
		Event{Kind: ChanBlock, Node: "n0", Time: 20, Cycles: 5, Proc: 0x201, Addr: 0x80000048, IP: 0x44},
		Event{Kind: ProcStop, Node: "n1", Time: 30, Cycles: 1 << 40, Proc: 0x80000101},
		Event{Kind: ChanRendezvous, Node: "n", Time: 40, Cycles: 990, Proc: 0x101, IP: 0x52},
		Event{Kind: ProcStop, Node: "n0", Time: 50},
		Event{Kind: ProcReady, Node: "n0", Time: 60, Cycles: 6, Proc: 0x101, Pri: 1, Depth: 1, IP: 0x40}))
	// Flow and Dur are encoded against the node's link; links 1 and 5,
	// and -3, share a slot, and a link's flow can go back.
	var links []Event
	for i, l := range []int{1, 5, 1, -3, 5, 1, 0, -1 << 40} {
		links = append(links, Event{Kind: WirePacket, Node: "n1", Time: sim.Time(i), Link: l,
			Dur: sim.Time(1100 - 900*(i%2)), Flow: PackFlow(uint64(i%3+1), uint64(9-i))})
	}
	f.Add(fuzzInput(links...))
	// A reliable link's flow, with retransmits, NAKs, an acknowledge
	// stall, faults and a dead link: the records' cold parts.
	f.Add(fuzzInput(flowKindEvents("n0", "n1")...))
	// Flows whose events mix kinds, as no real run's do: a link flow's
	// data packet and then a channel's block, a channel flow's data
	// packet and transfer start with no rendezvous, and after one.
	f.Add(fuzzInput(
		Event{Kind: LinkXferStart, Node: "n0", Time: 5, Link: 1, Bytes: 4, Out: true, Flow: 7},
		Event{Kind: WirePacket, Node: "n0", Time: 7, Link: 1, Dur: 1100, Flow: 7},
		Event{Kind: ChanBlock, Node: "n1", Time: 10, Addr: 0x80, Flow: 7},
		Event{Kind: ChanBlock, Node: "n", Time: 10, Addr: 0x90, Flow: 9},
		Event{Kind: WirePacket, Node: "n", Time: 20, Dur: 1100, Flow: 9},
		Event{Kind: LinkXferStart, Node: "n", Time: 25, Out: true, Flow: 9},
		Event{Kind: ChanRendezvous, Node: "n0", Time: 30, Addr: 0x98, Bytes: 4, Flow: 11},
		Event{Kind: WirePacket, Node: "n0", Time: 40, Dur: 1100, Flow: 11},
		Event{Kind: LinkXferStart, Node: "n0", Time: 50, Out: true, Flow: 11}))
	// No events at all.
	f.Add([]byte{})
	// Every node name in turn, each taking its first record with the
	// kind past the last one the timeline knows, then a known one.
	var named []Event
	for i, name := range fuzzNames {
		named = append(named,
			Event{Kind: numKinds, Node: name, Time: sim.Time(i), Arg: int64(i)},
			Event{Kind: ChanRendezvous, Node: name, Time: sim.Time(i), Addr: 0x80000048, Bytes: 4, Flow: uint64(i)})
	}
	f.Add(fuzzInput(named...))

	f.Fuzz(func(t *testing.T, data []byte) { checkRoundTrip(t, fuzzEvents(data)) })
}

// seedEvents is an event of every kind, and the same kinds with
// negative values, 64-bit extremes, and one field past 32 bits or past
// its int8, int16 or int32 range, a different one from event to event.
func seedEvents() (kinds, extreme []Event) {
	for k := Kind(0); k < numKinds; k++ {
		e := kindTable[k].ev
		e.Kind, e.Node, e.Time = k, "n", sim.Time(k+1)*sim.Microsecond
		kinds = append(kinds, e)
	}
	for i, e := range kinds {
		e.Node = fuzzNames[i%len(fuzzNames)]
		e.Link, e.Pri, e.Bytes, e.Depth = -1, -7, -5, -3
		e.Cycles, e.Flow, e.Dur, e.Arg = math.MaxUint64, math.MaxUint64, math.MaxInt64, math.MaxInt64
		switch i % 7 {
		case 0:
			e.Proc = 1 << 32
		case 1:
			e.Addr = math.MaxUint64
		case 2:
			e.IP = 1<<32 + uint64(i)
		case 3:
			e.Bytes = -1 << 40
		case 4:
			e.Depth = 1 << 15
		case 5:
			e.Link = -129
		case 6:
			e.Pri = 128
		}
		extreme = append(extreme, e)
	}
	return kinds, extreme
}

// TestTimelineCrowds runs FuzzTimelineRoundTrip's check on events
// after a crowd of 65 537 nodes, past 65 535 of which a flow's node
// takes its escape, and of 16 384, past which a record's node index
// takes three bytes.  The check costs about a second a crowd, which
// fuzzing cannot pay on every input it derives from one: as fuzz seeds
// whose first byte called up the crowd, they took most of a fuzzing
// run's time.
func TestTimelineCrowds(t *testing.T) {
	kinds, extreme := seedEvents()
	checkRoundTrip(t, append(crowd(math.MaxUint16+2), fuzzEvents(fuzzInput(kinds[0], extreme[1]))...))
	checkRoundTrip(t, append(crowd(1<<14), fuzzEvents(fuzzInput(kinds[0], extreme[1], kinds[2]))...))
}

// checkRoundTrip is FuzzTimelineRoundTrip's check of the events of one
// input.
func checkRoundTrip(t *testing.T, evs []Event) {
	b := NewBus()
	copies := make([]Event, 0, len(evs))
	b.Subscribe(func(e Event) {
		copies = append(copies, e)
		e.Time, e.Node = -1, "changed" // the subscriber's copy, not the timeline's
	})
	tl := NewTimeline(b)
	m := NewMetrics(b)
	ft := NewFlowTable(b)
	var end sim.Time
	for _, e := range evs {
		b.Publish(e)
		end = max(end, e.Time)
	}
	got := tl.Events()
	if tl.Len() != len(evs) || len(got) != len(evs) || len(copies) != len(evs) {
		t.Fatalf("published %d events: Len %d, Events %d, a subscriber saw %d", len(evs), tl.Len(), len(got), len(copies))
	}
	for i := range evs {
		if got[i] != evs[i] {
			t.Fatalf("event %d:\nrecorded  %+v\npublished %+v", i, got[i], evs[i])
		}
		if copies[i] != evs[i] {
			t.Fatalf("event %d:\nsubscriber saw %+v\npublished      %+v", i, copies[i], evs[i])
		}
	}
	var out, ref bytes.Buffer
	if err := tl.WriteChromeTrace(&out); err != nil {
		t.Fatal(err)
	}
	if err := RefWriteChromeTrace(evs, &ref); err != nil {
		t.Fatal(err)
	}
	sameBytes(t, "fuzzed timeline", out.Bytes(), ref.Bytes())

	m.Finish(end)
	m.Report(io.Discard)
	ft.Finish(end)
	checkFlowTable(t, ft, evs)
}

// checkFlowTable compares the flows of a finished table with what the
// reference accumulation makes of the events it was fed, and what the
// table writes and prints with the references' renderings of its
// document and with tflow's: the report of the document read back from
// what the table wrote, when the round trip keeps every string (JSON
// turns invalid UTF-8 into U+FFFD).
func checkFlowTable(t *testing.T, ft *FlowTable, evs []Event) {
	t.Helper()
	doc := ft.Doc()
	if want := RefFlows(evs, ft.Resolve); !reflect.DeepEqual(doc.Flows, want) {
		t.Fatalf("flows\n%+v\nreference\n%+v", doc.Flows, want)
	}
	var js, ref bytes.Buffer
	if err := ft.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if err := RefWriteFlowJSON(doc, &ref); err != nil {
		t.Fatal(err)
	}
	sameBytes(t, "flow table", js.Bytes(), ref.Bytes())
	back, err := ReadFlowDoc(bytes.NewReader(js.Bytes()))
	if err != nil {
		t.Fatalf("the flow document does not parse: %v", err)
	}
	lossless := reflect.DeepEqual(back, doc)
	for _, top := range []int{0, 1, 10, len(doc.Flows) + 1} {
		var got, want, tflow bytes.Buffer
		ft.Report(&got, top)
		RefReport(doc, &want, top)
		sameBytes(t, fmt.Sprintf("flow report, top %d", top), got.Bytes(), want.Bytes())
		if lossless {
			back.Report(&tflow, top)
			sameBytes(t, fmt.Sprintf("flow report, top %d, against the document read back", top), got.Bytes(), tflow.Bytes())
		}
	}
}
