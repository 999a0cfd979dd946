package probe

import (
	"bytes"
	"encoding/binary"
	"math"
	"strconv"
	"testing"
	"unsafe"

	"transputer/internal/sim"
)

// TestTimelineRecordSize pins the record at 64 bytes: what an observed
// run keeps per event.
func TestTimelineRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(rec{}); n != 64 {
		t.Errorf("a timeline record is %d bytes, want 64", n)
	}
}

// fuzzValues are the field values a fuzz input names by index: each
// side of every record field's range (32 bits unsigned, int32, int16,
// int8) and the ends of 64 bits.
var fuzzValues = []uint64{
	0, 1, 0x80000048, math.MaxUint32, math.MaxUint32 + 1, 1 << 40, math.MaxUint64, math.MaxInt64, 1 << 63,
	math.MaxInt8, math.MaxInt8 + 1, math.MaxInt16, math.MaxInt16 + 1, math.MaxInt32, math.MaxInt32 + 1,
	neg(math.MinInt8), neg(math.MinInt8 - 1), neg(math.MinInt16), neg(math.MinInt16 - 1), neg(math.MinInt32), neg(math.MinInt32 - 1),
}

// neg is a negative value as its two's-complement bits.
func neg(v int64) uint64 { return uint64(v) }

// fuzzNames are the node names a fuzz input names by index: repeats,
// the empty name, and names that need escaping.
var fuzzNames = append([]string{"n", "n0", "n1", "n", ""}, hostileNames...)

// fuzzEvents decodes a fuzz input.  An event takes a kind byte (one past
// the last kind included), a node byte, a flags byte (Ack, Out) and one
// byte for each numeric field: an index into fuzzValues or, past its
// end, the mark of a raw little-endian value in the next 8 bytes.  An
// input whose first byte is 0xFF starts with more distinct nodes than a
// record's node index holds.
func fuzzEvents(data []byte) []Event {
	var evs []Event
	if len(data) > 0 && data[0] == 0xFF {
		for i := 0; i <= math.MaxUint16+1; i++ {
			evs = append(evs, Event{Kind: Timeslice, Node: "x" + strconv.Itoa(i), Time: sim.Time(i)})
		}
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

// fuzzInput encodes events in the form fuzzEvents decodes, every value
// raw; a node must be one of fuzzNames.
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
			b = binary.LittleEndian.AppendUint64(append(b, 0xFE), v)
		}
	}
	return b
}

// FuzzTimelineRoundTrip: whatever is published, the timeline's compact
// records give it all back — Events returns exactly the events, an event
// a record cannot hold included; WriteChromeTrace writes what the
// reference renderer writes for them; and a Subscribe consumer beside
// the timeline gets its own identical copy of each.
func FuzzTimelineRoundTrip(f *testing.F) {
	var kinds []Event
	for k := Kind(0); k < numKinds; k++ {
		e := kindTable[k].ev
		e.Kind, e.Node, e.Time = k, "n", sim.Time(k+1)*sim.Microsecond
		kinds = append(kinds, e)
	}
	f.Add(fuzzInput(kinds...))
	// Negative values that fit, 64-bit extremes, and one field a record
	// cannot hold, a different one from event to event.
	var extreme []Event
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
	f.Add(fuzzInput(extreme...))
	f.Add(fuzzInput(append(kinds[:4:4], extreme[4:8]...)...))
	f.Add(append([]byte{0xFF}, fuzzInput(kinds[0], extreme[1])...))
	f.Add([]byte{byte(ProcDispatch), 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, byte(ProcDispatch), 4, 2, 20, 19, 18})

	f.Fuzz(func(t *testing.T, data []byte) {
		evs := fuzzEvents(data)
		b := NewBus()
		var copies []Event
		b.Subscribe(func(e Event) {
			copies = append(copies, e)
			e.Time, e.Node = -1, "changed" // the subscriber's copy, not the timeline's
		})
		tl := NewTimeline(b)
		for _, e := range evs {
			b.Publish(e)
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
	})
}
