package probe

import (
	"bytes"
	"encoding/json"
	"testing"

	"transputer/internal/sim"
)

// kindCase is one Kind's plausible event and the chrome event the
// timeline has to render for it.
type kindCase struct {
	ev   Event
	name string
	ph   string
}

var (
	flowChan = PackFlow(1, 1)
	flowLink = PackFlow(1, 2)
)

var kindTable = map[Kind]kindCase{
	ProcDispatch:   {Event{Proc: 0x101}, "run", "B"},
	ProcStop:       {Event{}, "run", "E"},
	ProcReady:      {Event{Pri: 1, Depth: 2}, "runq.pri1", "C"},
	Preempt:        {Event{Dur: 100}, "preempt", "i"},
	Timeslice:      {Event{}, "timeslice", "i"},
	ChanBlock:      {Event{Proc: 0x101, Addr: 0x80, Out: true, Flow: flowChan}, "chan.block", "i"},
	ChanRendezvous: {Event{Proc: 0x101, Addr: 0x80, Bytes: 4, Flow: flowChan}, "chan.rendezvous", "i"},
	TimerWait:      {Event{Proc: 0x101, Arg: 99}, "timer.wait", "i"},
	TimerFire:      {Event{Proc: 0x101}, "timer.fire", "i"},
	EventPin:       {Event{}, "event.pin", "i"},
	LinkXferStart:  {Event{Proc: 0x101, Link: 1, Bytes: 4, Out: true, Flow: flowLink}, "link.out", "B"},
	LinkXferEnd:    {Event{Proc: 0x101, Link: 1, Out: true, Flow: flowLink}, "link.out", "E"},
	WirePacket:     {Event{Link: 1, Bytes: 1, Dur: 1100}, "data", "X"},
	AckStall:       {Event{Link: 1}, "ack.stall", "X"},
	HostCommand:    {Event{Arg: 2}, "host.cmd", "i"},
	FaultDrop:      {Event{Link: 1}, "fault.drop", "i"},
	FaultCorrupt:   {Event{Link: 1, Arg: 0xFF}, "fault.corrupt", "i"},
	FaultDelay:     {Event{Link: 1, Dur: 500}, "fault.delay", "X"},
	LinkNak:        {Event{Link: 1, Flow: flowLink}, "link.nak", "i"},
	LinkRetransmit: {Event{Link: 1, Arg: 1, Flow: flowLink}, "link.retransmit", "i"},
	LinkDown:       {Event{Link: 1, Arg: 32}, "link.down", "i"},
	LinkSever:      {Event{Link: 1}, "link.sever", "i"},
	NodeHalt:       {Event{}, "node.halt", "i"},
	Deadlock:       {Event{Proc: 0x101, Addr: 0x80}, "deadlock", "i"},
	FlowArrive:     {Event{Link: 1, Flow: flowLink}, "flow.arrive", "i"},
	Heartbeat:      {Event{Link: 1, Arg: 0, Dur: 5000}, "heartbeat", "i"},
	RouteChange:    {Event{Arg: 7}, "route.change", "i"},
	NodeRestart:    {Event{}, "node.restart", "i"},
	RouteReplay:    {Event{Arg: 2}, "route.replay", "i"},
	RouteDeliver:   {Event{Arg: 3, Bytes: 16}, "route.deliver", "i"},
	VChanChunk:     {Event{Link: 1, Arg: 5, Bytes: 16, Flow: flowLink}, "vc5.chunk", "i"},
	VChanCredit:    {Event{Link: 1, Arg: 5, Bytes: 16}, "vc5.credit", "i"},
	VChanDeliver:   {Event{Link: 1, Arg: 5, Bytes: 64, Flow: flowLink}, "vc5.deliver", "i"},
}

// kindEvents returns the table's event of every declared Kind, in Kind
// order on node "n".  A Kind the table lacks fails the test.
func kindEvents(t *testing.T) []Event {
	var evs []Event
	for k := Kind(0); k < numKinds; k++ {
		w, ok := kindTable[k]
		if !ok {
			t.Fatalf("kind %v (%d) has no renderer expectation — extend kindTable AND the timeline renderer", k, k)
		}
		ev := w.ev
		ev.Kind = k
		ev.Node = "n"
		// One microsecond per kind keeps timestamps unique and ordered
		// (ProcDispatch precedes ProcStop, ChanBlock precedes
		// ChanRendezvous, LinkXferStart precedes LinkXferEnd).
		ev.Time = sim.Time(k+1) * sim.Microsecond
		evs = append(evs, ev)
	}
	return evs
}

// TestKindExhaustive pins every declared Kind to a String() name and a
// timeline renderer case: each kind is fed through the timeline with
// plausible fields and must produce a chrome event with the expected
// name and phase at its timestamp.  Adding a Kind without extending the
// table (and the renderer) fails here instead of silently dropping the
// kind from traces.
func TestKindExhaustive(t *testing.T) {
	b := NewBus()
	tl := NewTimeline(b)
	for _, ev := range kindEvents(t) {
		if k := ev.Kind; k.String() == "" || k.String() == "unknown" {
			t.Errorf("kind %d has no String() name", k)
		}
		b.Publish(ev)
	}

	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for k := Kind(0); k < numKinds; k++ {
		w := kindTable[k]
		ts := float64(k + 1) // microseconds
		if w.ev.Dur != 0 && w.name == "ack.stall" {
			ts -= float64(w.ev.Dur) / 1e3
		}
		found := false
		for _, ce := range doc.TraceEvents {
			if ce.Name == w.name && ce.Ph == w.ph && ce.Ts == ts {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("kind %v: no %q (ph %q) chrome event rendered at t=%vµs", k, w.name, w.ph, ts)
		}
	}
}

// TestTimelineFlowArrows checks the timeline draws Perfetto message
// arcs: a traced link transfer emits a flow "s" event at the sender's
// transfer start and a matching "f" (bound to the enclosing slice) at
// the receiver's transfer end, and an internal channel flow likewise
// connects block to rendezvous.
func TestTimelineFlowArrows(t *testing.T) {
	b := NewBus()
	tl := NewTimeline(b)
	fl := PackFlow(3, 7)
	us := func(n int64) sim.Time { return sim.Time(n) * sim.Microsecond }
	b.Publish(Event{Kind: LinkXferStart, Node: "a", Time: us(1), Proc: 0x101,
		Link: 2, Bytes: 4, Out: true, Flow: fl})
	b.Publish(Event{Kind: LinkXferEnd, Node: "b", Time: us(5), Proc: 0x201,
		Link: 0, Out: false, Flow: fl})
	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Id   uint64 `json:"id"`
			Bp   string `json:"bp"`
			Pid  int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var s, f int
	for _, ce := range doc.TraceEvents {
		if ce.Name != "flow" {
			continue
		}
		switch ce.Ph {
		case "s":
			s++
			if ce.Id != fl {
				t.Errorf("flow start id = %d, want %d", ce.Id, fl)
			}
		case "f":
			f++
			if ce.Id != fl {
				t.Errorf("flow finish id = %d, want %d", ce.Id, fl)
			}
			if ce.Bp != "e" {
				t.Errorf("flow finish bp = %q, want \"e\"", ce.Bp)
			}
		}
	}
	if s != 1 || f != 1 {
		t.Errorf("flow arrows: %d starts, %d finishes, want 1 and 1", s, f)
	}
}
