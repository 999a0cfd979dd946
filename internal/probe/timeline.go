package probe

import (
	"fmt"
	"io"
	"slices"
	"strconv"

	"transputer/internal/sim"
)

// Timeline records every bus event and exports them in the Chrome
// trace-event JSON format, loadable in chrome://tracing or Perfetto.
// Each node becomes a trace "process"; each transputer process gets its
// own track, as do the node's links (wire occupancy, transfers and ack
// stalls), the scheduler and the host protocol.
type Timeline struct {
	// Events are kept in fixed-size pages: recording never copies or
	// re-clears what it already holds, and at most one page of slack
	// stays reachable (a doubling slice leaves up to as much again).
	pages []*[pageEvents]Event
	n     int
}

// pageEvents events fill one 64 KiB page.
const pageEvents = 512

// NewTimeline subscribes a fresh timeline recorder to the bus.
func NewTimeline(b *Bus) *Timeline {
	t := &Timeline{}
	b.Subscribe(t.record)
	return t
}

func (t *Timeline) record(e Event) {
	i := t.n % pageEvents
	if i == 0 {
		t.pages = append(t.pages, new([pageEvents]Event))
	}
	t.pages[len(t.pages)-1][i] = e
	t.n++
}

// Len returns the number of recorded events.
func (t *Timeline) Len() int { return t.n }

// Events returns the recorded events in publication order, copied into
// one slice the caller owns; the timeline keeps no reference to it.
func (t *Timeline) Events() []Event {
	out := make([]Event, 0, t.n)
	for i := range t.pages {
		out = append(out, t.page(i)...)
	}
	return out
}

// page returns the recorded part of page i.
func (t *Timeline) page(i int) []Event {
	return t.pages[i][:min(pageEvents, t.n-i*pageEvents)]
}

// Track ids within a node's trace process.  Process tracks are assigned
// ids from tidProcBase upward in order of first dispatch.
const (
	tidSched    = 1   // scheduler instants (preempt, timeslice, timer, event pin)
	tidHost     = 2   // host protocol commands
	tidWireBase = 10  // + link: wire occupancy and ack stalls
	tidXferBase = 20  // + 2*link (+1 for input): processor-side transfers
	tidProcBase = 100 // + per-process index
)

// traceEnc appends trace events to an out, byte for byte what
// encoding/json writes for the event struct of the reference renderer
// in timeline_ref_test.go: members in its declaration order (name, ph, ts,
// dur, pid, tid, cat, s, id, bp, args), its omitempty members left out
// when zero, and the args object's keys in sorted order, as a map's
// are.  Every call site below therefore lists its arguments
// alphabetically.
type traceEnc struct {
	*out
	n    int  // trace events written
	args bool // the open event has an args object
}

// traceNode is one node's trace process: its pid, its process tracks
// and the "run" slice open on its one CPU.
type traceNode struct {
	pid     int
	procTid map[uint64]int
	open    bool
	openTid int
}

// begin opens a trace event and writes its members up to "s".  Names,
// phases, categories and scopes are constants or digits, so they need
// no escaping.
func (t *traceEnc) begin(name, ph string, ts, dur sim.Time, pid, tid int, cat, scope string) {
	b := t.b
	if t.n > 0 {
		b = append(b, ',')
	}
	t.n++
	b = append(append(b, `{"name":"`...), name...)
	b = append(append(b, `","ph":"`...), ph...)
	b = appendUsec(append(b, `","ts":`...), ts)
	if dur != 0 {
		b = appendUsec(append(b, `,"dur":`...), dur)
	}
	b = strconv.AppendInt(append(b, `,"pid":`...), int64(pid), 10)
	b = strconv.AppendInt(append(b, `,"tid":`...), int64(tid), 10)
	if cat != "" {
		b = append(append(append(b, `,"cat":"`...), cat...), '"')
	}
	if scope != "" {
		b = append(append(append(b, `,"s":"`...), scope...), '"')
	}
	t.b = b
}

// end closes the open trace event.
func (t *traceEnc) end() {
	if t.args {
		t.b = append(t.b, '}')
		t.args = false
	}
	t.b = append(t.b, '}')
}

// key starts one member of the open event's args object.
func (t *traceEnc) key(k string) {
	if t.args {
		t.b = append(t.b, ',')
	} else {
		t.b = append(t.b, `,"args":{`...)
		t.args = true
	}
	t.b = append(append(append(t.b, '"'), k...), `":`...)
}

func (t *traceEnc) int(k string, v int64)   { t.key(k); t.b = strconv.AppendInt(t.b, v, 10) }
func (t *traceEnc) uint(k string, v uint64) { t.key(k); t.b = strconv.AppendUint(t.b, v, 10) }
func (t *traceEnc) bool(k string, v bool)   { t.key(k); t.b = strconv.AppendBool(t.b, v) }
func (t *traceEnc) str(k, v string)         { t.key(k); t.b = appendJSONString(t.b, v) }

// hex writes v as fmt's %#x does, in quotes.
func (t *traceEnc) hex(k string, v uint64) {
	t.key(k)
	t.b = append(strconv.AppendUint(append(t.b, `"0x`...), v, 16), '"')
}

// flow writes one end of a Perfetto message arc.  The finishing end
// binds to the enclosing slice.
func (t *traceEnc) flow(ph string, ts sim.Time, pid, tid int, id uint64) {
	t.begin("flow", ph, ts, 0, pid, tid, "flow", "")
	t.b = strconv.AppendUint(append(t.b, `,"id":`...), id, 10)
	if ph == "f" {
		t.b = append(t.b, `,"bp":"e"`...)
	}
	t.end()
}

// appendUsec writes a time in microseconds as encoding/json writes the
// float64 ns/1e3: its shortest 'f' form (json's exponent form starts
// below 1e-6 and at 1e21, out of an int64's reach).  Below 1e15 ns a
// float64 tells thousandths apart with room to spare, so the shortest
// form is the exact quotient, the trailing zeros of its fraction cut.
func appendUsec(b []byte, t sim.Time) []byte {
	if t < 0 || t >= 1e15 {
		return strconv.AppendFloat(b, float64(t)/1e3, 'f', -1, 64)
	}
	b = strconv.AppendInt(b, int64(t/1000), 10)
	if r := t % 1000; r != 0 {
		b = append(b, '.', byte('0'+r/100), byte('0'+r/10%10), byte('0'+r%10))
		for b[len(b)-1] == '0' {
			b = b[:len(b)-1]
		}
	}
	return b
}

// procTid returns the track of a process, naming it at first use.
func (t *traceEnc) procTid(ns *traceNode, proc uint64) int {
	tid, ok := ns.procTid[proc]
	if !ok {
		tid = tidProcBase + len(ns.procTid)
		ns.procTid[proc] = tid
		t.begin("thread_name", "M", 0, 0, ns.pid, tid, "", "")
		t.str("name", fmt.Sprintf("P@%08X pri%d", proc&^1, proc&1))
		t.end()
	}
	return tid
}

// closeSlice ends the node's open "run" slice, if any.
func (t *traceEnc) closeSlice(ns *traceNode, at sim.Time) {
	if ns.open {
		ns.open = false
		t.begin("run", "E", at, 0, ns.pid, ns.openTid, "sched", "")
		t.end()
	}
}

// WriteChromeTrace renders the recorded events in one pass over the
// pages, through a bounded buffer: what it allocates does not grow with
// the number of events.  It stops at the first write error.
func (t *Timeline) WriteChromeTrace(w io.Writer) error {
	enc := traceEnc{out: newOut(w)}
	enc.b = append(enc.b, `{"displayTimeUnit":"ms","traceEvents":`...)
	if t.n == 0 {
		// The reference encoder's slice of events is nil here.
		enc.b = append(enc.b, "null}\n"...)
		return enc.flush()
	}
	enc.b = append(enc.b, '[')

	nodes := map[string]*traceNode{}
	var end sim.Time
	for i := range t.pages {
		page := t.page(i)
		for j := range page {
			e := &page[j]
			end = max(end, e.Time)
			ns := nodes[e.Node]
			if ns == nil {
				ns = &traceNode{pid: len(nodes) + 1, procTid: map[uint64]int{}}
				nodes[e.Node] = ns
				enc.begin("process_name", "M", 0, 0, ns.pid, 0, "", "")
				enc.str("name", e.Node)
				enc.end()
			}
			enc.event(e, ns)
			if len(enc.b) >= flushLen && enc.flush() != nil {
				return enc.err
			}
		}
	}
	// Close any slice still open at the end of the run.
	var open []string
	for name, ns := range nodes {
		if ns.open {
			open = append(open, name)
		}
	}
	slices.Sort(open)
	for _, name := range open {
		enc.closeSlice(nodes[name], end)
	}
	enc.b = append(enc.b, "]}\n"...)
	return enc.flush()
}

// event renders one probe event on its node's tracks.
func (t *traceEnc) event(e *Event, ns *traceNode) {
	p, wire := ns.pid, tidWireBase+e.Link
	// A traced message also draws one end of a Perfetto arc on arcTid,
	// after its own event: phase "s" where it starts, "f" where it ends.
	arc, arcTid := "", 0
	switch e.Kind {
	case ProcDispatch:
		// One CPU per node: a dispatch implicitly ends whatever was
		// running (the stop event normally arrives first).
		t.closeSlice(ns, e.Time)
		tid := t.procTid(ns, e.Proc)
		ns.open, ns.openTid = true, tid
		t.begin("run", "B", e.Time, 0, p, tid, "sched", "")
		t.uint("cycles", e.Cycles)
		t.int("runq", int64(e.Depth))
	case ProcStop:
		t.closeSlice(ns, e.Time)
		return
	case ProcReady:
		t.begin("runq.pri"+strconv.Itoa(e.Pri), "C", e.Time, 0, p, 0, "", "")
		t.int("depth", int64(e.Depth))
	case Preempt:
		t.begin("preempt", "i", e.Time, 0, p, tidSched, "sched", "t")
		t.uint("cycles", e.Cycles)
	case Timeslice:
		t.begin("timeslice", "i", e.Time, 0, p, tidSched, "sched", "t")
	case ChanBlock:
		arcTid = t.procTid(ns, e.Proc)
		t.begin("chan.block", "i", e.Time, 0, p, arcTid, "chan", "t")
		t.hex("chan", e.Addr)
		t.bool("out", e.Out)
		arc = "s"
	case ChanRendezvous:
		arcTid = t.procTid(ns, e.Proc)
		t.begin("chan.rendezvous", "i", e.Time, 0, p, arcTid, "chan", "t")
		t.int("bytes", int64(e.Bytes))
		t.hex("chan", e.Addr)
		t.hex("partner", uint64(e.Arg))
		arc = "f"
	case TimerWait:
		t.begin("timer.wait", "i", e.Time, 0, p, tidSched, "timer", "t")
		t.hex("proc", e.Proc)
		t.int("until", e.Arg)
	case TimerFire:
		t.begin("timer.fire", "i", e.Time, 0, p, tidSched, "timer", "t")
		t.hex("proc", e.Proc)
	case EventPin:
		t.begin("event.pin", "i", e.Time, 0, p, tidSched, "event", "t")
	case LinkXferStart:
		arcTid = xferTid(e.Link, e.Out)
		t.begin(xferName(e.Out), "B", e.Time, 0, p, arcTid, "link", "")
		t.int("bytes", int64(e.Bytes))
		t.hex("proc", e.Proc)
		if e.Out {
			arc = "s" // sender end of a cross-node message arc
		}
	case LinkXferEnd:
		arcTid = xferTid(e.Link, e.Out)
		t.begin(xferName(e.Out), "E", e.Time, 0, p, arcTid, "link", "")
		if !e.Out {
			arc = "f" // receiver end: the arrow lands in the completed transfer
		}
	case WirePacket:
		name := "data"
		if e.Ack {
			name = "ack"
		}
		t.begin(name, "X", e.Time, e.Dur, p, wire, "wire", "")
	case AckStall:
		t.begin("ack.stall", "X", e.Time-e.Dur, e.Dur, p, wire, "wire", "")
	case HostCommand:
		t.begin("host.cmd", "i", e.Time, 0, p, tidHost, "host", "t")
		t.int("cmd", e.Arg)
	case FaultDrop, FaultCorrupt, LinkNak, LinkRetransmit, LinkDown:
		t.begin(e.Kind.String(), "i", e.Time, 0, p, wire, "fault", "t")
		t.bool("ack", e.Ack)
		t.int("arg", e.Arg)
	case FaultDelay:
		t.begin("fault.delay", "X", e.Time, e.Dur, p, wire, "fault", "")
	case LinkSever:
		t.begin("link.sever", "i", e.Time, 0, p, wire, "fault", "p")
	case NodeHalt, NodeRestart:
		t.begin(e.Kind.String(), "i", e.Time, 0, p, tidSched, "fault", "p")
	case FlowArrive:
		t.begin("flow.arrive", "i", e.Time, 0, p, wire, "flow", "t")
		t.hex("flow", e.Flow)
	case Deadlock:
		t.begin("deadlock", "i", e.Time, 0, p, t.procTid(ns, e.Proc), "watchdog", "p")
		t.hex("chan", e.Addr)
		t.int("link", int64(e.Link))
	case Heartbeat:
		t.begin("heartbeat", "i", e.Time, 0, p, wire, "health", "t")
		t.key("silence")
		t.b = appendUsec(t.b, e.Dur)
		t.bool("up", e.Arg == 1)
	case RouteChange:
		t.begin("route.change", "i", e.Time, 0, p, tidSched, "route", "t")
		t.int("reachable", e.Arg)
	case RouteReplay:
		t.begin("route.replay", "i", e.Time, 0, p, tidSched, "route", "t")
		t.int("attempt", e.Arg)
	case RouteDeliver:
		t.begin("route.deliver", "i", e.Time, 0, p, tidSched, "route", "t")
		t.int("bytes", int64(e.Bytes))
		t.int("seq", e.Arg)
	case VChanChunk, VChanCredit, VChanDeliver:
		// "vc<n>.chunk", ".credit", ".deliver": the kind's name from its dot.
		name := "vc" + strconv.FormatInt(e.Arg, 10) + e.Kind.String()[len("vchan"):]
		t.begin(name, "i", e.Time, 0, p, wire, "vchan", "t")
		t.int("bytes", int64(e.Bytes))
		if e.Kind != VChanCredit {
			t.hex("flow", e.Flow)
		}
		t.int("vchan", e.Arg)
	default:
		return
	}
	t.end()
	if arc != "" && e.Flow != 0 {
		t.flow(arc, e.Time, p, arcTid, e.Flow)
	}
}

func xferTid(link int, out bool) int {
	tid := tidXferBase + 2*link
	if !out {
		tid++
	}
	return tid
}

func xferName(out bool) string {
	if out {
		return "link.out"
	}
	return "link.in"
}
