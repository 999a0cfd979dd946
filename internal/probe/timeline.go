package probe

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"transputer/internal/sim"
)

// Timeline records every bus event and exports them in the Chrome
// trace-event JSON format, loadable in chrome://tracing or Perfetto.
// Each node becomes a trace "process"; each transputer process gets its
// own track, as do the node's links (wire occupancy, transfers and ack
// stalls), the scheduler and the host protocol.
type Timeline struct {
	// Events are kept as records in fixed-size pages: recording never
	// copies or re-clears what it already holds, and at most one page of
	// slack stays reachable (a doubling slice leaves up to as much again).
	pages []*[pageEvents]rec
	n     int

	// names holds each node name once, in order of first appearance, and
	// a record holds its node's index; last is the previous event's.
	names []string
	index map[string]int
	last  int

	// wide keeps whole the events a record cannot hold.
	wide []wideEvent
}

// pageEvents records fill one 64 KiB page.
const pageEvents = 1024

// rec is one recorded event in 64 bytes that hold no pointer, so the
// pages cost the garbage collector nothing to scan.  The node is an
// index into Timeline.names, and the fields a transputer fills with a
// word (process descriptor, channel address, instruction pointer) take
// 32 bits.  An event with a value out of its field's range is kept
// whole in Timeline.wide instead: its record has flagWide set and holds
// the event's index there in arg, nothing else.
type rec struct {
	time   sim.Time
	cycles uint64
	flow   uint64
	dur    sim.Time
	arg    int64
	proc   uint32
	addr   uint32
	ip     uint32
	bytes  int32
	depth  int16
	node   uint16
	link   int8
	pri    int8
	kind   Kind
	flags  uint8
}

// rec flags.
const (
	flagAck uint8 = 1 << iota
	flagOut
	flagWide
)

// wideEvent is an event kept whole, with its node's index.
type wideEvent struct {
	Event
	node int
}

// NewTimeline subscribes a fresh timeline recorder to the bus.
func NewTimeline(b *Bus) *Timeline {
	t := &Timeline{index: map[string]int{}}
	b.SubscribeRef(t.record)
	return t
}

func (t *Timeline) record(e *Event) {
	i := t.n % pageEvents
	if i == 0 {
		t.pages = append(t.pages, new([pageEvents]rec))
	}
	r := &t.pages[len(t.pages)-1][i]
	t.n++
	node := t.nodeIndex(e.Node)
	if node > math.MaxUint16 || e.Proc|e.Addr|e.IP > math.MaxUint32 ||
		e.Bytes != int(int32(e.Bytes)) || e.Depth != int(int16(e.Depth)) ||
		e.Link != int(int8(e.Link)) || e.Pri != int(int8(e.Pri)) {
		*r = rec{flags: flagWide, arg: int64(len(t.wide))}
		t.wide = append(t.wide, wideEvent{*e, node})
		return
	}
	var flags uint8
	if e.Ack {
		flags |= flagAck
	}
	if e.Out {
		flags |= flagOut
	}
	*r = rec{
		time: e.Time, cycles: e.Cycles, flow: e.Flow, dur: e.Dur, arg: e.Arg,
		proc: uint32(e.Proc), addr: uint32(e.Addr), ip: uint32(e.IP),
		bytes: int32(e.Bytes), depth: int16(e.Depth), node: uint16(node),
		link: int8(e.Link), pri: int8(e.Pri), kind: e.Kind, flags: flags,
	}
}

// nodeIndex returns the index of a node name, adding it at first sight.
func (t *Timeline) nodeIndex(name string) int {
	if i := t.last; i < len(t.names) && t.names[i] == name {
		return i
	}
	i, ok := t.index[name]
	if !ok {
		i = len(t.names)
		t.names = append(t.names, name)
		t.index[name] = i
	}
	t.last = i
	return i
}

// event returns the event r records and its node's index.  A record
// that is not wide is decoded into *scratch.
func (t *Timeline) event(r *rec, scratch *Event) (*Event, int) {
	if r.flags&flagWide != 0 {
		w := &t.wide[r.arg]
		return &w.Event, w.node
	}
	*scratch = Event{
		Time: r.time, Cycles: r.cycles, Node: t.names[r.node], Kind: r.kind,
		Proc: uint64(r.proc), Pri: int(r.pri), Addr: uint64(r.addr), Link: int(r.link),
		Bytes: int(r.bytes), Dur: r.dur, Depth: int(r.depth),
		Ack: r.flags&flagAck != 0, Out: r.flags&flagOut != 0,
		Arg: r.arg, Flow: r.flow, IP: uint64(r.ip),
	}
	return scratch, int(r.node)
}

// Len returns the number of recorded events.
func (t *Timeline) Len() int { return t.n }

// Events returns the recorded events in publication order, decoded into
// one slice the caller owns; the timeline keeps no reference to it.
func (t *Timeline) Events() []Event {
	out := make([]Event, 0, t.n)
	var scratch Event
	for i := range t.pages {
		page := t.page(i)
		for j := range page {
			e, _ := t.event(&page[j], &scratch)
			out = append(out, *e)
		}
	}
	return out
}

// page returns the recorded part of page i.
func (t *Timeline) page(i int) []rec {
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

// traceNode is one node's trace process: its pid (zero until the node's
// first event), its process tracks and the "run" slice open on its one
// CPU.
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

	// Per-node trace state, by the records' node index.
	nodes := make([]traceNode, len(t.names))
	pids := 0
	var end sim.Time
	var scratch Event
	for i := range t.pages {
		page := t.page(i)
		for j := range page {
			e, node := t.event(&page[j], &scratch)
			end = max(end, e.Time)
			ns := &nodes[node]
			if ns.pid == 0 {
				pids++
				*ns = traceNode{pid: pids, procTid: map[uint64]int{}}
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
	// Close any slice still open at the end of the run, in node-name
	// order.
	var open []int
	for i := range nodes {
		if nodes[i].open {
			open = append(open, i)
		}
	}
	slices.SortFunc(open, func(a, b int) int { return strings.Compare(t.names[a], t.names[b]) })
	for _, i := range open {
		enc.closeSlice(&nodes[i], end)
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
