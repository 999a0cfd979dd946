package probe

import (
	"encoding/binary"
	"fmt"
	"io"
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
	// Events are kept as variable-length records (see record) in chunks
	// of chunkBytes.  A record never straddles two chunks, so recording
	// never copies what it holds, and at most one chunk of slack stays
	// reachable.
	chunks [][]byte
	n      int

	// A record holds its node's number in nodes; nodes.last is the
	// previous event's.
	nodes nodeTable

	// What the next record is encoded against: the previous event's
	// time and, by node index, the last values of the fields kept as
	// deltas.
	time sim.Time
	base []deltaBase
}

// deltaBase holds a node's last non-zero value of each field a record
// keeps as a delta.  Flow and Dur go by link too: a link's packets
// repeat their message's flow and their wire time.  A link outside 0..3
// shares a slot; any rule does, so long as the decoder keeps the same.
type deltaBase struct {
	cycles, proc, ip uint64
	flow, dur        [numLinks]uint64
}

const (
	chunkBytes = 64 << 10
	// maxRecord bounds a record: a kind byte, a mask of 15 bits and 13
	// varints.
	maxRecord = 1 + 3 + 13*binary.MaxVarintLen64
)

// A record's presence mask: one bit for each field that is non-zero,
// with Ack and Out as bits of their own and hasNode set when the node
// differs from the previous event's.  The fields most events carry come
// first, so that a typical mask fits the uvarint's first byte.
const (
	hasCycles = 1 << iota
	hasFlow
	hasNode
	hasDur
	hasBytes
	hasAck
	hasLink
	hasProc
	hasPri
	hasIP
	hasOut
	hasTime
	hasDepth
	hasArg
	hasAddr
)

// NewTimeline subscribes a fresh timeline recorder to the bus.
func NewTimeline(b *Bus) *Timeline {
	t := &Timeline{}
	b.SubscribeRef(t.record)
	return t
}

// record appends one event.  A record is its kind byte, the uvarint
// presence mask, then the fields the mask names, in the order written
// here and read by reader.next.  The time is a zigzag delta from the
// previous event's, and the node's index is there only when the node
// changes.  Cycles, Proc and IP are zigzag deltas from the node's last
// non-zero value of the field, Flow and Dur from the last on the node's
// link; the rest are uvarints, zigzag if signed.  Every value fits, so
// nothing is kept anywhere else.
func (t *Timeline) record(e *Event) {
	c := len(t.chunks) - 1
	if c < 0 || chunkBytes-len(t.chunks[c]) < maxRecord {
		t.chunks = append(t.chunks, make([]byte, 0, chunkBytes))
		c++
	}
	t.n++
	prev := t.nodes.last
	node := t.nodes.intern(e.Node)
	if node == len(t.base) {
		t.base = append(t.base, deltaBase{})
	}
	dt := e.Time - t.time
	t.time = e.Time

	mask := bit(dt != 0, hasTime) | bit(node != prev, hasNode) |
		bit(e.Cycles != 0, hasCycles) | bit(e.Flow != 0, hasFlow) |
		bit(e.Dur != 0, hasDur) | bit(e.Bytes != 0, hasBytes) |
		bit(e.Ack, hasAck) | bit(e.Link != 0, hasLink) |
		bit(e.Proc != 0, hasProc) | bit(e.Pri != 0, hasPri) |
		bit(e.IP != 0, hasIP) | bit(e.Out, hasOut) |
		bit(e.Depth != 0, hasDepth) | bit(e.Arg != 0, hasArg) |
		bit(e.Addr != 0, hasAddr)
	b := binary.AppendUvarint(append(t.chunks[c], byte(e.Kind)), mask)
	if mask&hasTime != 0 {
		b = appendZigzag(b, int64(dt))
	}
	if mask&hasNode != 0 {
		b = binary.AppendUvarint(b, uint64(node))
	}
	if mask&hasLink != 0 {
		b = appendZigzag(b, int64(e.Link))
	}
	base, l := &t.base[node], e.Link&(numLinks-1)
	if mask&hasCycles != 0 {
		b = appendDelta(b, e.Cycles, &base.cycles)
	}
	if mask&hasFlow != 0 {
		b = appendDelta(b, e.Flow, &base.flow[l])
	}
	if mask&hasDur != 0 {
		b = appendDelta(b, uint64(e.Dur), &base.dur[l])
	}
	if mask&hasProc != 0 {
		b = appendDelta(b, e.Proc, &base.proc)
	}
	if mask&hasIP != 0 {
		b = appendDelta(b, e.IP, &base.ip)
	}
	if mask&hasBytes != 0 {
		b = appendZigzag(b, int64(e.Bytes))
	}
	if mask&hasPri != 0 {
		b = appendZigzag(b, int64(e.Pri))
	}
	if mask&hasDepth != 0 {
		b = appendZigzag(b, int64(e.Depth))
	}
	if mask&hasArg != 0 {
		b = appendZigzag(b, e.Arg)
	}
	if mask&hasAddr != 0 {
		b = binary.AppendUvarint(b, e.Addr)
	}
	t.chunks[c] = b
}

// bit is b's mask bit: m if b holds, else 0.
func bit(b bool, m uint64) uint64 {
	if b {
		return m
	}
	return 0
}

// appendZigzag appends a signed value as a uvarint, small magnitudes of
// either sign in few bytes.
func appendZigzag(b []byte, v int64) []byte {
	return binary.AppendUvarint(b, uint64(v<<1)^uint64(v>>63))
}

// appendDelta appends v as a zigzag delta from *last, wrapping, and
// makes v the next delta's base.
func appendDelta(b []byte, v uint64, last *uint64) []byte {
	d := v - *last
	*last = v
	return appendZigzag(b, int64(d))
}

// uvarint reads the uvarint at b[i:] and returns it and the index past
// it.
func uvarint(b []byte, i int) (uint64, int) {
	var v uint64
	for s := 0; ; s += 7 {
		c := b[i]
		i++
		if c < 0x80 {
			return v | uint64(c)<<s, i
		}
		v |= uint64(c&0x7f) << s
	}
}

// zigzag reads the zigzag uvarint at b[i:].
func zigzag(b []byte, i int) (int64, int) {
	u, i := uvarint(b, i)
	return int64(u>>1) ^ -int64(u&1), i
}

// delta reads the zigzag delta at b[i:] and returns *last plus it,
// which becomes the next delta's base.
func delta(b []byte, i int, last *uint64) (uint64, int) {
	u, i := uvarint(b, i)
	*last += u>>1 ^ -(u & 1)
	return *last, i
}

// reader decodes the records in order: the one decoder behind Events
// and WriteChromeTrace.  Its event is rewritten by every next, so a
// caller copies what it keeps.
type reader struct {
	t     *Timeline
	chunk int
	i     int
	e     Event
	node  int
	bases []deltaBase
}

// reader returns a reader at the first record.
func (t *Timeline) reader() *reader {
	r := &reader{t: t, bases: make([]deltaBase, len(t.nodes.names))}
	if len(t.nodes.names) > 0 {
		r.e.Node = t.nodes.names[0]
	}
	return r
}

// next decodes the next record into r.e and r.node, and reports whether
// there was one.
func (r *reader) next() bool {
	chunks := r.t.chunks
	if r.chunk == len(chunks) {
		return false
	}
	b, i := chunks[r.chunk], r.i
	var mask, u uint64
	var v int64
	e := &r.e
	e.Kind = Kind(b[i])
	mask, i = uvarint(b, i+1)
	if mask&hasTime != 0 {
		v, i = zigzag(b, i)
		e.Time += sim.Time(v)
	}
	if mask&hasNode != 0 {
		u, i = uvarint(b, i)
		r.node = int(u)
		e.Node = r.t.nodes.names[r.node]
	}
	v = 0
	if mask&hasLink != 0 {
		v, i = zigzag(b, i)
	}
	e.Link = int(v)
	base, l := &r.bases[r.node], e.Link&(numLinks-1)
	u = 0
	if mask&hasCycles != 0 {
		u, i = delta(b, i, &base.cycles)
	}
	e.Cycles = u
	u = 0
	if mask&hasFlow != 0 {
		u, i = delta(b, i, &base.flow[l])
	}
	e.Flow = u
	u = 0
	if mask&hasDur != 0 {
		u, i = delta(b, i, &base.dur[l])
	}
	e.Dur = sim.Time(u)
	u = 0
	if mask&hasProc != 0 {
		u, i = delta(b, i, &base.proc)
	}
	e.Proc = u
	u = 0
	if mask&hasIP != 0 {
		u, i = delta(b, i, &base.ip)
	}
	e.IP = u
	v = 0
	if mask&hasBytes != 0 {
		v, i = zigzag(b, i)
	}
	e.Bytes = int(v)
	v = 0
	if mask&hasPri != 0 {
		v, i = zigzag(b, i)
	}
	e.Pri = int(v)
	v = 0
	if mask&hasDepth != 0 {
		v, i = zigzag(b, i)
	}
	e.Depth = int(v)
	v = 0
	if mask&hasArg != 0 {
		v, i = zigzag(b, i)
	}
	e.Arg = v
	u = 0
	if mask&hasAddr != 0 {
		u, i = uvarint(b, i)
	}
	e.Addr = u
	e.Ack = mask&hasAck != 0
	e.Out = mask&hasOut != 0
	if i == len(b) {
		r.chunk, i = r.chunk+1, 0
	}
	r.i = i
	return true
}

// Len returns the number of recorded events.
func (t *Timeline) Len() int { return t.n }

// Events returns the recorded events in publication order, decoded into
// one slice the caller owns; the timeline keeps no reference to it.
func (t *Timeline) Events() []Event {
	out := make([]Event, 0, t.n)
	for r := t.reader(); r.next(); {
		out = append(out, r.e)
	}
	return out
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
// chunks, through a bounded buffer: what it allocates does not grow with
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
	nodes := make([]traceNode, len(t.nodes.names))
	pids := 0
	var end sim.Time
	for r := t.reader(); r.next(); {
		e := &r.e
		end = max(end, e.Time)
		ns := &nodes[r.node]
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
	// Close any slice still open at the end of the run, in node-name
	// order.
	var open []int
	for i := range nodes {
		if nodes[i].open {
			open = append(open, i)
		}
	}
	names := t.nodes.names
	slices.SortFunc(open, func(a, b int) int { return strings.Compare(names[a], names[b]) })
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
