package probe

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"

	"transputer/internal/sim"
)

// FlowTable reconstructs causal message flows from the probe stream: a
// flow is one message's journey — offered to a channel or link, carried
// across a wire packet by packet (with any retransmits, NAKs and drops
// on the way), and completed at a rendezvous or the receiver's transfer
// end.  The table groups every event stamped with a flow identity,
// derives per-flow span components, per-channel/per-link latency
// histograms, and the run's critical path: the chain of flow and
// compute spans whose durations sum exactly to the end-to-end
// completion time.
//
// The table consumes the deterministically merged bus stream, so its
// output is byte-identical at any worker count.
type FlowTable struct {
	// A flow is found by its identity in dense[origin][seq] when the
	// network minted it (origin a node's ordinal, seq counting up from
	// one), and in sparse when the identity has any other shape.
	dense  [][]*flowRec
	sparse map[uint64]*flowRec
	order  []*flowRec

	// lastNode/lastTime track the globally latest event of the run —
	// the critical path is walked backward from there.
	lastNode string
	lastTime sim.Time

	// Resolve, when set, maps (node, instruction pointer) to an occam
	// source location used to annotate flows and the critical path.
	Resolve func(node string, iptr uint64) string

	doc *FlowDoc
}

// flowRec accumulates one flow's events.
type flowRec struct {
	id        uint64
	name      string // "<key>#<ordinal>", set by Finish
	start     sim.Time
	end       sim.Time
	startNode string
	endNode   string
	startIP   uint64

	isChan bool
	addr   uint64 // channel word (chan flows)
	link   int    // sender's link index (link flows)
	vc     int    // virtual channel on that link; -1 when unmultiplexed
	src    string // sender node
	dst    string // receiver node; "" when the far end is a host
	bytes  int

	xferStart  sim.Time // sender's LinkXferStart
	firstData  sim.Time // first data packet on the wire
	hasData    bool
	rendezvous sim.Time // ChanRendezvous (chan flows)
	hasRendez  bool

	wireNs     int64 // first-transmission data packet time
	retransNs  int64 // retransmitted data packet time
	ackNs      int64 // acknowledge/NAK packet time
	ackStallNs int64 // sender dead time waiting for acks

	pendingRetrans int
	retransmits    int
	naks           int
	drops          int
	corrupts       int
	down           bool
}

// NewFlowTable subscribes a fresh flow table to the bus.
func NewFlowTable(b *Bus) *FlowTable {
	t := &FlowTable{sparse: make(map[uint64]*flowRec)}
	b.SubscribeRef(t.consume)
	return t
}

// The dense index's bounds: origins below denseOrigins, and a sequence
// number at most denseGap past the end of its origin's row (the rows
// grow as a node mints flows).  They keep a hostile identity from
// sizing it.
const (
	denseOrigins = 1 << 12
	denseGap     = 64
)

// find returns the flow with the identity, nil if there is none yet.
func (t *FlowTable) find(id uint64) *flowRec {
	o, s := FlowOrigin(id), FlowSeq(id)
	if o < uint64(len(t.dense)) && s < uint64(len(t.dense[o])) {
		if r := t.dense[o][s]; r != nil {
			return r
		}
	}
	return t.sparse[id]
}

// add files a flow find does not know yet.
func (t *FlowTable) add(r *flowRec) {
	t.order = append(t.order, r)
	o, s := FlowOrigin(r.id), FlowSeq(r.id)
	if o < denseOrigins {
		for uint64(len(t.dense)) <= o {
			t.dense = append(t.dense, nil)
		}
		if row := t.dense[o]; s < uint64(len(row))+denseGap {
			for uint64(len(row)) <= s {
				row = append(row, nil)
			}
			row[s] = r
			t.dense[o] = row
			return
		}
	}
	t.sparse[r.id] = r
}

func (t *FlowTable) consume(e *Event) {
	if e.Node != "" && e.Time >= t.lastTime {
		t.lastTime = e.Time
		t.lastNode = e.Node
	}
	if e.Flow == 0 {
		return
	}
	r := t.find(e.Flow)
	if r == nil {
		r = &flowRec{id: e.Flow, start: e.Time, startNode: e.Node, link: -1, vc: -1}
		t.add(r)
	}
	r.end = e.Time
	r.endNode = e.Node
	switch e.Kind {
	case ChanBlock:
		r.isChan = true
		r.addr = e.Addr
		r.src = e.Node
		r.dst = e.Node
		if r.startIP == 0 {
			r.startIP = e.IP
		}
	case ChanRendezvous:
		r.isChan = true
		r.addr = e.Addr
		if r.src == "" {
			r.src = e.Node
			r.dst = e.Node
		}
		if r.startIP == 0 {
			r.startIP = e.IP
		}
		r.rendezvous = e.Time
		r.hasRendez = true
		r.bytes = e.Bytes
	case LinkXferStart:
		if e.Out {
			r.src = e.Node
			r.link = e.Link
			r.bytes = e.Bytes
			r.xferStart = e.Time
			if r.startIP == 0 {
				r.startIP = e.IP
			}
		} else {
			r.dst = e.Node
		}
	case LinkXferEnd:
		if !e.Out {
			r.dst = e.Node
		}
	case FlowArrive:
		r.dst = e.Node
	case WirePacket:
		if e.Ack {
			r.ackNs += int64(e.Dur)
			break
		}
		if !r.hasData {
			r.hasData = true
			r.firstData = e.Time
		}
		if r.pendingRetrans > 0 {
			r.pendingRetrans--
			r.retransNs += int64(e.Dur)
		} else {
			r.wireNs += int64(e.Dur)
		}
	case AckStall:
		r.ackStallNs += int64(e.Dur)
	case LinkRetransmit:
		r.retransmits++
		r.pendingRetrans++
	case LinkNak:
		r.naks++
	case FaultDrop:
		r.drops++
	case FaultCorrupt:
		r.corrupts++
	case LinkDown:
		r.down = true
	case VChanChunk:
		// Attribute the flow to the logical channel, not just the wire:
		// the chunk's sender knows both the link and the vchan.
		if r.src == "" {
			r.src = e.Node
		}
		r.link = e.Link
		r.vc = int(e.Arg)
	case VChanDeliver:
		r.dst = e.Node
		r.bytes = e.Bytes
	}
}

// FlowDoc is the JSON document the table exports.  Every duration is an
// integer nanosecond count so the document is byte-stable.
type FlowDoc struct {
	// EndNs is the run's end-to-end completion time.
	EndNs int64 `json:"end_ns"`
	// Flows lists every flow in discovery (merged stream) order.
	Flows []FlowInfo `json:"flows"`
	// Histograms aggregates completion latency per channel/link key,
	// sorted by key.
	Histograms []FlowHistogram `json:"histograms"`
	// CriticalPath is the chronological chain of spans covering
	// [0, EndNs] with no gaps: its durations sum to exactly EndNs.
	CriticalPath []PathSpan `json:"critical_path"`
	// CriticalPathNs is that sum, restated for consumers.
	CriticalPathNs int64 `json:"critical_path_ns"`
}

// FlowInfo is one flow's record.
type FlowInfo struct {
	ID   uint64 `json:"id"`
	Name string `json:"name"`
	Kind string `json:"kind"` // "chan" or "link"
	Src  string `json:"src"`
	Dst  string `json:"dst"` // "" when the far end is a host device
	Link int    `json:"link"`
	Addr uint64 `json:"addr"`

	Bytes   int   `json:"bytes"`
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`

	// Span components.  Queue is the wait between the sender's
	// transfer start and the first bit on the wire; Wire and Retrans
	// split data-packet wire time into first transmissions and
	// retransmissions; Ack is acknowledge/NAK wire time; AckStall is
	// sender dead time waiting for acknowledges; Wait is the
	// rendezvous wait of an internal channel flow.
	QueueNs    int64 `json:"queue_ns"`
	WireNs     int64 `json:"wire_ns"`
	RetransNs  int64 `json:"retrans_ns"`
	AckNs      int64 `json:"ack_ns"`
	AckStallNs int64 `json:"ack_stall_ns"`
	WaitNs     int64 `json:"wait_ns"`

	Retransmits int    `json:"retransmits"`
	Naks        int    `json:"naks"`
	Drops       int    `json:"drops"`
	Corrupts    int    `json:"corrupts"`
	Down        bool   `json:"down"`
	Loc         string `json:"loc,omitempty"` // occam source of the send site
}

// FlowHistogram is the completion-latency distribution of one channel
// or link (nearest-rank percentiles).
type FlowHistogram struct {
	Key   string `json:"key"`
	Count int    `json:"count"`
	Bytes int64  `json:"bytes"`
	P50Ns int64  `json:"p50_ns"`
	P95Ns int64  `json:"p95_ns"`
	P99Ns int64  `json:"p99_ns"`
	MaxNs int64  `json:"max_ns"`
}

// PathSpan is one hop of the critical path: either a flow crossing to
// the node where the next span continues, or the compute (and idle)
// time a node spent between flows.
type PathSpan struct {
	Node    string `json:"node"`
	What    string `json:"what"` // "compute" or the flow's name
	FlowID  uint64 `json:"flow_id,omitempty"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	Loc     string `json:"loc,omitempty"`
}

// appendKey appends the grouping identity for naming and histograms:
// "src ch@0xaddr" for a channel, "src.Llink[.vchan]>dst" for a link.
func (r *flowRec) appendKey(b []byte) []byte {
	b = append(b, r.src...)
	if r.isChan {
		return strconv.AppendUint(append(b, " ch@0x"...), r.addr, 16)
	}
	b = strconv.AppendInt(append(b, ".L"...), int64(r.link), 10)
	if r.vc >= 0 {
		b = strconv.AppendInt(append(b, ".v"...), int64(r.vc), 10)
	}
	if r.dst == "" {
		return append(b, ">ext"...)
	}
	return append(append(b, '>'), r.dst...)
}

// Finish freezes the table at the run's end time and builds the
// document.
func (t *FlowTable) Finish(end sim.Time) {
	doc := &FlowDoc{EndNs: int64(end)}

	// One pass builds each flow's record, names it "<key>#<ordinal>" in
	// discovery order and files its latency under its key.
	type group struct {
		key   string
		lat   []int64
		bytes int64
	}
	groups := map[string]*group{}
	var byKey []*group
	var key []byte
	if len(t.order) > 0 {
		doc.Flows = make([]FlowInfo, 0, len(t.order))
	}
	for _, r := range t.order {
		key = r.appendKey(key[:0])
		g := groups[string(key)]
		if g == nil {
			g = &group{key: string(key)}
			groups[g.key] = g
			byKey = append(byKey, g)
		}
		g.lat = append(g.lat, int64(r.end-r.start))
		g.bytes += int64(r.bytes)
		r.name = g.key + "#" + strconv.Itoa(len(g.lat))
		fi := FlowInfo{
			ID:   r.id,
			Name: r.name,
			Kind: "link",
			Src:  r.src,
			Dst:  r.dst,
			Link: r.link,
			Addr: r.addr,

			Bytes:   r.bytes,
			StartNs: int64(r.start),
			EndNs:   int64(r.end),

			WireNs:     r.wireNs,
			RetransNs:  r.retransNs,
			AckNs:      r.ackNs,
			AckStallNs: r.ackStallNs,

			Retransmits: r.retransmits,
			Naks:        r.naks,
			Drops:       r.drops,
			Corrupts:    r.corrupts,
			Down:        r.down,
		}
		if r.isChan {
			fi.Kind = "chan"
			if r.hasRendez {
				fi.WaitNs = int64(r.rendezvous - r.start)
			}
		} else if r.hasData && r.firstData > r.xferStart {
			fi.QueueNs = int64(r.firstData - r.xferStart)
		}
		if t.Resolve != nil && r.startIP != 0 {
			fi.Loc = t.Resolve(r.startNode, r.startIP)
		}
		doc.Flows = append(doc.Flows, fi)
	}

	// Latency histograms per key, sorted by key for stable output.
	slices.SortFunc(byKey, func(a, b *group) int { return strings.Compare(a.key, b.key) })
	for _, g := range byKey {
		slices.Sort(g.lat)
		doc.Histograms = append(doc.Histograms, FlowHistogram{
			Key:   g.key,
			Count: len(g.lat),
			Bytes: g.bytes,
			P50Ns: rank(g.lat, 50),
			P95Ns: rank(g.lat, 95),
			P99Ns: rank(g.lat, 99),
			MaxNs: g.lat[len(g.lat)-1],
		})
	}

	doc.CriticalPath = t.criticalPath(end)
	for _, s := range doc.CriticalPath {
		doc.CriticalPathNs += s.DurNs
	}
	t.doc = doc
}

// rank returns the nearest-rank percentile of a sorted slice.
func rank(sorted []int64, pct int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := (pct*len(sorted) + 99) / 100 // ceil(pct/100 * n)
	if i < 1 {
		i = 1
	}
	if i > len(sorted) {
		i = len(sorted)
	}
	return sorted[i-1]
}

// criticalPath walks backward from the run's end at the node of the
// globally latest event.  At each step it finds the latest-ending flow
// that arrived at the current node before the current instant, charges
// the gap since that arrival to the node as compute, crosses the flow
// back to its origin, and repeats; the walk terminates with the
// origin's compute span from time zero.  The spans tile [0, end] with
// no gaps or overlaps, so their durations sum exactly to the
// end-to-end completion time.
func (t *FlowTable) criticalPath(end sim.Time) []PathSpan {
	// Index flows by the node their last event landed on, each node's in
	// the order a step ranks them: by end, then start, then identity
	// descending.  The flow a step takes is then the last one that ended
	// by the current instant and started before it.
	byEnd := slices.Clone(t.order)
	slices.SortFunc(byEnd, func(a, b *flowRec) int {
		return cmp.Or(cmp.Compare(a.end, b.end), cmp.Compare(a.start, b.start), cmp.Compare(b.id, a.id))
	})
	arrivals := map[string][]*flowRec{}
	for _, r := range byEnd {
		arrivals[r.endNode] = append(arrivals[r.endNode], r)
	}

	var rev []PathSpan
	node := t.lastNode
	tcur := end
	for {
		var best *flowRec
		rs := arrivals[node]
		for i := sort.Search(len(rs), func(i int) bool { return rs[i].end > tcur }) - 1; i >= 0; i-- {
			if rs[i].start < tcur {
				best = rs[i]
				break
			}
		}
		if best == nil {
			rev = append(rev, PathSpan{Node: node, What: "compute",
				StartNs: 0, DurNs: int64(tcur)})
			break
		}
		if best.end < tcur {
			rev = append(rev, PathSpan{Node: node, What: "compute",
				StartNs: int64(best.end), DurNs: int64(tcur - best.end)})
		}
		sp := PathSpan{Node: best.startNode, What: best.name, FlowID: best.id,
			StartNs: int64(best.start), DurNs: int64(best.end - best.start)}
		if t.Resolve != nil && best.startIP != 0 {
			sp.Loc = t.Resolve(best.startNode, best.startIP)
		}
		rev = append(rev, sp)
		tcur = best.start
		node = best.startNode
	}
	slices.Reverse(rev)
	return rev
}

// Doc returns the document built by Finish.
func (t *FlowTable) Doc() *FlowDoc { return t.doc }

// WriteJSON streams the document built by Finish through a bounded
// buffer and stops at the first write error.
func (t *FlowTable) WriteJSON(w io.Writer) error { return writeFlowDoc(w, t.doc) }

// writeFlowDoc writes byte for byte what a json.Encoder with
// SetIndent("", " ") writes for the document (flow_ref_test.go keeps
// that encoder): members in declaration order, the omitempty ones left
// out when zero, null for a nil slice.
func writeFlowDoc(w io.Writer, doc *FlowDoc) error {
	d := docEnc{out: newOut(w)}
	if doc == nil {
		d.b = append(d.b, "null\n"...)
		return d.flush()
	}
	d.open('{')
	d.int("end_ns", doc.EndNs)
	docArray(&d, "flows", doc.Flows, func(f *FlowInfo) {
		d.uint("id", f.ID)
		d.str("name", f.Name)
		d.str("kind", f.Kind)
		d.str("src", f.Src)
		d.str("dst", f.Dst)
		d.int("link", int64(f.Link))
		d.uint("addr", f.Addr)
		d.int("bytes", int64(f.Bytes))
		d.int("start_ns", f.StartNs)
		d.int("end_ns", f.EndNs)
		d.int("queue_ns", f.QueueNs)
		d.int("wire_ns", f.WireNs)
		d.int("retrans_ns", f.RetransNs)
		d.int("ack_ns", f.AckNs)
		d.int("ack_stall_ns", f.AckStallNs)
		d.int("wait_ns", f.WaitNs)
		d.int("retransmits", int64(f.Retransmits))
		d.int("naks", int64(f.Naks))
		d.int("drops", int64(f.Drops))
		d.int("corrupts", int64(f.Corrupts))
		d.key("down")
		d.b = strconv.AppendBool(d.b, f.Down)
		if f.Loc != "" {
			d.str("loc", f.Loc)
		}
	})
	docArray(&d, "histograms", doc.Histograms, func(h *FlowHistogram) {
		d.str("key", h.Key)
		d.int("count", int64(h.Count))
		d.int("bytes", h.Bytes)
		d.int("p50_ns", h.P50Ns)
		d.int("p95_ns", h.P95Ns)
		d.int("p99_ns", h.P99Ns)
		d.int("max_ns", h.MaxNs)
	})
	docArray(&d, "critical_path", doc.CriticalPath, func(s *PathSpan) {
		d.str("node", s.Node)
		d.str("what", s.What)
		if s.FlowID != 0 {
			d.uint("flow_id", s.FlowID)
		}
		d.int("start_ns", s.StartNs)
		d.int("dur_ns", s.DurNs)
		if s.Loc != "" {
			d.str("loc", s.Loc)
		}
	})
	d.int("critical_path_ns", doc.CriticalPathNs)
	d.close('}')
	d.b = append(d.b, '\n')
	return d.flush()
}

// out is the buffer the timeline and flow renderers append to: b goes
// to w whenever an element leaves it flushLen long, so a render holds
// 64 KiB whatever it renders.  Nothing is written after a write error.
type out struct {
	w   io.Writer
	b   []byte
	err error
}

// flushLen leaves 4 KiB of capacity for the element that crosses it.
const flushLen = 60 << 10

func newOut(w io.Writer) *out { return &out{w: w, b: make([]byte, 0, 64<<10)} }

// flush writes the buffer out and returns the first write error so far.
func (o *out) flush() error {
	if o.err == nil {
		_, o.err = o.w.Write(o.b)
	}
	o.b = o.b[:0]
	return o.err
}

// appendJSONString appends s quoted as encoding/json quotes it, with
// its HTML escaping of <, > and & (a link flow's name has a '>').  A
// string with a quote, a backslash, a control character or a byte
// outside ASCII goes through encoding/json itself.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	start := len(b)
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '<' || c == '>' || c == '&':
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
		case c < ' ' || c >= 0x80 || c == '"' || c == '\\':
			q, _ := json.Marshal(s) // a string always marshals
			return append(b[:start], q...)
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}

// docEnc appends a document in the layout of a json.Encoder with
// SetIndent("", " "): every member and element on its own line, one
// space of indent a level, ": " after a key, "[]" for an empty array.
type docEnc struct {
	*out
	depth int
	first bool // nothing is written yet inside the innermost bracket
}

// line starts the line of the next member or element.
func (d *docEnc) line() {
	if !d.first {
		d.b = append(d.b, ',')
	}
	d.first = false
	d.b = append(append(d.b, '\n'), "    "[:d.depth]...)
}

func (d *docEnc) open(bracket byte) { d.b, d.first = append(d.b, bracket), true; d.depth++ }

func (d *docEnc) close(bracket byte) {
	d.depth--
	if !d.first {
		d.b = append(append(d.b, '\n'), "    "[:d.depth]...)
	}
	d.b, d.first = append(d.b, bracket), false
}

func (d *docEnc) key(k string) {
	d.line()
	d.b = append(append(append(d.b, '"'), k...), `": `...)
}

func (d *docEnc) int(k string, v int64)   { d.key(k); d.b = strconv.AppendInt(d.b, v, 10) }
func (d *docEnc) uint(k string, v uint64) { d.key(k); d.b = strconv.AppendUint(d.b, v, 10) }
func (d *docEnc) str(k, v string)         { d.key(k); d.b = appendJSONString(d.b, v) }

// docArray writes member k as an array of objects, members writing
// each one's, and flushes between elements; nothing after a write error.
func docArray[T any](d *docEnc, k string, s []T, members func(*T)) {
	if d.err != nil {
		return
	}
	d.key(k)
	if s == nil {
		d.b = append(d.b, "null"...)
		return
	}
	d.open('[')
	for i := range s {
		d.line()
		d.open('{')
		members(&s[i])
		d.close('}')
		if len(d.b) >= flushLen && d.flush() != nil {
			return
		}
	}
	d.close(']')
}

// Report prints the summary tables; top bounds the slowest-flows list
// (0 means all).
func (t *FlowTable) Report(w io.Writer, top int) { t.doc.Report(w, top) }

// ReadFlowDoc parses a document written by WriteJSON.
func ReadFlowDoc(r io.Reader) (*FlowDoc, error) {
	var doc FlowDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

// Report prints the flow summary: per-key latency histograms, the
// critical path, and the slowest flows (top bounds the list; 0 means
// all).
func (d *FlowDoc) Report(w io.Writer, top int) {
	fmt.Fprintf(w, "flow tracing: %d flows, end-to-end %v\n",
		len(d.Flows), sim.Time(d.EndNs))
	if len(d.Histograms) > 0 {
		fmt.Fprintf(w, "  latency by channel/link (count p50 p95 p99 max):\n")
		for _, h := range d.Histograms {
			fmt.Fprintf(w, "    %-24s %5d  %10v %10v %10v %10v\n", h.Key, h.Count,
				sim.Time(h.P50Ns), sim.Time(h.P95Ns), sim.Time(h.P99Ns), sim.Time(h.MaxNs))
		}
	}
	fmt.Fprintf(w, "  critical path (%d spans, sums to %v):\n",
		len(d.CriticalPath), sim.Time(d.CriticalPathNs))
	for _, s := range d.CriticalPath {
		loc := ""
		if s.Loc != "" {
			loc = "  (" + s.Loc + ")"
		}
		what := s.What
		if s.What == "compute" {
			what = "compute " + s.Node
		}
		fmt.Fprintf(w, "    %10v  %-28s %10v%s\n",
			sim.Time(s.StartNs), what, sim.Time(s.DurNs), loc)
	}
	if slow := d.slowest(top); len(slow) > 0 {
		fmt.Fprintf(w, "  slowest flows (latency bytes wire retrans ack-stall):\n")
		for _, f := range slow {
			tail := ""
			if f.Retransmits > 0 || f.Naks > 0 || f.Drops > 0 {
				tail = fmt.Sprintf("  [%d retrans, %d naks, %d drops]",
					f.Retransmits, f.Naks, f.Drops)
			}
			if f.Down {
				tail += "  LINK DOWN"
			}
			loc := ""
			if f.Loc != "" {
				loc = "  (" + f.Loc + ")"
			}
			fmt.Fprintf(w, "    %-24s %10v %6d %10v %10v %10v%s%s\n",
				f.Name, sim.Time(f.EndNs-f.StartNs), f.Bytes,
				sim.Time(f.WireNs), sim.Time(f.RetransNs), sim.Time(f.AckStallNs), loc, tail)
		}
	}
}

// slowerFlow orders flows slowest first, ties by ascending ID.
func slowerFlow(a, b *FlowInfo) int {
	return cmp.Or(cmp.Compare(b.EndNs-b.StartNs, a.EndNs-a.StartNs), cmp.Compare(a.ID, b.ID))
}

// slowest returns the top slowest flows in slowerFlow order, flows that
// tie in document order (top 0 or past the count: every flow).  A short
// list is picked in one pass: each flow is inserted after every kept one
// it does not precede, and drops off the end once top are kept.
func (d *FlowDoc) slowest(top int) []*FlowInfo {
	if top <= 0 || top >= len(d.Flows) {
		slow := make([]*FlowInfo, len(d.Flows))
		for i := range d.Flows {
			slow[i] = &d.Flows[i]
		}
		slices.SortStableFunc(slow, slowerFlow)
		return slow
	}
	slow := make([]*FlowInfo, 0, top)
	for i := range d.Flows {
		f := &d.Flows[i]
		if len(slow) == top && slowerFlow(f, slow[top-1]) >= 0 {
			continue
		}
		j := sort.Search(len(slow), func(j int) bool { return slowerFlow(f, slow[j]) < 0 })
		if len(slow) < top {
			slow = append(slow, nil)
		}
		copy(slow[j+1:], slow[j:])
		slow[j] = f
	}
	return slow
}
