package probe

import (
	"cmp"
	"encoding/json"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

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
	// The flows' records, by value, flowChunk to a chunk, in discovery
	// (merged stream) order: a flow's number is its place in that
	// order.  cold holds the records' cold parts (flowRec.cold).
	chunks [][]flowRec
	n      int
	cold   []flowCold

	// A flow is found by its identity in dense[origin][seq] when the
	// network minted it (origin a node's ordinal, seq counting up from
	// one), and in sparse when the identity has any other shape.  Both
	// hold one more than the flow's number, so zero is no flow.
	dense  [][]uint32
	sparse map[uint64]uint32

	// nodes numbers the node names the records hold; "" is number 0.
	nodes nodeTable

	// last is the flow of the previous event that had one: a flow's
	// packets mostly follow each other.
	last *flowRec

	// lastNode/lastTime track the globally latest event of the run —
	// the critical path is walked backward from there.
	lastNode string
	lastTime sim.Time

	// Resolve, when set, maps (node, instruction pointer) to an occam
	// source location used to annotate flows and the critical path.
	Resolve func(node string, iptr uint64) string

	// sum is what Finish keeps beside each record's ordinal: the
	// document but its flows, which are rendered from the records.  It
	// is nil before Finish.
	sum *FlowDoc
}

// flowChunk is the number of records in a chunk.
const flowChunk = 256

// flowRec accumulates one flow's events.  It holds, narrowed, what
// every flow sets: a node is its number in the table's nodes, and
// bytes, link and vc take the few bits real traffic needs.  A value
// that does not fit its slot leaves the slot's escape there and goes to
// the cold part, with the counts only reliable or faulty links set.
type flowRec struct {
	id      uint64
	start   sim.Time
	end     sim.Time
	startIP uint64

	// A channel flow's channel word and rendezvous instant share the
	// words of a link flow's transfer start (the sender's LinkXferStart)
	// and first data packet; hasMark says the second is set.
	at   uint64
	mark sim.Time

	wireNs int64 // first-transmission data packet time
	ackNs  int64 // acknowledge/NAK packet time

	bytes int32
	cold  uint32    // one more than the index of the cold part; 0 for none
	ord   uint32    // the ordinal in the flow's name, set by Finish
	node  [4]uint16 // by slot: endNode, srcNode, dstNode, startNode
	link  int16     // sender's link index (link flows)
	vc    int8      // virtual channel on that link; -1 when unmultiplexed
	flags uint8
}

// flowRec.flags.
const (
	isChan  = 1 << iota // a channel flow: at and mark are addr and rendezvous
	hasMark             // mark is set
)

// The narrowed fields of a record, by their index in flowCold.wide;
// the first four are flowRec.node's slots.
const (
	endNode   = iota // the node of the flow's latest event
	srcNode          // the sender
	dstNode          // the receiver; "" when the far end is a host
	startNode        // the node of the flow's first event
	bytesField
	linkField
	vcField
	numNarrow
)

// Each narrowed field's escape: the slot holds it when the value is in
// the cold part.
const (
	wideNode  = math.MaxUint16
	wideBytes = math.MinInt32
	wideLink  = math.MinInt16
	wideVC    = math.MinInt8
)

// flowCold is the part of a record most flows never need: what only
// reliable or faulty links count, and the values too wide for their
// slots in the record.
type flowCold struct {
	retransNs  int64 // retransmitted data packet time
	ackStallNs int64 // sender dead time waiting for acks

	pendingRetrans int
	retransmits    int
	naks           int
	drops          int
	corrupts       int
	down           bool

	wide [numNarrow]int
}

// NewFlowTable subscribes a fresh flow table to the bus.
func NewFlowTable(b *Bus) *FlowTable {
	t := &FlowTable{sparse: make(map[uint64]uint32)}
	t.nodes.intern("") // number 0, a zero record's every node
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

// rec returns flow number i's record.
func (t *FlowTable) rec(i int) *flowRec { return &t.chunks[uint(i)/flowChunk][uint(i)%flowChunk] }

// find returns the flow with the identity, nil if there is none yet.
func (t *FlowTable) find(id uint64) *flowRec {
	o, s := FlowOrigin(id), FlowSeq(id)
	var num uint32
	if o < uint64(len(t.dense)) && s < uint64(len(t.dense[o])) {
		num = t.dense[o][s]
	}
	if num == 0 {
		if num = t.sparse[id]; num == 0 {
			return nil
		}
	}
	return t.rec(int(num - 1))
}

// add files a new flow, first seen in e.
func (t *FlowTable) add(e *Event) *flowRec {
	c := len(t.chunks) - 1
	if c < 0 || len(t.chunks[c]) == flowChunk {
		t.chunks = append(t.chunks, make([]flowRec, 0, flowChunk))
		c++
	}
	t.chunks[c] = append(t.chunks[c], flowRec{id: e.Flow, start: e.Time, link: -1, vc: -1})
	r := &t.chunks[c][len(t.chunks[c])-1]
	t.setNode(r, startNode, t.nodes.intern(e.Node))
	t.n++
	num := uint32(t.n)
	o, s := FlowOrigin(e.Flow), FlowSeq(e.Flow)
	if o < denseOrigins {
		for uint64(len(t.dense)) <= o {
			t.dense = append(t.dense, nil)
		}
		if row := t.dense[o]; s < uint64(len(row))+denseGap {
			for uint64(len(row)) <= s {
				row = append(row, 0)
			}
			row[s] = num
			t.dense[o] = row
			return r
		}
	}
	t.sparse[e.Flow] = num
	return r
}

// coldOf returns the record's cold part, adding it at first use.
func (t *FlowTable) coldOf(r *flowRec) *flowCold {
	if r.cold == 0 {
		t.cold = append(t.cold, flowCold{})
		r.cold = uint32(len(t.cold))
	}
	return &t.cold[r.cold-1]
}

// setNarrow stores v, the value of narrowed field f, in its slot, or
// the slot's escape there and v in the cold part.
func setNarrow[T int8 | int16 | int32 | uint16](t *FlowTable, r *flowRec, slot *T, escape T, f, v int) {
	if n := T(v); int(n) == v && n != escape {
		*slot = n
		return
	}
	*slot = escape
	t.coldOf(r).wide[f] = v
}

// narrowed returns the value of narrowed field f, held in slot.
func narrowed[T int8 | int16 | int32 | uint16](t *FlowTable, r *flowRec, slot, escape T, f int) int {
	if slot != escape {
		return int(slot)
	}
	return t.cold[r.cold-1].wide[f]
}

func (t *FlowTable) setNode(r *flowRec, f, num int) {
	setNarrow(t, r, &r.node[f], wideNode, f, num)
}

func (t *FlowTable) nodeOf(r *flowRec, f int) int {
	return narrowed(t, r, r.node[f], wideNode, f)
}

func (t *FlowTable) nodeName(r *flowRec, f int) string { return t.nodes.names[t.nodeOf(r, f)] }

func (t *FlowTable) setBytes(r *flowRec, v int) { setNarrow(t, r, &r.bytes, wideBytes, bytesField, v) }
func (t *FlowTable) setLink(r *flowRec, v int)  { setNarrow(t, r, &r.link, wideLink, linkField, v) }
func (t *FlowTable) setVC(r *flowRec, v int)    { setNarrow(t, r, &r.vc, wideVC, vcField, v) }

func (t *FlowTable) bytesOf(r *flowRec) int { return narrowed(t, r, r.bytes, wideBytes, bytesField) }
func (t *FlowTable) linkOf(r *flowRec) int  { return narrowed(t, r, r.link, wideLink, linkField) }
func (t *FlowTable) vcOf(r *flowRec) int    { return narrowed(t, r, r.vc, wideVC, vcField) }

// toChan makes the flow a channel flow, whose at and mark are its
// channel word and rendezvous from now on.
func toChan(r *flowRec) {
	if r.flags&isChan == 0 {
		r.flags = r.flags&^hasMark | isChan
	}
}

func (t *FlowTable) consume(e *Event) {
	if e.Node != "" && e.Time >= t.lastTime {
		t.lastTime = e.Time
		t.lastNode = e.Node
	}
	if e.Flow == 0 {
		return
	}
	r := t.last
	if r == nil || r.id != e.Flow {
		if r = t.find(e.Flow); r == nil {
			r = t.add(e)
		}
		t.last = r
	}
	r.end = e.Time
	node := t.nodes.intern(e.Node)
	t.setNode(r, endNode, node)
	switch e.Kind {
	case ChanBlock:
		toChan(r)
		r.at = e.Addr
		t.setNode(r, srcNode, node)
		t.setNode(r, dstNode, node)
		if r.startIP == 0 {
			r.startIP = e.IP
		}
	case ChanRendezvous:
		toChan(r)
		r.at = e.Addr
		if t.nodeOf(r, srcNode) == 0 {
			t.setNode(r, srcNode, node)
			t.setNode(r, dstNode, node)
		}
		if r.startIP == 0 {
			r.startIP = e.IP
		}
		r.mark = e.Time
		r.flags |= hasMark
		t.setBytes(r, e.Bytes)
	case LinkXferStart:
		if e.Out {
			t.setNode(r, srcNode, node)
			t.setLink(r, e.Link)
			t.setBytes(r, e.Bytes)
			if r.flags&isChan == 0 {
				r.at = uint64(e.Time)
			}
			if r.startIP == 0 {
				r.startIP = e.IP
			}
		} else {
			t.setNode(r, dstNode, node)
		}
	case LinkXferEnd:
		if !e.Out {
			t.setNode(r, dstNode, node)
		}
	case FlowArrive:
		t.setNode(r, dstNode, node)
	case WirePacket:
		if e.Ack {
			r.ackNs += int64(e.Dur)
			break
		}
		if r.flags&(isChan|hasMark) == 0 {
			r.flags |= hasMark
			r.mark = e.Time
		}
		if r.cold != 0 && t.cold[r.cold-1].pendingRetrans > 0 {
			c := &t.cold[r.cold-1]
			c.pendingRetrans--
			c.retransNs += int64(e.Dur)
		} else {
			r.wireNs += int64(e.Dur)
		}
	case AckStall:
		t.coldOf(r).ackStallNs += int64(e.Dur)
	case LinkRetransmit:
		c := t.coldOf(r)
		c.retransmits++
		c.pendingRetrans++
	case LinkNak:
		t.coldOf(r).naks++
	case FaultDrop:
		t.coldOf(r).drops++
	case FaultCorrupt:
		t.coldOf(r).corrupts++
	case LinkDown:
		t.coldOf(r).down = true
	case VChanChunk:
		// Attribute the flow to the logical channel, not just the wire:
		// the chunk's sender knows both the link and the vchan.
		if t.nodeOf(r, srcNode) == 0 {
			t.setNode(r, srcNode, node)
		}
		t.setLink(r, e.Link)
		t.setVC(r, int(e.Arg))
	case VChanDeliver:
		t.setNode(r, dstNode, node)
		t.setBytes(r, e.Bytes)
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
func (t *FlowTable) appendKey(b []byte, r *flowRec) []byte {
	b = append(b, t.nodeName(r, srcNode)...)
	if r.flags&isChan != 0 {
		return strconv.AppendUint(append(b, " ch@0x"...), r.at, 16)
	}
	b = strconv.AppendInt(append(b, ".L"...), int64(t.linkOf(r)), 10)
	if vc := t.vcOf(r); vc >= 0 {
		b = strconv.AppendInt(append(b, ".v"...), int64(vc), 10)
	}
	if dst := t.nodeName(r, dstNode); dst != "" {
		return append(append(b, '>'), dst...)
	}
	return append(b, ">ext"...)
}

// appendName appends the flow's name, "<key>#<ordinal>"; Finish sets
// the ordinal.
func (t *FlowTable) appendName(b []byte, r *flowRec) []byte {
	return strconv.AppendUint(append(t.appendKey(b, r), '#'), uint64(r.ord), 10)
}

// Finish freezes the table at the run's end time: it numbers each flow
// within its key and keeps the histograms and the critical path.  The
// flows themselves are rendered from the records when asked for.
func (t *FlowTable) Finish(end sim.Time) {
	sum := &FlowDoc{EndNs: int64(end)}

	// One pass gives each flow its ordinal among its key's flows in
	// discovery order and files its latency under its key.
	type group struct {
		key   string
		lat   []int64
		bytes int64
	}
	groups := map[string]*group{}
	var byKey []*group
	var key []byte
	for i := 0; i < t.n; i++ {
		r := t.rec(i)
		key = t.appendKey(key[:0], r)
		g := groups[string(key)]
		if g == nil {
			g = &group{key: string(key)}
			groups[g.key] = g
			byKey = append(byKey, g)
		}
		g.lat = append(g.lat, int64(r.end-r.start))
		g.bytes += int64(t.bytesOf(r))
		r.ord = uint32(len(g.lat))
	}

	// Latency histograms per key, sorted by key for stable output.
	slices.SortFunc(byKey, func(a, b *group) int { return strings.Compare(a.key, b.key) })
	for _, g := range byKey {
		slices.Sort(g.lat)
		sum.Histograms = append(sum.Histograms, FlowHistogram{
			Key:   g.key,
			Count: len(g.lat),
			Bytes: g.bytes,
			P50Ns: rank(g.lat, 50),
			P95Ns: rank(g.lat, 95),
			P99Ns: rank(g.lat, 99),
			MaxNs: g.lat[len(g.lat)-1],
		})
	}

	sum.CriticalPath = t.criticalPath(end)
	for _, s := range sum.CriticalPath {
		sum.CriticalPathNs += s.DurNs
	}
	t.sum = sum
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
	byEnd := make([]*flowRec, 0, t.n)
	for i := 0; i < t.n; i++ {
		byEnd = append(byEnd, t.rec(i))
	}
	slices.SortFunc(byEnd, func(a, b *flowRec) int {
		return cmp.Or(cmp.Compare(a.end, b.end), cmp.Compare(a.start, b.start), cmp.Compare(b.id, a.id))
	})
	arrivals := make([][]*flowRec, len(t.nodes.names))
	for _, r := range byEnd {
		n := t.nodeOf(r, endNode)
		arrivals[n] = append(arrivals[n], r)
	}

	var rev []PathSpan
	var name []byte
	nodeName := t.lastNode
	node, ok := t.nodes.lookup(nodeName)
	tcur := end
	for {
		var best *flowRec
		var rs []*flowRec
		if ok {
			rs = arrivals[node]
		}
		for i := sort.Search(len(rs), func(i int) bool { return rs[i].end > tcur }) - 1; i >= 0; i-- {
			if rs[i].start < tcur {
				best = rs[i]
				break
			}
		}
		if best == nil {
			rev = append(rev, PathSpan{Node: nodeName, What: "compute",
				StartNs: 0, DurNs: int64(tcur)})
			break
		}
		if best.end < tcur {
			rev = append(rev, PathSpan{Node: nodeName, What: "compute",
				StartNs: int64(best.end), DurNs: int64(tcur - best.end)})
		}
		node, ok = t.nodeOf(best, startNode), true
		nodeName = t.nodes.names[node]
		name = t.appendName(name[:0], best)
		sp := PathSpan{Node: nodeName, What: string(name), FlowID: best.id,
			StartNs: int64(best.start), DurNs: int64(best.end - best.start)}
		if t.Resolve != nil && best.startIP != 0 {
			sp.Loc = t.Resolve(nodeName, best.startIP)
		}
		rev = append(rev, sp)
		tcur = best.start
	}
	slices.Reverse(rev)
	return rev
}

// flowSource is what the document writer and the report read: a
// finished table's records, or a document.
type flowSource interface {
	// summary returns the document but its flows: nil before Finish.
	summary() *FlowDoc
	flowCount() int
	// span returns what orders flow i among the slowest.
	span(i int) (id uint64, startNs, endNs int64)
	// flow sets f to flow i but its name, which it appends to name.
	flow(i int, f *FlowInfo, name []byte) []byte
}

func (t *FlowTable) summary() *FlowDoc { return t.sum }
func (t *FlowTable) flowCount() int    { return t.n }

func (t *FlowTable) span(i int) (uint64, int64, int64) {
	r := t.rec(i)
	return r.id, int64(r.start), int64(r.end)
}

func (t *FlowTable) flow(i int, f *FlowInfo, name []byte) []byte {
	r := t.rec(i)
	var c flowCold
	if r.cold != 0 {
		c = t.cold[r.cold-1]
	}
	*f = FlowInfo{
		ID:   r.id,
		Kind: "link",
		Src:  t.nodeName(r, srcNode),
		Dst:  t.nodeName(r, dstNode),
		Link: t.linkOf(r),

		Bytes:   t.bytesOf(r),
		StartNs: int64(r.start),
		EndNs:   int64(r.end),

		WireNs:     r.wireNs,
		RetransNs:  c.retransNs,
		AckNs:      r.ackNs,
		AckStallNs: c.ackStallNs,

		Retransmits: c.retransmits,
		Naks:        c.naks,
		Drops:       c.drops,
		Corrupts:    c.corrupts,
		Down:        c.down,
	}
	switch {
	case r.flags&isChan != 0:
		f.Kind = "chan"
		f.Addr = r.at
		if r.flags&hasMark != 0 {
			f.WaitNs = int64(r.mark - r.start)
		}
	case r.flags&hasMark != 0 && r.mark > sim.Time(r.at):
		f.QueueNs = int64(r.mark - sim.Time(r.at))
	}
	if t.Resolve != nil && r.startIP != 0 {
		f.Loc = t.Resolve(t.nodeName(r, startNode), r.startIP)
	}
	return t.appendName(name, r)
}

func (d *FlowDoc) summary() *FlowDoc { return d }
func (d *FlowDoc) flowCount() int    { return len(d.Flows) }

func (d *FlowDoc) span(i int) (uint64, int64, int64) {
	f := &d.Flows[i]
	return f.ID, f.StartNs, f.EndNs
}

func (d *FlowDoc) flow(i int, f *FlowInfo, name []byte) []byte {
	*f = d.Flows[i]
	return append(name, f.Name...)
}

// Doc builds the document: nil before Finish.  Each call builds a new
// one, its flows named.
func (t *FlowTable) Doc() *FlowDoc {
	if t.sum == nil {
		return nil
	}
	doc := *t.sum
	if t.n > 0 {
		doc.Flows = make([]FlowInfo, t.n)
		var name []byte
		for i := range doc.Flows {
			name = t.flow(i, &doc.Flows[i], name[:0])
			doc.Flows[i].Name = string(name)
		}
	}
	return &doc
}

// WriteJSON streams the document from the records through a bounded
// buffer and stops at the first write error; before Finish it writes
// null.
func (t *FlowTable) WriteJSON(w io.Writer) error { return writeFlowDoc(w, t) }

// writeFlowDoc writes byte for byte what a json.Encoder with
// SetIndent("", " ") writes for the source's document (flow_ref_test.go
// keeps that encoder): members in declaration order, the omitempty ones
// left out when zero, null for a nil slice.  A table's flows are never
// a nil slice but when there are none.
func writeFlowDoc(w io.Writer, src flowSource) error {
	d := docEnc{out: newOut(w)}
	sum := src.summary()
	if sum == nil {
		d.b = append(d.b, "null\n"...)
		return d.flush()
	}
	d.open('{')
	d.int("end_ns", sum.EndNs)
	n := src.flowCount()
	var f FlowInfo
	var name []byte
	docArray(&d, "flows", n, n == 0 && sum.Flows == nil, func(i int) {
		name = src.flow(i, &f, name[:0])
		d.uint("id", f.ID)
		d.key("name")
		d.b = appendJSONString(d.b, name)
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
	hs := sum.Histograms
	docArray(&d, "histograms", len(hs), hs == nil, func(i int) {
		h := &hs[i]
		d.str("key", h.Key)
		d.int("count", int64(h.Count))
		d.int("bytes", h.Bytes)
		d.int("p50_ns", h.P50Ns)
		d.int("p95_ns", h.P95Ns)
		d.int("p99_ns", h.P99Ns)
		d.int("max_ns", h.MaxNs)
	})
	path := sum.CriticalPath
	docArray(&d, "critical_path", len(path), path == nil, func(i int) {
		s := &path[i]
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
	d.int("critical_path_ns", sum.CriticalPathNs)
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
func appendJSONString[S string | []byte](b []byte, s S) []byte {
	const hex = "0123456789abcdef"
	start := len(b)
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '<' || c == '>' || c == '&':
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
		case c < ' ' || c >= 0x80 || c == '"' || c == '\\':
			q, _ := json.Marshal(string(s)) // a string always marshals
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

// docArray writes member k as an array of n objects, members writing
// element i's, or as null; it flushes between elements and writes
// nothing after a write error.
func docArray(d *docEnc, k string, n int, null bool, members func(i int)) {
	if d.err != nil {
		return
	}
	d.key(k)
	if null {
		d.b = append(d.b, "null"...)
		return
	}
	d.open('[')
	for i := 0; i < n; i++ {
		d.line()
		d.open('{')
		members(i)
		d.close('}')
		if len(d.b) >= flushLen && d.flush() != nil {
			return
		}
	}
	d.close(']')
}

// Report prints the summary tables, rendered from the records; top
// bounds the slowest-flows list (0 means all).  Before Finish it prints
// nothing.
func (t *FlowTable) Report(w io.Writer, top int) { writeReport(w, t, top) }

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
// all).  A nil document prints nothing.
func (d *FlowDoc) Report(w io.Writer, top int) { writeReport(w, d, top) }

// reportFlush is the length past which the report writes its buffer.
const reportFlush = 3 << 10

// writeReport is the one report writer, for a table and a document
// alike.  It writes what the fmt verbs in its comments write, through a
// small buffer, so that what it allocates does not grow with the flows.
func writeReport(w io.Writer, src flowSource, top int) {
	sum := src.summary()
	if sum == nil {
		return
	}
	o := &out{w: w, b: make([]byte, 0, 4<<10)}
	line := func(b []byte) {
		o.b = append(b, '\n')
		if len(o.b) >= reportFlush {
			o.flush()
		}
	}
	// "flow tracing: %d flows, end-to-end %v\n"
	b := strconv.AppendInt(append(o.b, "flow tracing: "...), int64(src.flowCount()), 10)
	line(sim.Time(sum.EndNs).AppendTo(append(b, " flows, end-to-end "...)))
	if len(sum.Histograms) > 0 {
		line(append(o.b, "  latency by channel/link (count p50 p95 p99 max):"...))
		for _, h := range sum.Histograms {
			// "    %-24s %5d  %10v %10v %10v %10v\n"
			b := padRight(append(o.b, "    "...), h.Key, 24)
			b = padInt(append(b, ' '), int64(h.Count), 5)
			b = padTime(append(b, "  "...), h.P50Ns, 10)
			b = padTime(append(b, ' '), h.P95Ns, 10)
			b = padTime(append(b, ' '), h.P99Ns, 10)
			line(padTime(append(b, ' '), h.MaxNs, 10))
		}
	}
	// "  critical path (%d spans, sums to %v):\n"
	b = strconv.AppendInt(append(o.b, "  critical path ("...), int64(len(sum.CriticalPath)), 10)
	line(append(sim.Time(sum.CriticalPathNs).AppendTo(append(b, " spans, sums to "...)), "):"...))
	for _, s := range sum.CriticalPath {
		// "    %10v  %-28s %10v%s\n", the node after "compute"
		b := padTime(append(o.b, "    "...), s.StartNs, 10)
		from := len(b)
		b = append(append(b, "  "...), s.What...)
		if s.What == "compute" {
			b = append(append(b, ' '), s.Node...)
		}
		b = padTime(append(padTo(b, from+2, 28), ' '), s.DurNs, 10)
		line(appendLoc(b, s.Loc))
	}
	if slow := slowest(src, top); len(slow) > 0 {
		line(append(o.b, "  slowest flows (latency bytes wire retrans ack-stall):"...))
		var f FlowInfo
		var name []byte
		for _, s := range slow {
			name = src.flow(s.i, &f, name[:0])
			// "    %-24s %10v %6d %10v %10v %10v%s%s\n"
			b := padRight(append(o.b, "    "...), name, 24)
			b = padTime(append(b, ' '), f.EndNs-f.StartNs, 10)
			b = padInt(append(b, ' '), int64(f.Bytes), 6)
			b = padTime(append(b, ' '), f.WireNs, 10)
			b = padTime(append(b, ' '), f.RetransNs, 10)
			b = appendLoc(padTime(append(b, ' '), f.AckStallNs, 10), f.Loc)
			if f.Retransmits > 0 || f.Naks > 0 || f.Drops > 0 {
				// "  [%d retrans, %d naks, %d drops]"
				b = strconv.AppendInt(append(b, "  ["...), int64(f.Retransmits), 10)
				b = strconv.AppendInt(append(b, " retrans, "...), int64(f.Naks), 10)
				b = append(strconv.AppendInt(append(b, " naks, "...), int64(f.Drops), 10), " drops]"...)
			}
			if f.Down {
				b = append(b, "  LINK DOWN"...)
			}
			line(b)
		}
	}
	o.flush()
}

// appendLoc appends "  (loc)" for a source location, nothing for none.
func appendLoc(b []byte, loc string) []byte {
	if loc == "" {
		return b
	}
	return append(append(append(b, "  ("...), loc...), ')')
}

// padTo pads b[from:] with spaces on the right to width runes, as fmt
// pads %-*s.
func padTo(b []byte, from, width int) []byte {
	for n := utf8.RuneCount(b[from:]); n < width; n++ {
		b = append(b, ' ')
	}
	return b
}

// padRight appends s left-aligned in width runes: fmt's %-*s.
func padRight[S string | []byte](b []byte, s S, width int) []byte {
	from := len(b)
	return padTo(append(b, s...), from, width)
}

// padLeft right-aligns b[from:] in width runes, as fmt pads %*v.
func padLeft(b []byte, from, width int) []byte {
	n := width - utf8.RuneCount(b[from:])
	if n <= 0 {
		return b
	}
	b = append(b, make([]byte, n)...)
	copy(b[from+n:], b[from:])
	for i := from; i < from+n; i++ {
		b[i] = ' '
	}
	return b
}

// padTime appends a duration in nanoseconds as sim.Time prints it,
// right-aligned in width runes: fmt's %*v.
func padTime(b []byte, ns int64, width int) []byte {
	return padLeft(sim.Time(ns).AppendTo(b), len(b), width)
}

// padInt appends v right-aligned in width runes: fmt's %*d.
func padInt(b []byte, v int64, width int) []byte {
	return padLeft(strconv.AppendInt(b, v, 10), len(b), width)
}

// slowFlow is a flow's place in the slowest-flows list: its number and
// what orders it.
type slowFlow struct {
	i   int
	lat int64
	id  uint64
}

// slowerFlow orders flows slowest first, ties by ascending ID.
func slowerFlow(a, b slowFlow) int {
	return cmp.Or(cmp.Compare(b.lat, a.lat), cmp.Compare(a.id, b.id))
}

// slowest returns the top slowest flows in slowerFlow order, flows that
// tie in document order (top 0 or past the count: every flow).  A short
// list is picked in one pass: each flow is inserted after every kept one
// it does not precede, and drops off the end once top are kept.
func slowest(src flowSource, top int) []slowFlow {
	n := src.flowCount()
	at := func(i int) slowFlow {
		id, start, end := src.span(i)
		return slowFlow{i: i, lat: end - start, id: id}
	}
	if top <= 0 || top >= n {
		slow := make([]slowFlow, n)
		for i := range slow {
			slow[i] = at(i)
		}
		slices.SortStableFunc(slow, slowerFlow)
		return slow
	}
	slow := make([]slowFlow, 0, top)
	for i := 0; i < n; i++ {
		f := at(i)
		if len(slow) == top && slowerFlow(f, slow[top-1]) >= 0 {
			continue
		}
		j := sort.Search(len(slow), func(j int) bool { return slowerFlow(f, slow[j]) < 0 })
		if len(slow) < top {
			slow = append(slow, slowFlow{})
		}
		copy(slow[j+1:], slow[j:])
		slow[j] = f
	}
	return slow
}
