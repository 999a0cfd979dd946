package probe

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"

	"transputer/internal/sim"
)

// RefWriteFlowJSON is the writer FlowTable.WriteJSON replaced: the whole
// document through one reflective, indenting encoding/json encoder.
// The streaming writer in flow.go has to write the same bytes.  It is
// exported, in the tests only, to the external test package that can
// import a whole network.
func RefWriteFlowJSON(doc *FlowDoc, w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// refCriticalPath is the walk criticalPath replaced: each step rescans
// every flow that ended at the current node for the one that ended
// latest before the current instant.  Call it after Finish, which
// numbers the flows within their keys.
func refCriticalPath(t *FlowTable, end sim.Time) []PathSpan {
	arrivals := map[string][]*flowRec{}
	for i := 0; i < t.n; i++ {
		r := t.rec(i)
		arrivals[t.nodeName(r, endNode)] = append(arrivals[t.nodeName(r, endNode)], r)
	}
	var rev []PathSpan
	node := t.lastNode
	tcur := end
	for {
		var best *flowRec
		for _, r := range arrivals[node] {
			if r.end > tcur || r.start >= tcur {
				continue
			}
			if best == nil || r.end > best.end ||
				(r.end == best.end && (r.start > best.start ||
					(r.start == best.start && r.id < best.id))) {
				best = r
			}
		}
		if best == nil {
			rev = append(rev, PathSpan{Node: node, What: "compute", StartNs: 0, DurNs: int64(tcur)})
			break
		}
		if best.end < tcur {
			rev = append(rev, PathSpan{Node: node, What: "compute",
				StartNs: int64(best.end), DurNs: int64(tcur - best.end)})
		}
		start := t.nodeName(best, startNode)
		sp := PathSpan{Node: start, What: string(t.appendName(nil, best)), FlowID: best.id,
			StartNs: int64(best.start), DurNs: int64(best.end - best.start)}
		if t.Resolve != nil && best.startIP != 0 {
			sp.Loc = t.Resolve(start, best.startIP)
		}
		rev = append(rev, sp)
		tcur = best.start
		node = start
	}
	slices.Reverse(rev)
	return rev
}

// refSlowest is the selection FlowDoc.slowest replaced: a stable sort of
// every flow, cut to top.
func refSlowest(d *FlowDoc, top int) []*FlowInfo {
	slow := make([]*FlowInfo, len(d.Flows))
	for i := range d.Flows {
		slow[i] = &d.Flows[i]
	}
	slices.SortStableFunc(slow, func(a, b *FlowInfo) int {
		return cmp.Or(cmp.Compare(b.EndNs-b.StartNs, a.EndNs-a.StartNs), cmp.Compare(a.ID, b.ID))
	})
	if top > 0 && len(slow) > top {
		slow = slow[:top]
	}
	return slow
}

// RefReport is the report writer FlowTable.Report and FlowDoc.Report
// replaced: fmt verbs over a built document.  The append writer in
// flow.go has to print the same bytes.  It is exported, in the tests
// only, to the external test package.
func RefReport(d *FlowDoc, w io.Writer, top int) {
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
	if slow := refSlowest(d, top); len(slow) > 0 {
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

// RefFlows is the accumulation FlowTable's compact records replaced:
// one struct of full-width fields and node names a flow, in discovery
// order, named and rendered as Finish and Doc name and render them.
// Doc's flows have to be these, for any stream.  It is exported, in the
// tests only, to the external test package.
func RefFlows(evs []Event, resolve func(node string, iptr uint64) string) []FlowInfo {
	type rec struct {
		id                        uint64
		start, end                sim.Time
		startNode, endNode        string
		startIP, addr             uint64
		isChan, hasData, hasRendz bool
		link, vc, bytes           int
		src, dst                  string
		xferStart, firstData      sim.Time
		rendezvous                sim.Time
		wireNs, retransNs, ackNs  int64
		ackStallNs                int64
		pendingRetrans            int
		retransmits, naks, drops  int
		corrupts                  int
		down                      bool
	}
	var order []*rec
	byID := map[uint64]*rec{}
	for i := range evs {
		e := &evs[i]
		if e.Flow == 0 {
			continue
		}
		r := byID[e.Flow]
		if r == nil {
			r = &rec{id: e.Flow, start: e.Time, startNode: e.Node, link: -1, vc: -1}
			byID[e.Flow] = r
			order = append(order, r)
		}
		r.end, r.endNode = e.Time, e.Node
		switch e.Kind {
		case ChanBlock:
			r.isChan, r.addr, r.src, r.dst = true, e.Addr, e.Node, e.Node
			if r.startIP == 0 {
				r.startIP = e.IP
			}
		case ChanRendezvous:
			r.isChan, r.addr = true, e.Addr
			if r.src == "" {
				r.src, r.dst = e.Node, e.Node
			}
			if r.startIP == 0 {
				r.startIP = e.IP
			}
			r.rendezvous, r.hasRendz, r.bytes = e.Time, true, e.Bytes
		case LinkXferStart:
			if e.Out {
				r.src, r.link, r.bytes, r.xferStart = e.Node, e.Link, e.Bytes, e.Time
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
				r.hasData, r.firstData = true, e.Time
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
			if r.src == "" {
				r.src = e.Node
			}
			r.link, r.vc = e.Link, int(e.Arg)
		case VChanDeliver:
			r.dst, r.bytes = e.Node, e.Bytes
		}
	}
	var flows []FlowInfo
	count := map[string]int{}
	for _, r := range order {
		key := r.src + " ch@0x" + strconv.FormatUint(r.addr, 16)
		if !r.isChan {
			key = r.src + ".L" + strconv.Itoa(r.link)
			if r.vc >= 0 {
				key += ".v" + strconv.Itoa(r.vc)
			}
			if r.dst == "" {
				key += ">ext"
			} else {
				key += ">" + r.dst
			}
		}
		count[key]++
		f := FlowInfo{ID: r.id, Name: key + "#" + strconv.Itoa(count[key]), Kind: "link",
			Src: r.src, Dst: r.dst, Link: r.link, Addr: r.addr, Bytes: r.bytes,
			StartNs: int64(r.start), EndNs: int64(r.end),
			WireNs: r.wireNs, RetransNs: r.retransNs, AckNs: r.ackNs, AckStallNs: r.ackStallNs,
			Retransmits: r.retransmits, Naks: r.naks, Drops: r.drops, Corrupts: r.corrupts, Down: r.down}
		if r.isChan {
			f.Kind = "chan"
			if r.hasRendz {
				f.WaitNs = int64(r.rendezvous - r.start)
			}
		} else if r.hasData && r.firstData > r.xferStart {
			f.QueueNs = int64(r.firstData - r.xferStart)
		}
		if resolve != nil && r.startIP != 0 {
			f.Loc = resolve(r.startNode, r.startIP)
		}
		flows = append(flows, f)
	}
	return flows
}
