package probe

import (
	"cmp"
	"encoding/json"
	"io"
	"slices"

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
// latest before the current instant.  Call it after Finish, which names
// the flows.
func refCriticalPath(t *FlowTable, end sim.Time) []PathSpan {
	arrivals := map[string][]*flowRec{}
	for _, r := range t.order {
		arrivals[r.endNode] = append(arrivals[r.endNode], r)
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
