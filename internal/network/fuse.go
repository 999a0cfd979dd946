package network

// Shard-fusion partitioning: deciding which nodes to co-locate on one
// event-queue shard.  The partition never changes results — fused and
// unfused runs are byte-identical — so the heuristics here optimise
// only simulator wall-clock: wires whose both ends share a shard stop
// bounding coordinator windows, turning a barrier-bound neighbourhood
// into straight-line event execution.

import "transputer/internal/sim"

// FuseEdge is one weighted undirected edge of the fusion graph: two
// node names and how much their co-location would save (observed wire
// traffic, see TrafficEdges).
type FuseEdge struct {
	A, B   string
	Weight uint64
}

// fuseMinDensityPerMs is the wire-activity density (data bytes plus
// protocol packets per millisecond of simulated time, both directions
// summed) below which adaptive fusion declines to merge an edge:
// fusing a quiet wire saves almost no barriers but still surrenders a
// parallel shard.  Busy links run at thousands of units/ms (a
// saturated 10 Mbit wire moves ~1250 bytes/ms), compute-bound ones at
// tens.
const fuseMinDensityPerMs = 200

// FuseTrafficFloor converts the adaptive-fusion density floor into an
// absolute TrafficEdges weight for a profile run that spanned the
// given simulated time.
func FuseTrafficFloor(span sim.Time) uint64 {
	ms := int64(span / sim.Millisecond)
	if ms < 1 {
		ms = 1
	}
	return uint64(ms) * fuseMinDensityPerMs
}

// GreedyFuse partitions nodes into at most maxParts groups by greedy
// edge contraction: repeatedly merge the two parts joined by the
// heaviest aggregate edge until the part count reaches maxParts or no
// remaining inter-part edge weighs at least minWeight.  Edges below
// minWeight never trigger a merge on their own, so an adaptive caller
// can pass the traffic level below which fusing is not worth losing a
// parallel shard (compute-heavy workloads then stay unfused).
//
// nodes must be in creation order; ties (equal weights) break toward
// the earliest-created parts, so the partition is deterministic.  The
// returned groups list every part, one-node parts included, each
// group's members in creation order, groups ordered by their earliest
// member — directly the SetPlacement input, and a complete one: what
// the planner decided holds at any worker count.
func GreedyFuse(nodes []string, edges []FuseEdge, maxParts int, minWeight uint64) [][]string {
	if maxParts < 1 {
		maxParts = 1
	}
	if minWeight < 1 {
		minWeight = 1
	}
	idx := make(map[string]int, len(nodes))
	for i, n := range nodes {
		idx[n] = i
	}
	// part[i] is the leader (smallest member index) of node i's part.
	part := make([]int, len(nodes))
	for i := range part {
		part[i] = i
	}
	find := func(i int) int {
		for part[i] != i {
			part[i] = part[part[i]]
			i = part[i]
		}
		return i
	}
	parts := len(nodes)
	for parts > maxParts {
		// Aggregate inter-part weights and pick the heaviest pair.  The
		// graphs are small (a network is tens of nodes), so recomputing
		// each round keeps the tie-break rule trivially deterministic.
		type pair struct{ a, b int }
		agg := make(map[pair]uint64)
		for _, e := range edges {
			ia, aok := idx[e.A]
			ib, bok := idx[e.B]
			if !aok || !bok {
				continue
			}
			a, b := find(ia), find(ib)
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
			agg[pair{a, b}] += e.Weight
		}
		best, bestW := pair{-1, -1}, uint64(0)
		//tvet:ignore detrange max-reduction with a total tie-break on (weight, pair), so the winner is iteration-order-free
		for p, w := range agg {
			if w > bestW || (w == bestW && bestW > 0 &&
				(p.a < best.a || (p.a == best.a && p.b < best.b))) {
				best, bestW = p, w
			}
		}
		if bestW < minWeight {
			break
		}
		// Merge into the smaller leader so leaders stay the earliest
		// member.
		part[best.b] = best.a
		parts--
	}
	members := make(map[int][]string)
	var leaders []int
	for i, n := range nodes {
		l := find(i)
		if len(members[l]) == 0 {
			leaders = append(leaders, l)
		}
		members[l] = append(members[l], n)
	}
	groups := make([][]string, len(leaders))
	for i, l := range leaders { // leaders appear in creation order already
		groups[i] = members[l]
	}
	return groups
}

// TrafficEdges returns the system's connections weighted by observed
// wire activity — data bytes plus protocol packets in both directions —
// for adaptive fusion from a profiling pre-run.  Connections that
// carried nothing are omitted.
func (s *System) TrafficEdges() []FuseEdge {
	order := make(map[*Node]int, len(s.nodes))
	for i, n := range s.nodes {
		order[n] = i
	}
	var edges []FuseEdge
	for _, n := range s.nodes {
		for l := 0; l < len(n.peers); l++ {
			pn, pl, ok := n.Peer(l)
			if !ok || pn == n || order[pn] < order[n] {
				continue
			}
			w := wireActivity(n, l) + wireActivity(pn, pl)
			if w == 0 {
				continue
			}
			edges = append(edges, FuseEdge{A: n.Name, B: pn.Name, Weight: w})
		}
	}
	return edges
}

func wireActivity(n *Node, l int) uint64 {
	st := n.Engine.WireStats(l)
	return st.DataBytes + st.Acks + st.Naks + st.Beats
}
