package probe

import (
	"fmt"
	"io"
	"slices"
	"sort"

	"transputer/internal/sim"
)

// Metrics aggregates the bus stream into per-node and per-link numbers:
// processor busy/idle/switching time, time-weighted run-queue depth per
// priority, link throughput, wire occupancy and ack-stall time.
type Metrics struct {
	// nodes[i] is the node that names numbers i.
	names nodeTable
	nodes []nodeMetrics
	end   sim.Time
}

type nodeMetrics struct {
	busy        sim.Time
	switching   sim.Time
	runningFrom sim.Time
	running     bool

	queues [2]queueMetrics
	// links holds every link the node's events named; fast repeats
	// links 0..numLinks-1 for the per-event lookup.
	links map[int]*linkMetrics
	fast  [numLinks]*linkMetrics

	dispatches, preempts, timeslices uint64
	rendezvous                       uint64
	rendezvousBytes                  uint64
	halted                           bool
	deadlocked                       uint64
}

// queueMetrics integrates run-queue depth over time.
type queueMetrics struct {
	depth     int
	max       int
	weighted  float64 // ∫ depth dt, in depth·ns
	lastStamp sim.Time
}

func (q *queueMetrics) set(depth int, at sim.Time) {
	q.weighted += float64(q.depth) * float64(at-q.lastStamp)
	q.lastStamp = at
	q.depth = depth
	if depth > q.max {
		q.max = depth
	}
}

// setQueue records a run-queue depth; a priority outside 0..1 has no
// queue and is left out.
func (n *nodeMetrics) setQueue(pri, depth int, at sim.Time) {
	if uint(pri) < uint(len(n.queues)) {
		n.queues[pri].set(depth, at)
	}
}

type linkMetrics struct {
	dataBytes uint64
	acks      uint64
	wireBusy  sim.Time
	ackStall  sim.Time
	bytesOut  uint64
	bytesIn   uint64
	xfers     uint64

	// Fault-injection and error-detecting-mode counters.
	drops       uint64
	corrupts    uint64
	delays      uint64
	delayed     sim.Time
	naks        uint64
	retransmits uint64
	down        bool
	severed     bool
}

// numLinks is a transputer's link count (core.NumLinks).
const numLinks = 4

// NewMetrics subscribes a fresh aggregator to the bus.
func NewMetrics(b *Bus) *Metrics {
	m := &Metrics{}
	b.SubscribeRef(m.consume)
	return m
}

// node returns the named node's metrics, adding them at first sight.
func (m *Metrics) node(name string) *nodeMetrics {
	i := m.names.intern(name)
	if i == len(m.nodes) {
		m.nodes = append(m.nodes, nodeMetrics{links: map[int]*linkMetrics{}})
	}
	return &m.nodes[i]
}

// lookup returns the named node's metrics, nil if no event named it.
func (m *Metrics) lookup(name string) *nodeMetrics {
	if i, ok := m.names.lookup(name); ok {
		return &m.nodes[i]
	}
	return nil
}

func (n *nodeMetrics) link(i int) *linkMetrics {
	if uint(i) < numLinks && n.fast[i] != nil {
		return n.fast[i]
	}
	l, ok := n.links[i]
	if !ok {
		l = &linkMetrics{}
		n.links[i] = l
	}
	if uint(i) < numLinks {
		n.fast[i] = l
	}
	return l
}

func (m *Metrics) consume(e *Event) {
	n := m.node(e.Node)
	if e.Time > m.end {
		m.end = e.Time
	}
	switch e.Kind {
	case ProcDispatch:
		if !n.running {
			n.running = true
			n.runningFrom = e.Time
		}
		n.dispatches++
		n.switching += e.Dur
		n.setQueue(e.Pri, e.Depth, e.Time)
	case ProcStop:
		if n.running {
			n.busy += e.Time - n.runningFrom
			n.running = false
		}
	case ProcReady:
		n.setQueue(e.Pri, e.Depth, e.Time)
	case Preempt:
		n.preempts++
		n.switching += e.Dur
	case Timeslice:
		n.timeslices++
	case ChanRendezvous:
		n.rendezvous++
		n.rendezvousBytes += uint64(e.Bytes)
	case LinkXferStart:
		l := n.link(e.Link)
		l.xfers++
		if e.Out {
			l.bytesOut += uint64(e.Bytes)
		} else {
			l.bytesIn += uint64(e.Bytes)
		}
	case WirePacket:
		l := n.link(e.Link)
		l.wireBusy += e.Dur
		if e.Ack {
			l.acks++
		} else {
			l.dataBytes++
		}
	case AckStall:
		n.link(e.Link).ackStall += e.Dur
	case FaultDrop:
		n.link(e.Link).drops++
	case FaultCorrupt:
		n.link(e.Link).corrupts++
	case FaultDelay:
		l := n.link(e.Link)
		l.delays++
		l.delayed += e.Dur
	case LinkNak:
		n.link(e.Link).naks++
	case LinkRetransmit:
		n.link(e.Link).retransmits++
	case LinkDown:
		n.link(e.Link).down = true
	case LinkSever:
		n.link(e.Link).severed = true
	case NodeHalt:
		n.halted = true
	case Deadlock:
		n.deadlocked++
	}
}

// Finish closes all open accounting intervals at the given end time
// (normally the simulation's final time).
func (m *Metrics) Finish(end sim.Time) {
	if end > m.end {
		m.end = end
	}
	for i := range m.nodes {
		n := &m.nodes[i]
		if n.running {
			n.busy += m.end - n.runningFrom
			n.running = false
		}
		for p := range n.queues {
			n.queues[p].set(n.queues[p].depth, m.end)
		}
	}
}

func pct(part, whole sim.Time) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// Report writes the text report.
func (m *Metrics) Report(w io.Writer) {
	fmt.Fprintf(w, "probe metrics over %v\n", m.end)
	names := slices.Clone(m.names.names)
	sort.Strings(names)
	for _, name := range names {
		n := m.lookup(name)
		total := m.end
		idle := total - n.busy
		if idle < 0 {
			idle = 0
		}
		fmt.Fprintf(w, "%s: busy %.1f%%  idle %.1f%%  switching %.2f%%\n",
			name, pct(n.busy, total), pct(idle, total), pct(n.switching, total))
		fmt.Fprintf(w, "  sched: %d dispatches, %d preemptions, %d timeslices; runq hi avg %.2f max %d, lo avg %.2f max %d\n",
			n.dispatches, n.preempts, n.timeslices,
			avgDepth(n.queues[0], total), n.queues[0].max,
			avgDepth(n.queues[1], total), n.queues[1].max)
		if n.rendezvous > 0 {
			fmt.Fprintf(w, "  channels: %d internal rendezvous, %d bytes\n",
				n.rendezvous, n.rendezvousBytes)
		}
		links := make([]int, 0, len(n.links))
		for i := range n.links {
			links = append(links, i)
		}
		sort.Ints(links)
		for _, i := range links {
			l := n.links[i]
			fmt.Fprintf(w, "  link %d: %d B out / %d B in (%d transfers), wire busy %.1f%% (%d data, %d acks), ack-stall %v\n",
				i, l.bytesOut, l.bytesIn, l.xfers,
				pct(l.wireBusy, total), l.dataBytes, l.acks, l.ackStall)
			if l.drops > 0 || l.corrupts > 0 || l.delays > 0 || l.severed {
				sever := ""
				if l.severed {
					sever = ", severed"
				}
				fmt.Fprintf(w, "  link %d faults: %d dropped, %d corrupted, %d delayed (%v)%s\n",
					i, l.drops, l.corrupts, l.delays, l.delayed, sever)
			}
			if l.retransmits > 0 || l.naks > 0 || l.down {
				state := "recovered"
				if l.down {
					state = "DOWN (retry budget exhausted)"
				}
				fmt.Fprintf(w, "  link %d reliable: %d retransmits, %d naks, %s\n",
					i, l.retransmits, l.naks, state)
			}
		}
		if n.halted {
			fmt.Fprintf(w, "  halted by fault injection\n")
		}
		if n.deadlocked > 0 {
			fmt.Fprintf(w, "  watchdog: %d process(es) blocked at end of run\n", n.deadlocked)
		}
	}
}

// Retransmits returns the error-detecting-mode retransmission count of
// one link (for tests and campaign assertions).
func (m *Metrics) Retransmits(node string, link int) uint64 {
	if n := m.lookup(node); n != nil {
		if l, ok := n.links[link]; ok {
			return l.retransmits
		}
	}
	return 0
}

// FaultCounts returns the injected drop/corrupt/delay totals of one
// link.
func (m *Metrics) FaultCounts(node string, link int) (drops, corrupts, delays uint64) {
	if n := m.lookup(node); n != nil {
		if l, ok := n.links[link]; ok {
			return l.drops, l.corrupts, l.delays
		}
	}
	return 0, 0, 0
}

func avgDepth(q queueMetrics, total sim.Time) float64 {
	if total <= 0 {
		return 0
	}
	return q.weighted / float64(total)
}

// NodeBusy returns the accumulated busy time of a node (after Finish).
func (m *Metrics) NodeBusy(name string) sim.Time {
	if n := m.lookup(name); n != nil {
		return n.busy
	}
	return 0
}

// QueueStats returns a node's run-queue integration for one priority
// (after Finish): the time-weighted average depth over the run and the
// maximum depth observed.
func (m *Metrics) QueueStats(name string, pri int) (avg float64, max int) {
	n := m.lookup(name)
	if n == nil || pri < 0 || pri > 1 {
		return 0, 0
	}
	return avgDepth(n.queues[pri], m.end), n.queues[pri].max
}

// Switching returns a node's accumulated scheduler switch charge: the
// preemption state-save and dispatch restore time carried on Preempt
// and ProcDispatch events.
func (m *Metrics) Switching(name string) sim.Time {
	if n := m.lookup(name); n != nil {
		return n.switching
	}
	return 0
}
