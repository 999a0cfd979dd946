package sim

import (
	"sort"
	"sync"
	"sync/atomic"
)

// This file implements the sharded parallel engine: per-node event
// kernels advanced in bounded windows by a coordinator, with
// conservative Chandy–Misra-style synchronisation and no null
// messages.
//
// Every cross-node interaction has a minimum latency (for transputer
// links, the shortest packet's wire time), so an event posted by a
// node while executing at time T cannot be due at another node before
// T + lookahead.  The coordinator therefore lets each shard run
// independently up to a per-shard horizon
//
//	horizon(s) = min over q of sendBound(q) + dist(q, s)
//
// — the earliest instant anything another shard does could reach s
// along the wiring (see horizonFor; no other shard can cause anything
// in s before that) — then meets all shards at a barrier, merges the
// ports' outboxes into the destination kernels in a canonical order,
// and opens the next window.  Shard execution inside a window is pure
// single-threaded event processing, so results are bit-for-bit
// identical whether windows run on one worker or many.
//
// A shard hosts one or more Ports — the per-participant handles the
// nodes of the simulated system schedule and post through.  Each port
// owns its own kernel; with one port per shard this is exactly the
// one-node-per-shard engine.  Fusing several ports onto one shard
// (see NewShard) keeps their mutual traffic inside the shard: a post
// between co-resident ports is scheduled straight into the destination
// port's kernel at its exact timestamp — no outbox entry, no
// coordinator barrier — and the member kernels are interleaved by a
// barrier-free sequential loop (see Shard.runBefore) applying the same
// conservative rule locally.  Because both routes deliver the same
// message at the same instant under the same (origin port, per-port
// sequence) ordering key, every port's kernel executes the identical
// event sequence at any partition, which is what makes observable
// results byte-identical however nodes are grouped onto shards.

// crossEvent is one outbox entry: a message posted by port src while
// executing a window, due on port dst at time at.  Entries are merged
// at the barrier in (at, src, seq) order — a total order that no
// amount of worker parallelism can perturb.
type crossEvent struct {
	at       Time
	seq      uint64
	src, dst int32 // origin and destination port ranks
	rcv      Receiver
	msg      Msg
}

// Coordinator advances a set of shards in conservative time windows.
type Coordinator struct {
	lookahead Time
	shards    []*Shard
	ports     []*Port
	workers   int

	// xq is the barrier's merge buffer for the ports' outboxes,
	// truncated and reused every window.
	xq []crossEvent

	// now is the global low-water mark: the limit of the last bounded
	// run, so an empty system still reports time correctly.
	now Time

	// onFlush, when set, is called at every barrier — and, when one
	// shard holds every port, at every pass of its member loop — with the
	// time below which no further events can occur; observers use it to
	// merge and release per-node probe buffers in deterministic order.
	onFlush func(upTo Time, final bool)

	// Window dispatch state (see runWindow).  claim packs the current
	// window's epoch, shard count and next-unclaimed index into one
	// word, so helpers can take work with a single compare-and-swap
	// and a stale helper can never claim into the wrong window: the
	// epoch bits make every cross-window CAS fail.
	claim    atomic.Uint64
	active   []*Shard
	tokenCh  chan struct{}
	sleepers atomic.Int32
	helpers  int
	windowWg sync.WaitGroup

	// Per-pair wiring (see horizonFor).  w[a][b] is the direct
	// lookahead from shard a to shard b (infTime when unwired) and dist
	// is the all-pairs shortest-path closure, rebuilt lazily after a Wire
	// call; nothing removes an edge, so once a run has started the
	// distances are the run's.  Until the first Wire call the matrix
	// holds the complete graph at the global lookahead: with nothing
	// known about the wiring, any shard may reach any other in one
	// lookahead.
	wired      bool
	w          [][]Time
	dist       [][]Time
	selfInf    []Time // shortest round trip leaving and re-entering a shard
	distDirty  bool
	sendBounds []Time // per-barrier scratch

	// byDist[s] holds the sources that can reach s sorted by influence
	// distance (nearest first), rebuilt with dist; minSendBound is the
	// per-barrier minimum of sendBounds.  Together they let horizonFor
	// cut its scan off early: once d + minSendBound cannot beat the
	// bound found so far, no farther source can either.
	byDist       [][]distEntry
	minSendBound Time

	// Per-barrier scratch, reused to keep the barrier loop
	// allocation-free: each shard's next event time (MaxTime when its
	// queues are empty) and the active-shard list for the window.
	nts       []Time
	activeBuf []*Shard

	// Engine diagnostics (see EngineStats), touched only by the
	// coordinator thread between windows; shards and ports count their
	// own local windows and direct deliveries.
	stBarriers     uint64
	stWindows      uint64
	stShardWindows uint64
	stCross        uint64
	stSpanSum      Time
	stBarrierWait  int64
	lastMin1       Time
	lastMin1Set    bool
}

// distEntry is one source in a shard's nearest-first influence list.
type distEntry struct {
	d Time
	q int32
}

// MaxPorts is how many ports one coordinator holds: a window's shards,
// at most one a port, are counted in sixteen bits of the claim word
// (see runWindow).  NewPort panics past it, so a caller building from
// outside input checks first.
const MaxPorts = claimMask - 1

// infTime marks an absent path; far enough from MaxTime that sums of
// two never overflow.
const infTime = MaxTime / 4

// NewCoordinator builds a coordinator whose conservative lookahead is
// the given minimum cross-node event latency.
func NewCoordinator(lookahead Time) *Coordinator {
	if lookahead <= 0 {
		// Unreachable from input: network.System passes the constant Lookahead, one acknowledge time.
		panic("sim: coordinator lookahead must be positive")
	}
	return &Coordinator{lookahead: lookahead, workers: 1}
}

// Lookahead returns the coordinator's window lookahead.
func (c *Coordinator) Lookahead() Time { return c.lookahead }

// SetWorkers sets how many OS goroutines execute shards inside each
// window.  The result is identical for every value; only wall-clock
// time changes.  Values below 1 select 1.
func (c *Coordinator) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	c.workers = n
}

// Workers returns the configured worker count.
func (c *Coordinator) Workers() int { return c.workers }

// OnFlush registers the flush callback (see the onFlush field).  Only
// one callback is supported; registering replaces the previous one.
// Register none and a run makes no flush calls at all.
func (c *Coordinator) OnFlush(fn func(upTo Time, final bool)) { c.onFlush = fn }

// NewPort registers a participant that is not on any shard yet.  Rank
// — the creation ordinal across the whole coordinator — is the port's
// identity in delivery keys and event IDs, so the canonical order of
// same-instant deliveries depends only on which ports exist, never on
// how they are partitioned onto shards.  That is what lets the
// partition wait: a port schedules, cancels and posts from the moment
// it exists (outside a run a post goes straight into the destination
// kernel, under the key the mailbox would have given it), and NewShard
// places it any time before the run that first executes it.  A port
// still unplaced when a run starts gets a shard of its own.
func (c *Coordinator) NewPort() *Port {
	if len(c.ports) >= MaxPorts {
		// Unreachable from input: AddTransputer and the topology parser refuse the port past MaxPorts first.
		panic("sim: too many ports")
	}
	p := &Port{c: c, rank: len(c.ports), k: NewKernel()}
	c.ports = append(c.ports, p)
	return p
}

// NewShard adds a shard holding the given unplaced ports, in the order
// given, and returns it — the fusion primitive: ports of one shard
// interleave without coordinator barriers, and their mutual traffic
// never waits for one.  With no ports it creates the shard's first
// (and only) port itself (see Shard.Port).
func (c *Coordinator) NewShard(ports ...*Port) *Shard {
	s := &Shard{c: c, id: len(c.shards)}
	c.shards = append(c.shards, s)
	if len(ports) == 0 {
		ports = []*Port{c.NewPort()}
	}
	for _, p := range ports {
		if p.c != c || p.s != nil {
			// Unreachable from input: System.seal places each node once, and SetPlacement refuses a name in two groups.
			panic("sim: port is already on a shard")
		}
		p.s = s
	}
	s.ports = append(s.ports, ports...)
	s.p0 = s.ports[0]
	return s
}

// Wire records a direct link from shard a to shard b with the given
// minimum latency.  The first Wire call replaces the complete-graph
// default with horizons derived from actual wiring: pairs with no
// connecting path contribute no bound at all, so disjoint components
// synchronise only internally.  Parallel links keep the smallest
// latency.  A wire stays for good: a link severed mid-run keeps bounding
// its ends' windows, which costs barriers and nothing else.
func (c *Coordinator) Wire(a, b int, latency Time) {
	if latency <= 0 {
		// Unreachable from input: System.seal wires every cross-shard connection at the constant Lookahead.
		panic("sim: wire latency must be positive")
	}
	if !c.wired {
		// The first link: drop the complete-graph default, so
		// ensureMatrix rebuilds the matrix unwired.
		c.wired, c.w = true, nil
	}
	c.ensureMatrix()
	if latency < c.w[a][b] {
		c.w[a][b] = latency
	}
	c.distDirty = true
}

// ensureMatrix sizes the wiring matrix to the current shard count.
// New pairs start unwired once Wire has been called, and at the global
// lookahead — the complete graph — until then.
func (c *Coordinator) ensureMatrix() {
	n := len(c.shards)
	if len(c.w) == n {
		return
	}
	fill := infTime
	if !c.wired {
		fill = c.lookahead
	}
	w := make([][]Time, n)
	for i := range w {
		w[i] = make([]Time, n)
		for j := range w[i] {
			w[i][j] = fill
		}
		// Copy any earlier, smaller matrix (shards added after wiring
		// started).
		if i < len(c.w) {
			copy(w[i], c.w[i])
		}
	}
	c.w = w
	c.distDirty = true
}

// refreshDist rebuilds the all-pairs shortest-path closure and the
// per-shard minimum round trip.  Shard counts are small and the closure
// is built once a run, so Floyd–Warshall is plenty.
func (c *Coordinator) refreshDist() {
	if !c.distDirty {
		return
	}
	c.distDirty = false
	n := len(c.shards)
	if len(c.dist) != n {
		c.dist = make([][]Time, n)
		for i := range c.dist {
			c.dist[i] = make([]Time, n)
		}
		c.selfInf = make([]Time, n)
		c.sendBounds = make([]Time, n)
	}
	for i := 0; i < n; i++ {
		copy(c.dist[i], c.w[i])
		c.dist[i][i] = 0
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			dik := c.dist[i][k]
			if dik >= infTime {
				continue
			}
			for j := 0; j < n; j++ {
				if d := dik + c.dist[k][j]; d < c.dist[i][j] {
					c.dist[i][j] = d
				}
			}
		}
	}
	for s := 0; s < n; s++ {
		rt := infTime
		for r := 0; r < n; r++ {
			if r == s {
				continue
			}
			if d := c.dist[s][r] + c.dist[r][s]; d < rt {
				rt = d
			}
		}
		c.selfInf[s] = rt
	}
	// byDist[s] lists every source that can influence s, nearest
	// first, so the per-barrier horizon scan can stop as soon as the
	// remaining distances cannot beat the minimum found.  Unreachable
	// sources are left out entirely: they never contribute a bound.
	if len(c.byDist) != n {
		c.byDist = make([][]distEntry, n)
	}
	for s := 0; s < n; s++ {
		list := c.byDist[s][:0]
		for q := 0; q < n; q++ {
			d := c.dist[q][s]
			if q == s {
				d = c.selfInf[s]
			}
			if d >= infTime {
				continue
			}
			list = append(list, distEntry{d: d, q: int32(q)})
		}
		sort.Slice(list, func(i, j int) bool { return list[i].d < list[j].d })
		c.byDist[s] = list
	}
}

// Dist reports the influence distance from shard a to shard b
// (infinite when no path connects them), recomputing the closure if
// wires were added.  For tests and diagnostics; the run loop uses the
// internal matrices directly.
func (c *Coordinator) Dist(a, b int) (d Time, connected bool) {
	c.ensureMatrix()
	c.refreshDist()
	d = c.dist[a][b]
	return d, d < infTime
}

// Now returns the global simulated time: the furthest any port has
// executed (or the limit of the last bounded run if later).
func (c *Coordinator) Now() Time {
	t := c.now
	for _, p := range c.ports {
		if n := p.k.Now(); n > t {
			t = n
		}
	}
	return t
}

// drain merges the ports' outboxes into the destination kernels in
// (at, src, seq) order.  Called between windows only: the barrier that
// ended the window makes every outbox append happen-before this read,
// so nothing here takes a lock.  Outboxes and the merge buffer are
// truncated, never dropped, so a steady stream of posts allocates
// nothing; they grow on demand to the busiest window seen.
func (c *Coordinator) drain() {
	q := c.xq[:0]
	for _, p := range c.ports {
		if len(p.outbox) > 0 {
			q = append(q, p.outbox...)
			p.outbox = p.outbox[:0]
		}
	}
	c.xq = q
	if len(q) == 0 {
		return
	}
	c.stCross += uint64(len(q))
	// Insertion sort: a window's worth of link packets is tiny and
	// often nearly ordered.
	for i := 1; i < len(q); i++ {
		for j := i; j > 0 && crossLess(q[j], q[j-1]); j-- {
			q[j], q[j-1] = q[j-1], q[j]
		}
	}
	for i := range q {
		// The key extends the (at, src, seq) order into the kernel heap
		// itself, so a delivery's place among same-instant events never
		// depends on which barrier injected it (see Kernel.less) — and,
		// because the fused route in Port.PostMsg uses the same key, not
		// on whether the origin port shares the destination's shard.
		e := &q[i]
		c.ports[e.dst].k.ScheduleDelivery(e.at, deliveryKey(int(e.src), e.seq), e.rcv, e.msg)
	}
}

// deliveryKey packs a delivery's canonical identity — origin port rank
// and per-port sequence — into the kernel ordering key: rank+1, at most
// MaxPorts and so under 2^16, from bit deliveryRankShift up, and the
// sequence below it.  The key stays under the class bit every local
// event's key carries (see Kernel.less), so a delivery fires before
// any same-instant local event.
func deliveryKey(rank int, seq uint64) uint64 {
	return uint64(rank+1)<<deliveryRankShift | seq
}

// deliveryRankShift leaves a port 2^47 posts before its sequence would
// reach the rank bits.
const deliveryRankShift = 63 - 16

func crossLess(a, b crossEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// flush invokes the barrier callback.
func (c *Coordinator) flush(upTo Time, final bool) {
	if c.onFlush != nil {
		c.onFlush(upTo, final)
	}
}

// Run fires events until every port's queue (and every outbox) drains,
// and returns the final time.
func (c *Coordinator) Run() Time {
	c.run(MaxTime, false)
	return c.Now()
}

// RunUntil fires events with time <= limit.  It returns true if the
// system drained before the limit; otherwise every port's clock is
// advanced to the limit (matching Kernel.RunUntil on a lone kernel).
func (c *Coordinator) RunUntil(limit Time) bool {
	return c.run(limit, true)
}

func (c *Coordinator) run(limit Time, bounded bool) bool {
	for _, p := range c.ports {
		if p.s == nil {
			c.NewShard(p)
		}
	}
	stop := c.startPool()
	defer stop()
	// The wiring is complete when a run starts, so the distances every
	// barrier of the run reads are computed here, once.
	c.ensureMatrix()
	c.refreshDist()
	if len(c.nts) != len(c.shards) {
		c.nts = make([]Time, len(c.shards))
	}
	hard := MaxTime
	if bounded {
		hard = limit + 1
	}
	for _, p := range c.ports {
		p.limit = hard
	}
	for {
		c.drain()
		// min1 is the earliest next-event time across shards.  Each
		// shard's next-event time is cached for the rest of the barrier
		// (the active-shard scan): peeking costs a cancellation check.
		min1 := MaxTime
		for _, s := range c.shards {
			t, ok := s.NextTime()
			if !ok {
				t = MaxTime
			}
			c.nts[s.id] = t
			if t < min1 {
				min1 = t
			}
		}
		if min1 == MaxTime {
			c.flush(MaxTime, true)
			return true
		}
		c.flush(min1, false)
		if bounded && min1 > limit {
			for _, s := range c.shards {
				s.advanceTo(limit)
			}
			if c.now < limit {
				c.now = limit
			}
			return false
		}
		c.stBarriers++
		if c.lastMin1Set && min1 > c.lastMin1 {
			c.stSpanSum += min1 - c.lastMin1
		}
		c.lastMin1, c.lastMin1Set = min1, true
		minSb := MaxTime
		for _, q := range c.shards {
			sb := q.sendBound()
			c.sendBounds[q.id] = sb
			if sb < minSb {
				minSb = sb
			}
		}
		c.minSendBound = minSb
		active := c.activeBuf[:0]
		for _, s := range c.shards {
			if c.nts[s.id] == MaxTime {
				// Nothing pending: the shard cannot be active whatever
				// its horizon, so the influence scan is skipped.
				continue
			}
			// The sound window: a shard may run only to the earliest
			// instant any cross-shard event could reach it.
			hzn := c.horizonFor(s)
			if hzn > hard {
				hzn = hard
			}
			s.hzn = hzn
			if c.nts[s.id] < hzn {
				active = append(active, s)
			}
		}
		c.activeBuf = active
		if len(active) > 0 {
			c.stWindows++
			c.stShardWindows += uint64(len(active))
		}
		c.runWindow(active)
	}
}

// horizonFor computes a shard's window bound from actual wiring: the
// earliest instant externally-visible activity anywhere could reach s.
// Shard q's first possible external action is sendBound(q) — its next
// event, except that a runner's quiet promise discounts the promised
// continuation up to the promised time — and the fastest route from q
// to s adds dist[q][s] (for q = s, the shortest round trip out and
// back, since a shard's own event can bound it only via an echo).
// Pairs with no connecting path contribute nothing: a neighbourhood no
// wire leads out of cannot affect s at all, and a lone shard, with no
// one to hear from, runs unbounded.  On the never-wired default,
// the complete graph at one lookahead, the rule lets every shard run
// one lookahead past the earliest event anywhere — and the shard
// holding that event one lookahead past the next-earliest, or two past
// its own.
//
// Fusion changes none of the arithmetic, only the graph it runs over:
// the partition's shards replace per-node shards, an inter-shard edge
// is the minimum latency over member wire pairs (Wire keeps the min),
// and intra-member traffic does not appear at all — which is the
// point, since it no longer bounds any window.
func (c *Coordinator) horizonFor(s *Shard) Time {
	hzn := MaxTime
	minSb := c.minSendBound
	for _, e := range c.byDist[s.id] {
		if hzn < MaxTime && e.d+minSb >= hzn {
			break
		}
		sb := c.sendBounds[e.q]
		if sb >= infTime {
			continue
		}
		if h := sb + e.d; h < hzn {
			hzn = h
		}
	}
	return hzn
}
