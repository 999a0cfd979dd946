package sim

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
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
//	horizon(s) = lookahead + min over r != s of nextEvent(r)
//
// (no other shard can cause anything in s before that), then meets all
// shards at a barrier, merges the ports' outboxes into the destination
// kernels in a canonical order, and opens the next window.  Shard execution inside a window
// is pure single-threaded event processing, so results are bit-for-bit
// identical whether windows run on one worker or many.
//
// A shard hosts one or more Ports — the per-participant handles the
// nodes of the simulated system schedule and post through.  Each port
// owns its own kernel; with one port per shard this is exactly the
// one-node-per-shard engine.  Fusing several ports onto one shard
// (see NewPort) keeps their mutual traffic inside the shard: a post
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

	// mu guards only the pending-unwire list, the one thing shard
	// goroutines hand the coordinator mid-window outside their own
	// port's outbox.
	mu sync.Mutex

	// xq is the barrier's merge buffer for the ports' outboxes,
	// truncated and reused every window.
	xq []crossEvent

	// now is the global low-water mark: the limit of the last bounded
	// run, so an empty system still reports time correctly.
	now Time

	// onFlush, when set, is called at every barrier with the time below
	// which no further events can occur; observers use it to merge and
	// release per-shard probe buffers in deterministic order.
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

	// Per-pair wiring (see horizons).  With no Wire calls the
	// coordinator treats the shard graph as complete at the global
	// lookahead — the PR-3 rule.  Once wired, w[a][b] is the direct
	// lookahead from shard a to shard b (infTime when unwired),
	// wcount[a][b] counts parallel links so severing one of several
	// keeps the pair finite, and dist is the all-pairs shortest-path
	// closure rebuilt lazily after wiring changes.
	wired      bool
	w          [][]Time
	wcount     [][]int
	dist       [][]Time
	selfInf    []Time // shortest round trip leaving and re-entering a shard
	distDirty  bool
	sendBounds []Time // per-barrier scratch
	unwires    []unwire

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

	// Engine diagnostics (see EngineStats).  All but fused are touched
	// only by the coordinator thread between windows; fused is bumped by
	// shard goroutines taking the intra-shard delivery fast path.
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

// unwire is a pending wiring removal: it takes effect only at a barrier
// where every event at or before cut has already executed, so in-flight
// traffic from before the sever is already in the destination kernels.
type unwire struct {
	a, b int
	cut  Time
}

// infTime marks an absent path; far enough from MaxTime that sums of
// two never overflow.
const infTime = MaxTime / 4

// claim-word layout: epoch(32) | len(16) | idx(16).
const (
	claimEpochShift = 32
	claimLenShift   = 16
	claimMask       = 0xffff
)

// NewCoordinator builds a coordinator whose conservative lookahead is
// the given minimum cross-node event latency.
func NewCoordinator(lookahead Time) *Coordinator {
	if lookahead <= 0 {
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

// OnFlush registers the barrier callback (see Coordinator doc).  Only
// one callback is supported; registering replaces the previous one.
func (c *Coordinator) OnFlush(fn func(upTo Time, final bool)) { c.onFlush = fn }

// NewShard adds a shard and returns it.  The shard comes with a
// default port, so code written against the one-port-per-shard surface
// (Schedule, Cancel, Post on the Shard itself) keeps working.
func (c *Coordinator) NewShard() *Shard {
	s := &Shard{c: c, id: len(c.shards)}
	c.shards = append(c.shards, s)
	s.p0 = c.newPort(s)
	return s
}

// newPort registers a port on the shard.  Rank — the creation ordinal
// across the whole coordinator — is the port's identity in delivery
// keys and event IDs, so the canonical order of same-instant
// deliveries depends only on which ports exist, never on how they are
// partitioned onto shards.
func (c *Coordinator) newPort(s *Shard) *Port {
	if len(c.ports) >= claimMask-1 {
		panic("sim: too many ports")
	}
	p := &Port{s: s, rank: len(c.ports), k: NewKernel()}
	c.ports = append(c.ports, p)
	s.ports = append(s.ports, p)
	return p
}

// Wire records a direct link from shard a to shard b with the given
// minimum latency.  Calling Wire at least once switches the coordinator
// from the complete-graph default to horizons derived from actual
// wiring: pairs with no connecting path contribute no bound at all, so
// disjoint components (and fully severed nodes) synchronise only
// internally.  Parallel links stack; each is removed by one Unwire.
func (c *Coordinator) Wire(a, b int, latency Time) {
	if latency <= 0 {
		panic("sim: wire latency must be positive")
	}
	c.ensureMatrix()
	c.wcount[a][b]++
	if latency < c.w[a][b] {
		c.w[a][b] = latency
	}
	c.distDirty = true
}

// Unwire schedules the removal of one a→b link, effective once the
// whole system has executed past cut (the simulated instant the link
// stopped carrying traffic).  The deferral is what makes removal safe:
// by then every event that could have used the link has fired and its
// deliveries sit in the destination kernels, so widening the horizon
// afterwards cannot lose causality.
//
// Unwire may be called from shard goroutines mid-window (a fault
// schedule severing a link); the pending list is guarded by the
// coordinator mutex and drained at the next barrier.  An Unwire with
// no prior Wire (an unwired coordinator) is recorded but never
// applied.
func (c *Coordinator) Unwire(a, b int, cut Time) {
	c.mu.Lock()
	c.unwires = append(c.unwires, unwire{a: a, b: b, cut: cut})
	c.mu.Unlock()
}

func (c *Coordinator) ensureMatrix() {
	n := len(c.shards)
	if c.wired && len(c.w) == n {
		return
	}
	w := make([][]Time, n)
	wc := make([][]int, n)
	for i := range w {
		w[i] = make([]Time, n)
		wc[i] = make([]int, n)
		for j := range w[i] {
			w[i][j] = infTime
		}
		// Copy any earlier, smaller matrix (shards added after wiring
		// started).
		if i < len(c.w) {
			copy(w[i], c.w[i])
			copy(wc[i], c.wcount[i])
		}
	}
	c.w, c.wcount = w, wc
	c.wired = true
	c.distDirty = true
}

// applyUnwires retires pending link removals whose cut time the whole
// system has passed.  Called between windows, with min1 the earliest
// pending event anywhere.
func (c *Coordinator) applyUnwires(min1 Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	kept := c.unwires[:0]
	for _, u := range c.unwires {
		if min1 <= u.cut {
			kept = append(kept, u)
			continue
		}
		if c.wcount[u.a][u.b] > 0 {
			c.wcount[u.a][u.b]--
			if c.wcount[u.a][u.b] == 0 {
				c.w[u.a][u.b] = infTime
				c.distDirty = true
			}
		}
	}
	c.unwires = kept
}

// refreshDist rebuilds the all-pairs shortest-path closure and the
// per-shard minimum round trip.  Shard counts are small and wiring
// changes are rare (a sever), so Floyd–Warshall is plenty.
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

// Dist reports the current influence distance from shard a to shard b
// (infinite when no path connects them), recomputing the closure if
// wiring changed.  For tests and diagnostics; the run loop uses the
// internal matrices directly.
func (c *Coordinator) Dist(a, b int) (d Time, connected bool) {
	if !c.wired {
		if a == b {
			return 0, true
		}
		return c.lookahead, true
	}
	c.applyUnwires(MaxTime)
	c.refreshDist()
	d = c.dist[a][b]
	return d, d < infTime
}

// Shards returns the shards in creation order.
func (c *Coordinator) Shards() []*Shard { return c.shards }

// Ports returns the ports in creation (rank) order.
func (c *Coordinator) Ports() []*Port { return c.ports }

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
// and per-port sequence — into the kernel ordering key.
func deliveryKey(rank int, seq uint64) uint64 {
	return uint64(rank+1)<<portRankShift | seq
}

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
	stop := c.startPool()
	defer stop()
	if len(c.nts) != len(c.shards) {
		c.nts = make([]Time, len(c.shards))
	}
	for {
		c.drain()
		// min1/min2: the two earliest next-event times across shards,
		// for the per-shard horizon rule.  Each shard's next-event time
		// is cached for the rest of the barrier (send bounds, the
		// active-shard scan): peeking costs a cancellation check.
		min1, min2 := MaxTime, MaxTime
		owner := -1
		for _, s := range c.shards {
			t, ok := s.NextTime()
			if !ok {
				c.nts[s.id] = MaxTime
				continue
			}
			c.nts[s.id] = t
			if t < min1 {
				min1, min2 = t, min1
				owner = s.id
			} else if t < min2 {
				min2 = t
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
		if c.wired {
			c.applyUnwires(min1)
			c.refreshDist()
			minSb := MaxTime
			for _, q := range c.shards {
				sb := q.sendBound()
				c.sendBounds[q.id] = sb
				if sb < minSb {
					minSb = sb
				}
			}
			c.minSendBound = minSb
		}
		active := c.activeBuf[:0]
		for _, s := range c.shards {
			// The sound window: a shard may run only to the earliest
			// instant any cross-shard event could reach it.  Posts made
			// this window are due no earlier than min1+lookahead (every
			// fired event is at >= min1), and a peer cannot react to a
			// post before the next barrier, so everyone may run to
			// min1+lookahead.  The min1 owner alone gets more: events
			// addressed to it come from shards whose own events are at
			// >= min2, so it may run to min(min2, min1+lookahead) +
			// lookahead.  A lone shard has no one to hear from at all.
			// (With wiring information the generalised rule in horizonFor
			// replaces this; on a complete graph with no send promises it
			// reduces to exactly this formula.)
			var hzn Time
			switch {
			case len(c.shards) == 1:
				hzn = MaxTime
			case c.wired:
				hzn = c.horizonFor(s)
			case s.id == owner:
				h2 := min2
				if h2 > min1+c.lookahead {
					h2 = min1 + c.lookahead
				}
				hzn = h2 + c.lookahead
			default:
				hzn = min1 + c.lookahead
			}
			if bounded && hzn > limit+1 {
				hzn = limit + 1
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
// Pairs with no connecting path contribute nothing: a severed or
// unwired neighbourhood cannot affect s at all.  On a complete graph
// with no promises this reduces exactly to the min1/min2 rule.
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

// startPool launches the helper goroutines for a run.  With one worker
// (or one shard) no goroutines are started and windows run inline.
// The coordinator itself executes shards too, so a run uses workers-1
// helpers: on a machine with nothing to run them on, the coordinator
// simply claims every shard itself and a window costs a handful of
// atomic operations more than sequential execution.
func (c *Coordinator) startPool() (stop func()) {
	n := c.workers
	if n > len(c.shards) {
		n = len(c.shards)
	}
	if n <= 1 {
		return func() {}
	}
	c.helpers = n - 1
	c.tokenCh = make(chan struct{}, c.helpers)
	var alive sync.WaitGroup
	alive.Add(c.helpers)
	for i := 0; i < c.helpers; i++ {
		go func() {
			defer alive.Done()
			c.helperLoop()
		}()
	}
	ch := c.tokenCh
	return func() {
		close(ch)
		alive.Wait()
		c.tokenCh = nil
		c.helpers = 0
	}
}

// helperLoop claims shards whenever a window is open.  Between windows
// a helper spins briefly on the claim word (windows are short, often
// only a few hundred simulated nanoseconds apart), then parks on the
// token channel until the coordinator wakes it or the run ends.
func (c *Coordinator) helperLoop() {
	const spinBudget = 1 << 12
	spins := 0
	for {
		if c.tryClaim() {
			spins = 0
			continue
		}
		spins++
		if spins < spinBudget {
			if spins%64 == 0 {
				runtime.Gosched()
			}
			continue
		}
		// Park.  Re-check after registering as a sleeper so a window
		// opened concurrently cannot be missed: the coordinator reads
		// sleepers after publishing the claim word.
		c.sleepers.Add(1)
		if c.tryClaim() {
			c.sleepers.Add(-1)
			spins = 0
			continue
		}
		_, ok := <-c.tokenCh
		c.sleepers.Add(-1)
		if !ok {
			return
		}
		spins = 0
	}
}

// tryClaim takes one shard of the current window, if any remains, and
// runs it.  The epoch bits in the claim word pin the coordinator: a
// successful CAS means the window it belongs to is still open (the
// coordinator cannot pass the barrier until every claimed shard is
// done), so c.active is stable and safe to read.
func (c *Coordinator) tryClaim() bool {
	for {
		cur := c.claim.Load()
		idx := cur & claimMask
		if idx >= (cur>>claimLenShift)&claimMask {
			return false
		}
		if !c.claim.CompareAndSwap(cur, cur+1) {
			continue
		}
		s := c.active[idx]
		s.runBefore(s.hzn)
		c.windowWg.Done()
		return true
	}
}

// runWindow executes one window: every active shard runs its events
// strictly before its horizon.  The barrier (WaitGroup) makes all
// shard work of this window happen-before the coordinator resumes.
func (c *Coordinator) runWindow(active []*Shard) {
	if c.tokenCh == nil || len(active) == 1 {
		for _, s := range active {
			s.runBefore(s.hzn)
		}
		return
	}
	if len(active) > claimMask {
		panic("sim: too many shards in one window")
	}
	// Publish the window.  The WaitGroup is armed before the claim
	// word: a helper that claims the first shard instantly must find
	// the barrier already counting it.
	c.active = active
	c.windowWg.Add(len(active))
	epoch := (c.claim.Load() >> claimEpochShift) + 1
	c.claim.Store(epoch<<claimEpochShift | uint64(len(active))<<claimLenShift)
	if c.sleepers.Load() > 0 {
		// Wake parked helpers, at most one per remaining shard.
		for i := 0; i < c.helpers && i < len(active)-1; i++ {
			select {
			case c.tokenCh <- struct{}{}:
			default:
				i = c.helpers // buffer full: every helper already has a wakeup pending
			}
		}
	}
	// The coordinator works the window too, then waits out the stragglers.
	for c.tryClaim() {
	}
	//tvet:ignore nondetsource wall-clock here only feeds EngineStats barrier-wait diagnostics, never simulation state
	t0 := time.Now()
	c.windowWg.Wait()
	//tvet:ignore nondetsource wall-clock here only feeds EngineStats barrier-wait diagnostics, never simulation state
	c.stBarrierWait += time.Since(t0).Nanoseconds()
}

// EngineStats is a snapshot of what the windowed engine actually did —
// partition- and worker-dependent diagnostics, deliberately kept out
// of the partition-invariant observable outputs (traces, stats, flow
// tables).  BarrierWaitNs is wall-clock and meaningful only with more
// than one worker; everything else is deterministic for a fixed
// partition and workload.
type EngineStats struct {
	// Shards and Ports describe the partition: Ports simulation
	// participants mapped onto Shards coordinator units.
	Shards int
	Ports  int
	// Barriers counts coordinator loop iterations; Windows those that
	// had at least one shard with work, and ShardWindows the total
	// shard-window executions (ShardWindows/Windows is the mean number
	// of shards active per window).
	Barriers     uint64
	Windows      uint64
	ShardWindows uint64
	// LocalWindows counts the barrier-free micro-windows fused shards
	// ran to interleave their member ports (zero with no fusion).
	LocalWindows uint64
	// Cross counts deliveries that crossed shards through the barrier
	// merge; Fused counts port-to-port deliveries that stayed inside
	// one shard (the fusion fast path).
	Cross uint64
	Fused uint64
	// SpanSum is the total simulated time the barrier low-water mark
	// advanced over the run; SpanSum/Windows is the mean window span.
	SpanSum Time
	// BarrierWaitNs is wall-clock time the coordinator spent waiting at
	// window barriers for helpers to finish.
	BarrierWaitNs int64
}

// EngineStats returns the engine diagnostics accumulated so far.  Call
// between runs, not from inside a window.
func (c *Coordinator) EngineStats() EngineStats {
	var local, fused uint64
	for _, s := range c.shards {
		local += s.stLocal
		fused += s.stFused
	}
	return EngineStats{
		Shards:        len(c.shards),
		Ports:         len(c.ports),
		Barriers:      c.stBarriers,
		Windows:       c.stWindows,
		ShardWindows:  c.stShardWindows,
		LocalWindows:  local,
		Cross:         c.stCross,
		Fused:         fused,
		SpanSum:       c.stSpanSum,
		BarrierWaitNs: c.stBarrierWait,
	}
}

// portRankShift places the owning port's rank (plus one) in the top
// bits of an EventID, so a handle can be routed back to the kernel
// that issued it even when it crosses shards — and in delivery keys,
// where it makes same-instant ordering partition-invariant.
const portRankShift = 48

// Shard is one unit of coordinator scheduling: a group of ports whose
// kernels are advanced together inside a window, by one goroutine at a
// time.  It implements the same Clock interface as a Kernel (through
// its default port), and additionally the batch-driver surface
// (NextTime, Horizon, SetOffset, Stamp) used by instruction runners.
type Shard struct {
	c     *Coordinator
	id    int
	hzn   Time
	p0    *Port
	ports []*Port

	// Scratch for the fused member loop (cached per-member next-event
	// times and send bounds with the kernel stamps that validate them),
	// and the shard's diagnostic counters — plain fields, since a
	// shard's work is single-threaded within a window.
	nts     []Time
	sbs     []Time
	stamps  []uint64
	stLocal uint64
	stFused uint64
}

// Port is one participant's handle on a shard: an event kernel of its
// own plus the identity cross-port deliveries are keyed by.  With
// shard fusion several ports share one shard, and their kernels are
// interleaved sequentially without coordinator barriers; a port's rank
// — its creation ordinal across the coordinator — is
// partition-invariant, which keeps event identities and same-instant
// delivery order identical however ports are grouped.  A Port
// implements the Clock interface and the batch-driver surface, so
// machines, engines and runners are written against it exactly as they
// were against a Shard.
type Port struct {
	s    *Shard
	rank int
	k    *Kernel
	hzn  Time
	xseq uint64

	// outbox holds this port's posts to ports on other shards until the
	// next barrier merges them (see Coordinator.drain).  Only the worker
	// running the port's shard appends, and only the coordinator, between
	// windows, reads and truncates — the window barrier orders the two,
	// so the outbox needs no lock.
	outbox []crossEvent

	// The current quiet promise (see PromiseQuiet): the pending event
	// promiseID will not act externally before promiseUntil.  Written
	// only by the port's own window execution, read only between
	// member turns and at barriers.
	promiseID    EventID
	promiseUntil Time
}

// NewPort adds a participant to the shard — the fusion primitive:
// ports of one shard interleave without coordinator barriers, and
// their mutual traffic never waits for one.
func (s *Shard) NewPort() *Port { return s.c.newPort(s) }

// Port returns the shard's default port (created with the shard).
func (s *Shard) Port() *Port { return s.p0 }

// ID returns the shard's index within its coordinator.
func (s *Shard) ID() int { return s.id }

// Coordinator returns the owning coordinator.
func (s *Shard) Coordinator() *Coordinator { return s.c }

// Shard returns the shard the port lives on.
func (p *Port) Shard() *Shard { return p.s }

// Rank returns the port's creation ordinal within its coordinator.
func (p *Port) Rank() int { return p.rank }

// Now returns the default port's current (virtual) time.
func (s *Shard) Now() Time { return s.p0.k.Now() }

// Now returns the port's current (virtual) time.
func (p *Port) Now() Time { return p.k.Now() }

// Pending reports the number of scheduled, uncancelled events across
// the shard's ports.  It deliberately ignores undelivered posts: the
// answer must not depend on how far other shards have progressed
// inside the current window.
func (s *Shard) Pending() int {
	n := 0
	for _, p := range s.ports {
		n += p.k.Pending()
	}
	return n
}

// Pending reports the scheduled, uncancelled events on this port's own
// kernel (undelivered posts are ignored, as in Shard.Pending).
func (p *Port) Pending() int { return p.k.Pending() }

// Schedule runs fn at the given time on the default port.
func (s *Shard) Schedule(at Time, fn func()) EventID { return s.p0.Schedule(at, fn) }

// Schedule runs fn at the given time on the port's kernel.  The
// returned ID carries the port's rank, so it can be cancelled from
// anywhere.
func (p *Port) Schedule(at Time, fn func()) EventID {
	return p.tag(p.k.Schedule(at, fn))
}

// After schedules fn after a delay from the shard's current time.
func (s *Shard) After(d Time, fn func()) EventID { return s.p0.After(d, fn) }

// After schedules fn after a delay from the port's current time.
func (p *Port) After(d Time, fn func()) EventID {
	return p.tag(p.k.After(d, fn))
}

// Cancel prevents a scheduled event from firing (see Port.Cancel).
func (s *Shard) Cancel(id EventID) { s.p0.Cancel(id) }

// Cancel prevents a scheduled event from firing.  An event owned by
// another port cannot be revoked retroactively: the cancellation
// travels as a post and takes effect one lookahead ahead, so the race
// between a cancel and the event firing resolves identically at every
// partition.  If the event fires first, the cancel is a no-op, exactly
// like any cross-node signal.
func (p *Port) Cancel(id EventID) {
	owner := int(id>>portRankShift) - 1
	raw := id & (1<<portRankShift - 1)
	c := p.s.c
	if owner < 0 || owner >= len(c.ports) {
		panic(fmt.Sprintf("sim: cancel of foreign event id %#x", uint64(id)))
	}
	op := c.ports[owner]
	if op == p {
		p.k.Cancel(raw)
		return
	}
	p.PostMsg(op, p.Now()+c.lookahead, (*portCancel)(op), Msg{A: uint64(raw)})
}

// portCancel is a port seen as the receiver of a cross-port Cancel:
// word A of the message is the owner kernel's raw event ID.
type portCancel Port

func (pc *portCancel) Receive(m Msg) { pc.k.Cancel(EventID(m.A)) }

func (p *Port) tag(id EventID) EventID {
	return id | EventID(p.rank+1)<<portRankShift
}

// NextTime reports the earliest pending event across the shard's
// ports.
func (s *Shard) NextTime() (Time, bool) {
	if len(s.ports) == 1 {
		return s.p0.k.NextTime()
	}
	best, found := MaxTime, false
	for _, p := range s.ports {
		if t, ok := p.k.NextTime(); ok && t < best {
			best, found = t, true
		}
	}
	return best, found
}

// NextTime reports the earliest pending event on the port's own
// kernel — the batch runner's execution bound, which fusion leaves
// per-node so batches stay long.
func (p *Port) NextTime() (Time, bool) { return p.k.NextTime() }

// PromiseQuiet records a batch runner's send promise: the pending
// event id (the runner's continuation) will not start or acknowledge
// any link transfer before the given time, because the predecoded
// instructions ahead of it are pure compute with a known minimum cycle
// cost.  The promise dies with the event: once id fires it is ignored,
// and the runner issues a fresh one (or none) at its next batch end.
func (s *Shard) PromiseQuiet(id EventID, until Time) { s.p0.PromiseQuiet(id, until) }

// PromiseQuiet records the port's quiet promise (see
// Shard.PromiseQuiet).  Each port carries its own: fused runners
// promise independently, and both the coordinator's shard send bound
// and the fused member loop discount each promised continuation
// individually.
func (p *Port) PromiseQuiet(id EventID, until Time) {
	p.promiseID = id & (1<<portRankShift - 1)
	p.promiseUntil = until
}

// sendBound is the earliest instant the shard could act in a way
// visible outside it: the minimum of its ports' send bounds.
func (s *Shard) sendBound() Time {
	if len(s.ports) == 1 {
		p := s.p0
		nt, ok := p.k.NextTime()
		if !ok {
			return MaxTime
		}
		return p.sendBoundAt(nt)
	}
	b := MaxTime
	for _, p := range s.ports {
		nt, ok := p.k.NextTime()
		if !ok {
			continue
		}
		if sb := p.sendBoundAt(nt); sb < b {
			b = sb
		}
	}
	return b
}

// sendBoundAt is the earliest instant this port could act in a way
// visible outside its kernel, given nt, its already-peeked next event
// time.  Without a live promise that is simply nt; with one, the
// promised continuation is discounted up to the promised time — the
// other pending events still bound the answer, because any of them
// could cascade into a send at its own instant.  The promise can only
// matter when the promised event is the head of the queue, so the
// linear scan runs only for ports genuinely quiet at their horizon.
func (p *Port) sendBoundAt(nt Time) Time {
	if p.promiseUntil <= nt {
		return nt
	}
	if !p.k.HeadIs(p.promiseID) {
		return nt
	}
	b := p.promiseUntil
	if rest, ok := p.k.NextTimeExcluding(p.promiseID); ok && rest < b {
		b = rest
	}
	return b
}

// runBefore executes the shard's events strictly before hzn.  A lone
// port simply runs its kernel — the one-node-per-shard engine.  A
// fused shard interleaves its member kernels with the same
// conservative rule the coordinator applies across shards, evaluated
// locally with no mutex, no mailbox and no goroutine barrier: a member
// may run to the earliest instant any co-member could influence it,
//
//	bound(p) = min(hzn, min over q != p of sendBound(q) + lookahead)
//
// and because sendBound(q) is never below the global minimum next
// event, the earliest member always gets strictly past its own next
// event — the loop cannot stall.  Port-to-port posts go straight into
// the destination kernel (see Port.PostMsg), which is sound for exactly
// the coordinator's reason: a post from a port executing at T is due
// at T+lookahead or later, and no co-member has run past that.
func (s *Shard) runBefore(hzn Time) {
	if len(s.ports) == 1 {
		p := s.p0
		p.hzn = hzn
		p.k.RunBefore(hzn)
		return
	}
	L := s.c.lookahead
	if len(s.nts) != len(s.ports) {
		s.nts = make([]Time, len(s.ports))
		s.sbs = make([]Time, len(s.ports))
		s.stamps = make([]uint64, len(s.ports))
		for i := range s.stamps {
			s.stamps[i] = ^uint64(0) // force the first refresh
		}
	}
	for {
		// Scan pass: refresh stale cache entries, find the earliest next
		// event and the two smallest send bounds (sb2 covers the member
		// holding sb1 — its own sends cannot bound it).  A member's
		// cached entry can only go stale by executing or by a schedule
		// change, and every schedule change — a delivery posted in, a
		// cross-port cancel, the member's own scheduling while it ran —
		// bumps its kernel stamp.
		m1 := MaxTime
		sb1, sb2 := MaxTime, MaxTime
		sb1i := -1
		for i, q := range s.ports {
			if q.k.stamp != s.stamps[i] {
				s.stamps[i] = q.k.stamp
				if nt, ok := q.k.NextTime(); ok {
					s.nts[i] = nt
					if q.promiseUntil > nt {
						s.sbs[i] = q.sendBoundAt(nt)
					} else {
						s.sbs[i] = nt
					}
				} else {
					s.nts[i] = MaxTime
					s.sbs[i] = MaxTime
				}
			}
			if t := s.nts[i]; t < m1 {
				m1 = t
			}
			if sb := s.sbs[i]; sb < sb1 {
				sb1, sb2, sb1i = sb, sb1, i
			} else if sb < sb2 {
				sb2 = sb
			}
		}
		if m1 >= hzn {
			return
		}
		// Run every member that has work inside its bound, all from the
		// bounds cached at the top of the pass (a mini-barrier, so one
		// scan is amortised over up to len(ports) member runs).  The
		// bound has two terms:
		//
		//   - the earliest co-member send, one lookahead out: a
		//     co-member q sends no earlier than sb(q), so nothing can
		//     land here before sb(q)+L.  Ordering within the pass cannot
		//     matter — deliveries posted by an earlier member arrive at
		//     or above every later member's bound, so no member executes
		//     a same-pass delivery, and every member's own sends stay at
		//     or above its (accurately cached) send bound.
		//
		//   - the member's OWN send bound, two lookaheads out: the
		//     member's first send of this pass, at T >= sb(p), reaches a
		//     co-member at T+L, and that co-member may react the very
		//     instant the delivery executes (the overlapped acknowledge
		//     does exactly this), landing a reply back here at T+2L.
		//     Without this term a member whose neighbours' queues are
		//     empty would run arbitrarily far past its own sends and the
		//     reply would arrive in its past.  Longer reaction chains
		//     only add lookaheads, and chains seeded by a third member r
		//     are covered by r's sb(r)+L term.
		//
		// sendBound(q) >= nextTime(q) >= m1 for every member, so the m1
		// holder always clears its own next event and the loop
		// progresses.
		for i, q := range s.ports {
			sb := sb1
			if i == sb1i {
				sb = sb2
			}
			b := hzn
			if sb < infTime && sb+L < b {
				b = sb + L
			}
			if own := s.sbs[i]; own < infTime && own+2*L < b {
				b = own + 2*L
			}
			if s.nts[i] < b {
				q.hzn = b
				// Mark the runner's entry stale: executing changes its
				// queue without necessarily bumping its stamp.
				s.stamps[i] = ^uint64(0)
				q.k.RunBefore(b)
				s.stLocal++
			}
		}
	}
}

// advanceTo moves every member clock forward to t without firing
// anything; the coordinator uses it to bring the whole system to the
// common limit of a bounded run.
func (s *Shard) advanceTo(t Time) {
	for _, p := range s.ports {
		p.k.AdvanceTo(t)
	}
}

// Horizon is the exclusive bound of the default port's current window.
func (s *Shard) Horizon() Time { return s.p0.hzn }

// Horizon is the exclusive bound of the port's current execution
// window: the coordinator window for a lone port, the tighter member
// bound inside a fused shard.
func (p *Port) Horizon() Time { return p.hzn }

// SetOffset sets the default port kernel's virtual-time displacement.
func (s *Shard) SetOffset(d Time) { s.p0.SetOffset(d) }

// SetOffset sets the port kernel's virtual-time displacement.  Each
// port owns its kernel, so fused runners' displacements never
// interfere.
func (p *Port) SetOffset(d Time) { p.k.SetOffset(d) }

// Stamp mirrors Kernel.Stamp for batch runners.
func (s *Shard) Stamp() uint64 { return s.p0.Stamp() }

// Stamp mirrors Kernel.Stamp for batch runners.
func (p *Port) Stamp() uint64 { return p.k.Stamp() }

// AdvanceTo moves the default port's clock forward without firing
// anything.
func (s *Shard) AdvanceTo(t Time) { s.p0.AdvanceTo(t) }

// AdvanceTo moves the port's clock forward without firing anything; a
// batch runner uses it so the clock ends at the last executed
// instruction, exactly where one-event-per-instruction stepping would
// have left it.
func (p *Port) AdvanceTo(t Time) { p.k.AdvanceTo(t) }

// Post delivers fn to another shard's default port at the given
// absolute time, which must be at least one lookahead in this shard's
// future — the conservative contract the whole engine rests on.
func (s *Shard) Post(dst *Shard, at Time, fn func()) {
	s.p0.Post(dst.p0, at, fn)
}

// Post delivers fn into another port's timeline (see PostMsg, whose
// ordering it shares: closure and typed posts of one port interleave
// in the order they were made).  The closure is the caller's to
// allocate; traffic that flows per packet should use PostMsg.
func (p *Port) Post(dst *Port, at Time, fn func()) {
	p.PostMsg(dst, at, funcReceiver(fn), Msg{})
}

// funcReceiver adapts a closure to the typed post; a func value is
// pointer-shaped, so the conversion allocates nothing.
type funcReceiver func()

func (f funcReceiver) Receive(Msg) { f() }

// PostMsg delivers m to r in another port's timeline at the given
// absolute time, at least one lookahead in this port's future.  When
// the ports share a shard — fusion — the delivery is scheduled directly
// on the destination kernel at its exact timestamp (members of one
// shard never execute concurrently, so that kernel is quiescent);
// otherwise it waits in this port's outbox for the next barrier.  The
// key carries the same (origin rank, per-port sequence) identity either
// way, so the destination kernel's event order does not depend on the
// partition.  Must be called from the port's own execution (or outside
// a run): that single writer is what makes the outbox lock-free.
func (p *Port) PostMsg(dst *Port, at Time, r Receiver, m Msg) {
	seq := p.xseq
	p.xseq++
	if dst.s == p.s {
		p.s.stFused++
		dst.k.ScheduleDelivery(at, deliveryKey(p.rank, seq), r, m)
		return
	}
	p.outbox = append(p.outbox, crossEvent{at: at, seq: seq,
		src: int32(p.rank), dst: int32(dst.rank), rcv: r, msg: m})
}

// CrossPath reports how scheduled work travels from src's clock domain
// to dst's.  For the same port (or both plain kernels) it returns nil
// ports and zero latency: the caller should schedule directly.  For two
// distinct ports of one coordinator it returns them, to post between
// (sp.PostMsg(dp, ...)), and the coordinator's lookahead — the wire
// propagation model every port-to-port delivery respects, whether it
// crosses shards or stays inside a fused one.  Using the posted path
// for fused pairs too is what makes results partition-invariant.
func CrossPath(src, dst Clock) (sp, dp *Port, latency Time) {
	sp, dp = portOf(src), portOf(dst)
	if sp == nil || dp == nil || sp == dp || sp.s.c != dp.s.c {
		return nil, nil, 0
	}
	return sp, dp, sp.s.c.lookahead
}

// portOf resolves a Clock to the port identity CrossPath reasons
// about: a Port itself, a Shard's default port, or nil for a plain
// kernel.
func portOf(c Clock) *Port {
	switch v := c.(type) {
	case *Port:
		return v
	case *Shard:
		return v.p0
	default:
		return nil
	}
}
