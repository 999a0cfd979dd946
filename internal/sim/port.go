package sim

import "fmt"

// portRankShift places the owning port's rank (plus one) in the top
// bits of an EventID, so a handle can be routed back to the kernel
// that issued it even when it crosses shards.  Delivery keys carry the
// rank one bit lower (see deliveryKey).
const portRankShift = 48

// Shard is one unit of coordinator scheduling: a group of ports whose
// kernels are advanced together inside a window, by one goroutine at a
// time.  A shard is a place, not a clock: everything that schedules,
// cancels or posts does so through one of its ports.
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
	nts      []Time
	sbs      []Time
	stamps   []uint64
	stLocal  uint64
	stPasses uint64
}

// Port is one participant's handle on a shard: an event kernel of its
// own plus the identity cross-port deliveries are keyed by.  With
// shard fusion several ports share one shard, and their kernels are
// interleaved sequentially without coordinator barriers; a port's rank
// — its creation ordinal across the coordinator — is
// partition-invariant, which keeps event identities and same-instant
// delivery order identical however ports are grouped.  A Port
// implements the Clock interface machines, link engines and hosts are
// written against, plus the batch-stepping surface (NextTime, Horizon,
// Limit, SetOffset, Stamp, AdvanceTo, PromiseQuiet) instruction runners
// drive.
type Port struct {
	c    *Coordinator
	s    *Shard // nil until NewShard places the port
	rank int
	k    *Kernel
	// hzn is the causal horizon of the current window: no delivery from
	// another port can be due before it.  limit is the hard bound of the
	// current run (RunUntil's limit+1, MaxTime for an unbounded run):
	// nothing at all may execute at or past it, because the caller will
	// look at the system there.
	hzn   Time
	limit Time
	xseq  uint64

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

	// stFused counts this port's posts that took the direct route (see
	// PostMsg); written only by the port's own execution.
	stFused uint64
}

// Port returns the shard's first port.
func (s *Shard) Port() *Port { return s.p0 }

// ID returns the shard's index within its coordinator.
func (s *Shard) ID() int { return s.id }

// Shard returns the shard the port lives on, nil while it is unplaced.
func (p *Port) Shard() *Shard { return p.s }

// Now returns the port's current (virtual) time.
func (p *Port) Now() Time { return p.k.Now() }

// Pending reports the scheduled, uncancelled events on this port's own
// kernel.  It deliberately ignores undelivered posts: the answer must
// not depend on how far other shards have progressed inside the
// current window.
func (p *Port) Pending() int { return p.k.Pending() }

// Schedule runs fn at the given time on the port's kernel.  The
// returned ID carries the port's rank, so it can be cancelled from
// anywhere.
func (p *Port) Schedule(at Time, fn func()) EventID {
	return p.tag(p.k.Schedule(at, fn))
}

// After schedules fn on the shard's first port, after a delay from
// that port's current time.
func (s *Shard) After(d Time, fn func()) EventID { return s.p0.After(d, fn) }

// After schedules fn after a delay from the port's current time.
func (p *Port) After(d Time, fn func()) EventID {
	return p.tag(p.k.After(d, fn))
}

// Cancel prevents a scheduled event from firing.  An event owned by
// another port cannot be revoked retroactively: the cancellation
// travels as a post and takes effect one lookahead ahead, so the race
// between a cancel and the event firing resolves identically at every
// partition.  If the event fires first, the cancel is a no-op, exactly
// like any cross-node signal.
func (p *Port) Cancel(id EventID) {
	owner := int(id>>portRankShift) - 1
	raw := id & (1<<portRankShift - 1)
	c := p.c
	if owner < 0 || owner >= len(c.ports) {
		// Unreachable from input: every EventID a caller holds was tagged by one of this coordinator's ports.
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
// Each port carries its own: fused runners promise independently, and
// both the coordinator's shard send bound and the fused member loop
// discount each promised continuation individually.
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
	// When this is the coordinator's only shard there is one barrier a
	// run, so the loop hands observers its own low-water mark instead:
	// m1 below is the earliest pending event anywhere, which is what a
	// barrier passes onFlush as upTo, and final for the same reason —
	// every kernel's clock is at or past it, so nothing can be stamped
	// earlier any more.  (Records a runner executes ahead of its window
	// are stamped later, not earlier, and none are with a bus attached.)
	var flush func(upTo Time, final bool)
	if len(s.c.shards) == 1 {
		flush = s.c.onFlush
	}
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
		s.stPasses++
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
		if flush != nil {
			flush(m1, false)
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
		most := hzn
		if sb2 < infTime && sb2+L < most {
			most = sb2 + L
		}
		for i, q := range s.ports {
			if s.nts[i] >= most {
				continue
			}
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

// Horizon is the exclusive causal bound of the port's current
// execution window: the coordinator window for a lone port, the tighter
// member bound inside a fused shard.  Deliveries from other ports may
// still land at or past it, so only work no delivery can affect (and
// that affects no delivery) may cross it — see core.Runner.
func (p *Port) Horizon() Time { return p.hzn }

// Limit is the exclusive hard bound of the current run: unlike the
// horizon it is not a statement about causality but about the caller,
// who inspects the system at RunUntil's limit.  No instruction may
// start at or past it, however independent of deliveries it is.
func (p *Port) Limit() Time { return p.limit }

// SetOffset sets the port kernel's virtual-time displacement.  Each
// port owns its kernel, so fused runners' displacements never
// interfere.
func (p *Port) SetOffset(d Time) { p.k.SetOffset(d) }

// Stamp mirrors Kernel.Stamp for batch runners.
func (p *Port) Stamp() uint64 { return p.k.Stamp() }

// AdvanceTo moves the port's clock forward without firing anything; a
// batch runner uses it so the clock ends at the last executed
// instruction, exactly where one-event-per-instruction stepping would
// have left it.
func (p *Port) AdvanceTo(t Time) { p.k.AdvanceTo(t) }

// PostMsg delivers m to r in another port's timeline at the given
// absolute time, at least one lookahead in this port's future — the
// conservative contract the whole engine rests on.  When
// the ports share a shard — fusion — the delivery is scheduled directly
// on the destination kernel at its exact timestamp (members of one
// shard never execute concurrently, so that kernel is quiescent; two
// unplaced ports are outside any run, so it is then too);
// otherwise it waits in this port's outbox for the next barrier.  The
// key carries the same (origin rank, per-port sequence) identity either
// way, so the destination kernel's event order does not depend on the
// partition.  Must be called from the port's own execution (or outside
// a run): that single writer is what makes the outbox lock-free.
func (p *Port) PostMsg(dst *Port, at Time, r Receiver, m Msg) {
	seq := p.xseq
	p.xseq++
	if dst.s == p.s {
		p.stFused++
		dst.k.ScheduleDelivery(at, deliveryKey(p.rank, seq), r, m)
		return
	}
	p.outbox = append(p.outbox, crossEvent{at: at, seq: seq,
		src: int32(p.rank), dst: int32(dst.rank), rcv: r, msg: m})
}

// CrossPath reports how scheduled work travels from src's clock domain
// to dst's.  For the same port (or any plain kernel) it returns nil
// ports and zero latency: the caller should schedule directly.  For two
// distinct ports of one coordinator it returns them, to post between
// (sp.PostMsg(dp, ...)), and the coordinator's lookahead — the wire
// propagation model every port-to-port delivery respects, whether it
// crosses shards or stays inside a fused one.  Using the posted path
// for fused pairs too is what makes results partition-invariant.
func CrossPath(src, dst Clock) (sp, dp *Port, latency Time) {
	sp, _ = src.(*Port)
	dp, _ = dst.(*Port)
	if sp == nil || dp == nil || sp == dp || sp.c != dp.c {
		return nil, nil, 0
	}
	return sp, dp, sp.c.lookahead
}
