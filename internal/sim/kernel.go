// Package sim provides the deterministic discrete-event kernel that
// drives transputer processors, link engines and timers in simulated
// time.
//
// Simulated time is measured in nanoseconds (a 20 MHz transputer cycle
// is 50 ns; a 10 Mbit/s link bit time is 100 ns).  Events at the same
// instant fire in the order they were scheduled, which makes every
// simulation run reproducible.
package sim

import (
	"fmt"
	"strconv"
)

// Time is a simulated instant in nanoseconds from the start of the run.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

// String renders the time with a convenient unit.
func (t Time) String() string { return string(t.AppendTo(nil)) }

// AppendTo appends what String returns to b.
func (t Time) AppendTo(b []byte) []byte {
	switch {
	case t >= Second:
		return append(strconv.AppendFloat(b, float64(t)/float64(Second), 'f', 3, 64), 's')
	case t >= Millisecond:
		return append(strconv.AppendFloat(b, float64(t)/float64(Millisecond), 'f', 3, 64), "ms"...)
	case t >= Microsecond:
		return append(strconv.AppendFloat(b, float64(t)/float64(Microsecond), 'f', 3, 64), "µs"...)
	default:
		return append(strconv.AppendInt(b, int64(t), 10), "ns"...)
	}
}

// MaxTime is the latest representable instant: the horizon of a port
// no coordinator window bounds, and the next-event time of an empty
// queue.
const MaxTime = Time(1<<63 - 1)

// EventID identifies a scheduled event so it can be cancelled.  The zero
// value is never a valid ID.
type EventID uint64

// Clock is the scheduling interface machines, link engines and hosts
// are written against.  A Port implements it — every simulated machine
// runs on one — and so does a bare Kernel, the plain event queue a
// port wraps, which is all that host-to-host link experiments and
// protocol tests need.
type Clock interface {
	Now() Time
	Schedule(at Time, fn func()) EventID
	After(d Time, fn func()) EventID
	Cancel(id EventID)
}

// Msg is the payload of a typed delivery: two pointer-free words whose
// meaning belongs to the Receiver.  A message travels by value, so a
// cross-port post needs neither an allocation nor sender-owned storage
// that the receiving worker would have to read.
type Msg struct{ A, B uint64 }

// Receiver is the destination of a typed delivery (see Port.PostMsg):
// a long-lived object in the destination port's clock domain that
// knows what the two words of a Msg mean.
type Receiver interface {
	Receive(m Msg)
}

// event is one heap entry.  It is deliberately pointer-free — the
// callback lives in the slot table — so heap sifts are pure scalar
// copies with no GC write barriers on the engine's hottest path — and
// 24 bytes, because the order is one (at, key) pair (see less).
type event struct {
	at   Time
	key  uint64 // same-instant order: localClass|seq for locals, deliveryKey for deliveries
	slot uint32 // index into the kernel's slot table
}

// localClass is the class bit of a local event's key.  Every delivery
// key is below it (see deliveryKey), so at one instant deliveries fire
// before local events, and locals fire in scheduling order.
const localClass = 1 << 63

// slotInfo is the liveness record of one heap entry.  An EventID packs
// the slot index with the slot's generation at scheduling time, so a
// handle held across the event's firing goes stale automatically: the
// pop bumps the generation, and any later Cancel through the old
// handle mismatches.  This keeps per-event bookkeeping to two
// array accesses — no map insert on schedule, no map delete on fire —
// which matters because the kernel executes one of these cycles per
// instruction batch.
type slotInfo struct {
	gen       uint32
	cancelled bool
	fn        func() // the event's callback, cleared when the slot retires

	// A typed delivery (ScheduleDelivery) has no fn: it fires as
	// rcv.Receive(msg).  rcv is cleared with fn when the slot retires.
	rcv Receiver
	msg Msg
}

// Kernel is a time-ordered event queue.  It is not safe for concurrent
// use by itself; a Coordinator runs disjoint kernels on parallel
// goroutines, but each individual kernel is only ever touched by one
// goroutine at a time.
type Kernel struct {
	now     Time
	heap    []event
	nextSeq uint64
	slots   []slotInfo
	free    []uint32 // recycled slot indices
	live    int      // heap entries not cancelled
	ncancel int      // heap entries cancelled but not yet reaped

	// offset is a virtual-time displacement added to Now: a batched
	// instruction runner advances it between kernel events so that
	// everything executed mid-batch (probe stamps, timer arithmetic,
	// new events) sees time move exactly as if each instruction had
	// been its own event.
	offset Time

	// stamp increments on every Schedule and Cancel, letting a batch
	// runner cheaply detect that its cached execution bound is stale.
	stamp uint64
}

// NewKernel returns a kernel at time zero.
func NewKernel() *Kernel {
	return &Kernel{}
}

// EventID layout: slot+1 in bits 32..47, generation in bits 0..31.
// Bits 48 and up stay clear for the coordinator's port-rank tag, and
// slot+1 keeps the zero ID invalid.  A slot's generation advances once
// per event that lives on it; at one event per simulated microsecond a
// slot would need a century of simulated time to wrap.
const (
	slotShift = 32
	slotLimit = 1<<(portRankShift-slotShift) - 1
	genMask   = 1<<slotShift - 1
)

// alloc takes a slot for a new event and returns its index and ID.
func (k *Kernel) alloc() (uint32, EventID) {
	var s uint32
	if n := len(k.free); n > 0 {
		s = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		if len(k.slots) >= slotLimit {
			// Unreachable from input: a machine keeps a fixed handful of events pending (runner, timer, link engines).
			panic("sim: too many concurrent events")
		}
		k.slots = append(k.slots, slotInfo{})
		s = uint32(len(k.slots) - 1)
	}
	return s, EventID(uint64(s+1)<<slotShift | uint64(k.slots[s].gen))
}

// reap retires a popped heap entry's slot: the generation bump stales
// every outstanding handle, the callback reference is released, and
// the slot returns to the freelist.
func (k *Kernel) reap(slot uint32) {
	s := &k.slots[slot]
	s.gen++
	s.fn = nil
	s.rcv = nil
	k.free = append(k.free, slot)
}

// fire runs a live entry that has just left the heap: the slot retires
// before the callback, so the callback may reuse it.
func (k *Kernel) fire(e event) {
	s := &k.slots[e.slot]
	fn, rcv, msg := s.fn, s.rcv, s.msg
	k.reap(e.slot)
	k.now = e.at
	k.live--
	if fn != nil {
		fn()
	} else {
		rcv.Receive(msg)
	}
}

// lookup resolves an ID to its live slot, or -1 if the handle is
// stale, cancelled or invalid.
func (k *Kernel) lookup(id EventID) int {
	s := int(id>>slotShift) - 1
	if s < 0 || s >= len(k.slots) {
		return -1
	}
	if k.slots[s].gen != uint32(id&genMask) || k.slots[s].cancelled {
		return -1
	}
	return s
}

// Now returns the current simulated time (including any virtual-time
// offset a batch runner has applied).
func (k *Kernel) Now() Time { return k.now + k.offset }

// SetOffset sets the virtual-time displacement added to Now.  Batch
// runners raise it as they execute instructions between kernel events
// and must restore it to zero before returning to the event loop.
func (k *Kernel) SetOffset(d Time) { k.offset = d }

// Stamp returns a counter that changes whenever the schedule changes
// (an event scheduled or cancelled); batch runners use it to know when
// a cached execution bound must be recomputed.
func (k *Kernel) Stamp() uint64 { return k.stamp }

// Pending reports the number of scheduled, uncancelled events.
func (k *Kernel) Pending() int { return k.live }

// NextTime reports the time of the earliest pending event.  Once it
// reports true, heap[0] is that event.  It is small enough to inline
// into the fused member loop's scan; reaping cancelled tops is the rare
// case and stays out of line.
func (k *Kernel) NextTime() (Time, bool) {
	if k.ncancel > 0 {
		k.reapCancelledTops()
	}
	if len(k.heap) == 0 {
		return 0, false
	}
	return k.heap[0].at, true
}

func (k *Kernel) reapCancelledTops() {
	for len(k.heap) > 0 && k.slots[k.heap[0].slot].cancelled {
		slot := k.pop().slot
		k.slots[slot].cancelled = false
		k.ncancel--
		k.reap(slot)
	}
}

// HeadIs reports whether the earliest pending event is the one the
// handle names — the coordinator's check for whether a quiet promise
// covers the head of the queue, without materialising the head's ID.
func (k *Kernel) HeadIs(id EventID) bool {
	if _, ok := k.NextTime(); !ok {
		return false
	}
	e := k.heap[0]
	s := int(id>>slotShift) - 1
	return s == int(e.slot) && k.slots[e.slot].gen == uint32(id&genMask)
}

// NextTimeExcluding reports the time of the earliest pending event
// other than the one named — the coordinator's send-bound scan, which
// discounts a runner continuation covered by a quiet promise.  The
// scan is linear over the heap; shard heaps hold a handful of events,
// and cancelled entries are skipped by their slot flag.
func (k *Kernel) NextTimeExcluding(id EventID) (Time, bool) {
	xslot := k.lookup(id)
	best := MaxTime
	found := false
	for _, e := range k.heap {
		if int(e.slot) == xslot || (k.ncancel > 0 && k.slots[e.slot].cancelled) {
			continue
		}
		if e.at < best {
			best = e.at
			found = true
		}
	}
	return best, found
}

// Schedule runs fn at the given absolute time, which must not be in the
// past.  It returns an ID that can be passed to Cancel.
func (k *Kernel) Schedule(at Time, fn func()) EventID {
	if at < k.now+k.offset {
		// Unreachable from input: machines, link engines and hosts schedule at Now() plus a non-negative delay.
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, k.now+k.offset))
	}
	s, id := k.alloc()
	k.slots[s].fn = fn
	k.push(event{at: at, key: localClass | k.nextSeq, slot: s})
	k.nextSeq++
	k.live++
	k.stamp++
	return id
}

// ScheduleDelivery schedules a cross-port delivery of m to r, ordered
// among same-instant events by key — the coordinator's deliveryKey,
// which packs the source port and its per-source sequence below the
// class bit, so the delivery runs before any same-instant local event
// and the order is independent of which window barrier did the
// injecting (see less).
func (k *Kernel) ScheduleDelivery(at Time, key uint64, r Receiver, m Msg) EventID {
	if at < k.now+k.offset {
		// Unreachable from input: every post is due at least one lookahead out, past anything the window lets run.
		panic(fmt.Sprintf("sim: delivery at %v before now %v", at, k.now+k.offset))
	}
	s, id := k.alloc()
	k.slots[s].rcv, k.slots[s].msg = r, m
	k.push(event{at: at, key: key, slot: s})
	k.live++
	k.stamp++
	return id
}

// After schedules fn after a delay from the current (virtual) time.
func (k *Kernel) After(d Time, fn func()) EventID {
	return k.Schedule(k.now+k.offset+d, fn)
}

// Cancel prevents a scheduled event from firing.  Cancelling an event
// that has already fired (or was already cancelled) is a no-op: the
// slot generation in the ID goes stale the moment the event pops.
func (k *Kernel) Cancel(id EventID) {
	s := k.lookup(id)
	if s < 0 {
		return
	}
	k.slots[s].cancelled = true
	k.ncancel++
	k.live--
	k.stamp++
}

// Step fires the next event.  It reports false when the queue is empty.
func (k *Kernel) Step() bool {
	if _, ok := k.NextTime(); !ok {
		return false
	}
	k.fire(k.pop())
	return true
}

// Run fires events until the queue is empty and returns the final time.
func (k *Kernel) Run() Time {
	for k.Step() {
	}
	return k.now
}

// RunUntil fires events with time <= limit.  It returns true if the
// queue drained before the limit.
func (k *Kernel) RunUntil(limit Time) bool {
	for {
		at, ok := k.NextTime()
		if !ok {
			return true
		}
		if at > limit {
			if k.now < limit {
				k.now = limit
			}
			return false
		}
		k.fire(k.pop())
	}
}

// RunBefore fires events with time strictly less than the horizon —
// one coordinator window.  Unlike RunUntil it does not advance the
// clock to the bound: the kernel stays at its last-fired event so the
// next window can begin wherever this shard's activity actually is.
// Each turn reads the top once (NextTime, inlined, reaps a cancelled
// top): a top at or past the horizon ends the window, and anything
// else is popped once and fired.
func (k *Kernel) RunBefore(horizon Time) {
	for {
		at, ok := k.NextTime()
		if !ok || at >= horizon {
			return
		}
		k.fire(k.pop())
	}
}

// AdvanceTo moves the clock forward to t without firing anything; the
// coordinator uses it to bring every shard to the common limit of a
// bounded run, mirroring RunUntil's behaviour on a lone kernel.  It
// panics if an event earlier than t is still pending.
func (k *Kernel) AdvanceTo(t Time) {
	if at, ok := k.NextTime(); ok && at < t {
		// Unreachable from input: runners and the coordinator advance only to bounds no pending event precedes.
		panic(fmt.Sprintf("sim: advance to %v past pending event at %v", t, at))
	}
	if k.now < t {
		k.now = t
	}
}

// less orders by time, then key.  The key's class bit makes the
// position of a cross-shard delivery among same-instant local events
// canonical: a delivery's FIFO position would depend on which window
// barrier injected it, and barrier placement shifts with runner quiet
// promises (which the block cache informs) — so without the class bit,
// turning the cache on or off could reorder same-instant events.
// Deliveries (class bit clear) run first, ordered among themselves by
// their mode-independent (source port, source sequence) key; locals
// (class bit set) follow in scheduling order.  One comparison of the
// key gives the three-field (at, class, seq) order.
func less(a, b event) bool {
	return a.at < b.at || a.at == b.at && a.key < b.key
}

func (k *Kernel) push(e event) {
	h := append(k.heap, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !less(e, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	k.heap = h
}

// pop removes and returns the top.  It sifts a hole down from the root
// and drops the last entry into it once, instead of swapping per level.
func (k *Kernel) pop() event {
	h := k.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	k.heap = h
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && less(h[r], h[c]) {
			c = r
		}
		if !less(h[c], last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = last
	}
	return top
}
