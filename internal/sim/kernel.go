// Package sim provides the deterministic discrete-event kernel that
// drives transputer processors, link engines and timers in simulated
// time.
//
// Simulated time is measured in nanoseconds (a 20 MHz transputer cycle
// is 50 ns; a 10 Mbit/s link bit time is 100 ns).  Events at the same
// instant fire in the order they were scheduled, which makes every
// simulation run reproducible.
package sim

import "fmt"

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
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
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
// copies with no GC write barriers on the engine's hottest path.
type event struct {
	at   Time
	rank uint8  // same-instant class: deliveries (0) before local events (1)
	seq  uint64 // tie-break within a rank: FIFO for locals, (src, xseq) for deliveries
	slot uint32 // index into the kernel's slot table
}

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

// NextTime reports the time of the earliest pending event.
func (k *Kernel) NextTime() (Time, bool) {
	e, ok := k.peek()
	if !ok {
		return 0, false
	}
	return e.at, true
}

// HeadIs reports whether the earliest pending event is the one the
// handle names — the coordinator's check for whether a quiet promise
// covers the head of the queue, without materialising the head's ID.
func (k *Kernel) HeadIs(id EventID) bool {
	e, ok := k.peek()
	if !ok {
		return false
	}
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
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, k.now+k.offset))
	}
	s, id := k.alloc()
	k.slots[s].fn = fn
	k.push(event{at: at, rank: 1, seq: k.nextSeq, slot: s})
	k.nextSeq++
	k.live++
	k.stamp++
	return id
}

// ScheduleDelivery schedules a cross-port delivery of m to r: it runs
// before any same-instant local event, ordered among same-instant
// deliveries by key — the coordinator packs the source port and its
// per-source sequence, a total order independent of which window
// barrier did the injecting (see less).
func (k *Kernel) ScheduleDelivery(at Time, key uint64, r Receiver, m Msg) EventID {
	if at < k.now+k.offset {
		panic(fmt.Sprintf("sim: delivery at %v before now %v", at, k.now+k.offset))
	}
	s, id := k.alloc()
	k.slots[s].rcv, k.slots[s].msg = r, m
	k.push(event{at: at, rank: 0, seq: key, slot: s})
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
	for len(k.heap) > 0 {
		e := k.pop()
		if k.ncancel > 0 && k.slots[e.slot].cancelled {
			k.slots[e.slot].cancelled = false
			k.ncancel--
			k.reap(e.slot)
			continue
		}
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
		return true
	}
	return false
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
		e, ok := k.peek()
		if !ok {
			return true
		}
		if e.at > limit {
			if k.now < limit {
				k.now = limit
			}
			return false
		}
		k.Step()
	}
}

// RunBefore fires events with time strictly less than the horizon —
// one coordinator window.  Unlike RunUntil it does not advance the
// clock to the bound: the kernel stays at its last-fired event so the
// next window can begin wherever this shard's activity actually is.
func (k *Kernel) RunBefore(horizon Time) {
	for {
		e, ok := k.peek()
		if !ok || e.at >= horizon {
			return
		}
		k.Step()
	}
}

// AdvanceTo moves the clock forward to t without firing anything; the
// coordinator uses it to bring every shard to the common limit of a
// bounded run, mirroring RunUntil's behaviour on a lone kernel.  It
// panics if an event earlier than t is still pending.
func (k *Kernel) AdvanceTo(t Time) {
	if e, ok := k.peek(); ok && e.at < t {
		panic(fmt.Sprintf("sim: advance to %v past pending event at %v", t, e.at))
	}
	if k.now < t {
		k.now = t
	}
}

func (k *Kernel) peek() (event, bool) {
	for len(k.heap) > 0 {
		e := k.heap[0]
		if k.ncancel > 0 && k.slots[e.slot].cancelled {
			k.pop()
			k.slots[e.slot].cancelled = false
			k.ncancel--
			k.reap(e.slot)
			continue
		}
		return e, true
	}
	return event{}, false
}

// less orders by time, then rank, then sequence.  The rank makes the
// position of a cross-shard delivery among same-instant local events
// canonical: a delivery's FIFO seq would depend on which window
// barrier injected it, and barrier placement shifts with runner quiet
// promises (which the block cache informs) — so without the rank,
// turning the cache on or off could reorder same-instant events.
// Deliveries run first, ordered among themselves by their
// mode-independent (source shard, source sequence) key.
func less(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.seq < b.seq
}

func (k *Kernel) push(e event) {
	k.heap = append(k.heap, e)
	i := len(k.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !less(k.heap[i], k.heap[parent]) {
			break
		}
		k.heap[i], k.heap[parent] = k.heap[parent], k.heap[i]
		i = parent
	}
}

func (k *Kernel) pop() event {
	top := k.heap[0]
	last := len(k.heap) - 1
	k.heap[0] = k.heap[last]
	k.heap = k.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(k.heap) && less(k.heap[l], k.heap[smallest]) {
			smallest = l
		}
		if r < len(k.heap) && less(k.heap[r], k.heap[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		k.heap[i], k.heap[smallest] = k.heap[smallest], k.heap[i]
		i = smallest
	}
	return top
}
