package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// The tests here pin the semantics the parallel engine must preserve
// exactly: same-instant FIFO ordering across window barriers, the
// posted-cancel contract for events owned by another shard, and
// bounded runs whose limit lands in the middle of a window.  Every
// scenario is run at several worker counts and must produce an
// identical trace.

// withWorkers runs the scenario once per worker count and checks every
// run produces the same trace.  build returns the trace after running.
func withWorkers(t *testing.T, build func(workers int) []string) {
	t.Helper()
	want := build(1)
	for _, w := range []int{2, 4} {
		got := build(w)
		if len(got) != len(want) {
			t.Fatalf("workers=%d trace length %d != %d\nwant %v\ngot  %v", w, len(got), len(want), want, got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("workers=%d trace[%d] = %q, want %q", w, i, got[i], want[i])
			}
		}
	}
}

// TestShardSameInstantOrder: events due at one instant on one shard
// fire in the order they were scheduled, even when some were scheduled
// locally and others arrived through the mailbox from different source
// shards across a window barrier.  Mailbox releases are ordered by
// (time, source shard, source sequence), so the interleaving is a
// total order independent of workers.
func TestShardSameInstantOrder(t *testing.T) {
	const L = Time(100)
	withWorkers(t, func(workers int) []string {
		c := NewCoordinator(L)
		c.SetWorkers(workers)
		a, b, d := c.NewShard().Port(), c.NewShard().Port(), c.NewShard().Port()
		var trace []string
		at := 5 * L
		// Local events scheduled first get the lowest kernel sequence
		// numbers and must fire first.
		a.Schedule(at, func() { trace = append(trace, "a-local-0") })
		a.Schedule(at, func() { trace = append(trace, "a-local-1") })
		// Shards b and d each post to a at the same instant from inside
		// their first window; the release order must be b before d
		// (source shard order), after a's local events (scheduled
		// earlier, hence earlier kernel sequence).
		b.Schedule(L, func() { post(b, a, at, func() { trace = append(trace, "from-b") }) })
		d.Schedule(L, func() {
			post(d, a, at, func() { trace = append(trace, "from-d-0") })
			post(d, a, at, func() { trace = append(trace, "from-d-1") })
		})
		c.Run()
		return trace
	})
}

// TestShardCrossCancel: cancelling an event owned by another shard is
// a posted signal, not a retroactive revocation.  A cancel issued more
// than one lookahead before the event's due time lands in time and
// stops it; a cancel of an event that fires within the lookahead is a
// no-op, at any worker count.
func TestShardCrossCancel(t *testing.T) {
	const L = Time(100)
	withWorkers(t, func(workers int) []string {
		c := NewCoordinator(L)
		c.SetWorkers(workers)
		a, b := c.NewShard().Port(), c.NewShard().Port()
		var trace []string
		// Far event: due 10L out; b cancels at time L, the cancel is
		// released at 2L, well before the event.  Must not fire.
		far := a.Schedule(10*L, func() { trace = append(trace, "far-fired") })
		// Near event: due at 2L; b's cancel posted at L is released at
		// 2L, but the event is already in a's window when the cancel
		// arrives no earlier than its due time — it fires first and the
		// cancel is a no-op.
		near := a.Schedule(2*L, func() { trace = append(trace, "near-fired") })
		b.Schedule(L, func() {
			b.Cancel(far)
			b.Cancel(near)
		})
		c.Run()
		trace = append(trace, fmt.Sprintf("end@%v", c.Now()))
		return trace
	})
}

// TestShardRunUntilMidWindow: a bounded run whose limit falls between
// two events fires exactly the events at or before the limit, leaves
// the rest scheduled, parks every shard clock at the limit, and a
// continuation run picks up the remainder — the same contract a lone
// kernel's RunUntil has.
func TestShardRunUntilMidWindow(t *testing.T) {
	const L = Time(100)
	withWorkers(t, func(workers int) []string {
		c := NewCoordinator(L)
		c.SetWorkers(workers)
		a, b := c.NewShard().Port(), c.NewShard().Port()
		// Each shard records its own firings (shards may execute
		// concurrently); the traces are merged by time afterwards —
		// every due time is distinct, so the merge is total.
		var aTrace, bTrace []string
		for i := Time(1); i <= 6; i++ {
			at := i * L
			a.Schedule(at, func() { aTrace = append(aTrace, fmt.Sprintf("a@%v", at)) })
			b.Schedule(at+L/2, func() { bTrace = append(bTrace, fmt.Sprintf("b@%v", at+L/2)) })
		}
		limit := 3*L + L/4 // between a's 3L event and b's 3.5L event
		if done := c.RunUntil(limit); done {
			t.Errorf("workers=%d: run drained below limit unexpectedly", workers)
		}
		nA, nB := len(aTrace), len(bTrace)
		if a.Now() != limit || b.Now() != limit {
			t.Errorf("workers=%d: clocks not parked at limit: a=%v b=%v", workers, a.Now(), b.Now())
		}
		if done := c.RunUntil(10 * L); !done {
			t.Errorf("workers=%d: continuation did not drain", workers)
		}
		trace := []string{
			fmt.Sprintf("paused: fired a=%d b=%d now=%v", nA, nB, limit),
			fmt.Sprintf("end@%v", c.Now()),
		}
		for i := 0; i < len(aTrace) || i < len(bTrace); i++ {
			if i < len(aTrace) {
				trace = append(trace, aTrace[i])
			}
			if i < len(bTrace) {
				trace = append(trace, bTrace[i])
			}
		}
		return trace
	})
}

// TestShardEventAtLimitFires: an event due exactly at the limit is
// inside the bounded run.
func TestShardEventAtLimitFires(t *testing.T) {
	const L = Time(100)
	c := NewCoordinator(L)
	a := c.NewShard().Port()
	b := c.NewShard().Port()
	fired := false
	a.Schedule(4*L, func() { fired = true })
	b.Schedule(5*L, func() {})
	c.RunUntil(4 * L)
	if !fired {
		t.Error("event at the limit did not fire")
	}
}

// TestClockImplementers: a port and the bare kernel it wraps are
// clocks; a shard is not.  Everything schedules through a port, and a
// Shard that grew the Clock methods back would be a second scheduling
// surface for the same job.
func TestClockImplementers(t *testing.T) {
	clock := reflect.TypeOf((*Clock)(nil)).Elem()
	if !reflect.TypeOf((*Port)(nil)).Implements(clock) || !reflect.TypeOf((*Kernel)(nil)).Implements(clock) {
		t.Error("*Port and *Kernel must implement Clock")
	}
	if reflect.TypeOf((*Shard)(nil)).Implements(clock) {
		t.Error("*Shard implements Clock; schedule through its ports instead")
	}
}

// TestSpanClosesLastWindow: the span a run reports ends where the run
// ended, so a lone shard, whose one window runs everything there is,
// reports the stretch from its first event to its last when the run
// drains, and to the limit when the limit stops it.
func TestSpanClosesLastWindow(t *testing.T) {
	const L = Time(100)
	c := NewCoordinator(L)
	p := c.NewShard().Port()
	for _, at := range []Time{L, 3 * L} {
		p.Schedule(at, func() {})
	}
	c.Run()
	if es := c.EngineStats(); es.Windows != 1 || es.SpanSum != 2*L {
		t.Errorf("drained run: %d windows spanning %v, want 1 spanning %v", es.Windows, es.SpanSum, 2*L)
	}
	p.Schedule(4*L, func() {})
	p.Schedule(9*L, func() {})
	if c.RunUntil(6 * L) {
		t.Fatal("the run drained below its limit")
	}
	if es := c.EngineStats(); es.Windows != 2 || es.SpanSum != 5*L {
		t.Errorf("bounded run: %d windows spanning %v, want 2 spanning %v", es.Windows, es.SpanSum, 5*L)
	}
	c.Run()
	if es := c.EngineStats(); es.Windows != 3 || es.SpanSum != 8*L {
		t.Errorf("resumed run: %d windows spanning %v, want 3 spanning %v", es.Windows, es.SpanSum, 8*L)
	}
}
