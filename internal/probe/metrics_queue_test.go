package probe

import (
	"math"
	"testing"
)

// TestMetricsRunQueueDepth pins the time-weighted run-queue integration
// under a preemption scenario: depth changes carried on ProcReady and
// ProcDispatch events integrate to ∫depth dt / end, the max depth is
// tracked per priority, and switch charges (Dur on ProcDispatch and
// Preempt) accumulate separately from busy time.
func TestMetricsRunQueueDepth(t *testing.T) {
	b := NewBus()
	m := NewMetrics(b)

	// A low-priority process runs, two more become ready (depth 1 then
	// 2), then a high-priority process preempts it, runs, and stops.
	ev := func(e Event) { e.Node = "n0"; b.Publish(e) }
	ev(Event{Kind: ProcDispatch, Time: 0, Proc: 0x101, Pri: 1, Depth: 0, Dur: 0})
	ev(Event{Kind: ProcReady, Time: 1000, Pri: 1, Depth: 1})
	ev(Event{Kind: ProcReady, Time: 3000, Pri: 1, Depth: 2})
	ev(Event{Kind: Preempt, Time: 4000, Proc: 0x101, Dur: 950})
	ev(Event{Kind: ProcDispatch, Time: 4000, Proc: 0x200, Pri: 0, Depth: 0, Dur: 50})
	ev(Event{Kind: ProcReady, Time: 5000, Pri: 0, Depth: 1})
	ev(Event{Kind: ProcReady, Time: 7000, Pri: 0, Depth: 0})
	ev(Event{Kind: Timeslice, Time: 8000})
	ev(Event{Kind: ProcStop, Time: 9000, Proc: 0x200})
	m.Finish(10000)

	// Low priority: depth 0 over [0,1000), 1 over [1000,3000), 2 over
	// [3000,10000] → ∫ = 2000 + 14000 = 16000 depth·ns over 10000 ns.
	avg, max := m.QueueStats("n0", 1)
	if math.Abs(avg-1.6) > 1e-9 {
		t.Errorf("lo avg depth = %v, want 1.6", avg)
	}
	if max != 2 {
		t.Errorf("lo max depth = %d, want 2", max)
	}

	// High priority: depth 0 over [0,5000), 1 over [5000,7000), 0 after
	// → ∫ = 2000 depth·ns → avg 0.2, max 1.
	avg, max = m.QueueStats("n0", 0)
	if math.Abs(avg-0.2) > 1e-9 {
		t.Errorf("hi avg depth = %v, want 0.2", avg)
	}
	if max != 1 {
		t.Errorf("hi max depth = %d, want 1", max)
	}

	// Switch charge: 950 ns state save on the preemption plus 50 ns on
	// the following dispatch.
	if got := m.Switching("n0"); got != 1000 {
		t.Errorf("switching = %d, want 1000", got)
	}

	// Busy time: running [0,9000] (the preempting dispatch at t=4000
	// keeps the processor busy — no stop in between).
	if got := m.NodeBusy("n0"); got != 9000 {
		t.Errorf("busy = %d, want 9000", got)
	}

	// Unknown node / out-of-range priority degrade to zeros.
	if avg, max := m.QueueStats("nope", 1); avg != 0 || max != 0 {
		t.Errorf("unknown node = %v, %d", avg, max)
	}
	if avg, max := m.QueueStats("n0", 2); avg != 0 || max != 0 {
		t.Errorf("bad priority = %v, %d", avg, max)
	}
}

// TestMetricsBadPriority: a dispatch or a ready at a priority with no
// run queue is counted and changes no queue; it must not panic.
func TestMetricsBadPriority(t *testing.T) {
	b := NewBus()
	m := NewMetrics(b)
	for _, pri := range []int{-1, 2, 128} {
		b.Publish(Event{Kind: ProcDispatch, Node: "n0", Time: 10, Pri: pri, Depth: 5})
		b.Publish(Event{Kind: ProcReady, Node: "n0", Time: 20, Pri: pri, Depth: 6})
	}
	m.Finish(100)
	if got := m.lookup("n0").dispatches; got != 3 {
		t.Errorf("%d dispatches counted, want 3", got)
	}
	for pri := 0; pri <= 1; pri++ {
		if avg, max := m.QueueStats("n0", pri); avg != 0 || max != 0 {
			t.Errorf("priority %d queue: avg %v, max %d; want zeros", pri, avg, max)
		}
	}
}
