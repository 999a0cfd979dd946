package sim

import (
	"fmt"
	"testing"

	"transputer/internal/raceflag"
)

// bouncer returns every message it receives to its partner, one
// lookahead on, until the count in word A runs out: a chain of typed
// posts each of which costs a full window.
type bouncer struct {
	self    *Port
	partner *bouncer
	got     int
}

func (b *bouncer) Receive(m Msg) {
	b.got++
	if m.A > 0 {
		b.self.PostMsg(b.partner.self, b.self.Now()+100, b.partner, Msg{A: m.A - 1})
	}
}

// TestTypedPostAllocFree: in steady state a typed post between ports
// on different shards allocates nothing — the outbox, the barrier's
// merge buffer and the kernels' slot tables are all reused.  What a run
// allocates (the worker pool, at workers > 1) does not grow with the
// number of posts.
func TestTypedPostAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const posts = 4096
	for _, workers := range []int{1, 4} {
		c := NewCoordinator(100)
		c.SetWorkers(workers)
		a := &bouncer{self: c.NewShard().Port()}
		b := &bouncer{self: c.NewShard().Port(), partner: a}
		a.partner = b
		volley := func() {
			a.self.PostMsg(b.self, a.self.Now()+100, b, Msg{A: posts - 1})
			c.Run()
		}
		volley() // warm-up: grows the outboxes, merge buffer and slot tables
		before := a.got + b.got
		perRun := testing.AllocsPerRun(5, volley)
		if got := a.got + b.got - before; got != 6*posts {
			t.Fatalf("workers=%d: %d posts delivered, want %d", workers, got, 6*posts)
		}
		// The pool's goroutines and wake-up channel are per run, not per
		// post; sequential runs start none.
		limit := 0.0
		if workers > 1 {
			limit = 32
		}
		if perRun > limit {
			t.Errorf("workers=%d: %v allocations per run of %d posts, want at most %v",
				workers, perRun, posts, limit)
		}
	}
}

// tracer appends its label and the message's first word to a trace.
type tracer struct {
	label string
	trace *[]string
}

func (r tracer) Receive(m Msg) {
	*r.trace = append(*r.trace, fmt.Sprintf("%s-%d", r.label, m.A))
}

// TestClosureAndTypedPostsKeepOrder: a closure Post is a typed post
// underneath, so closure and typed posts made by several ports for the
// same instant land in (time, source port, source sequence) order
// however they are mixed — at every partition and worker count.
func TestClosureAndTypedPostsKeepOrder(t *testing.T) {
	build := func(ports []*Port, c *Coordinator) *[]string {
		trace := &[]string{}
		const L = Time(100)
		at := 6 * L
		dst := ports[0]
		// Port 3 posts first in wall-clock order at one worker (its event
		// is earliest) yet sorts last; port 1's closure sits between its
		// two typed posts.
		ports[3].Schedule(L, func() {
			ports[3].Post(dst, at, func() { *trace = append(*trace, "p3-closure") })
			ports[3].PostMsg(dst, at, tracer{"p3-typed", trace}, Msg{A: 1})
		})
		ports[1].Schedule(2*L, func() {
			ports[1].PostMsg(dst, at, tracer{"p1-typed", trace}, Msg{A: 1})
			ports[1].Post(dst, at, func() { *trace = append(*trace, "p1-closure") })
			ports[1].PostMsg(dst, at, tracer{"p1-typed", trace}, Msg{A: 2})
		})
		ports[2].Schedule(3*L, func() {
			ports[2].Post(dst, at, func() { *trace = append(*trace, "p2-closure") })
		})
		// A local event at the same instant runs after every delivery.
		dst.Schedule(at, func() { *trace = append(*trace, "local") })
		return trace
	}
	withPartitions(t, build)

	c := NewCoordinator(100)
	got := build([]*Port{c.NewPort(), c.NewPort(), c.NewPort(), c.NewPort()}, c)
	c.Run() // a shard each: the run places what nobody placed
	want := "[p1-typed-1 p1-closure p1-typed-2 p2-closure p3-closure p3-typed-1 local]"
	if fmt.Sprint(*got) != want {
		t.Errorf("delivery order %v, want %s", *got, want)
	}
}
