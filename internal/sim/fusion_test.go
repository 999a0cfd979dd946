package sim

import (
	"fmt"
	"testing"
)

// The fusion tests pin the partition-invariance contract: the same
// scenario run with every actor on its own shard, all actors fused
// onto one shard, or any mix, produces an identical trace — fused
// delivery replaces the mailbox and barrier but keeps every timestamp
// and every same-instant ordering decision.

// partitions describes how four actors (0..3) map onto shards.
var fourWays = [][][]int{
	{{0}, {1}, {2}, {3}}, // one shard per actor
	{{0, 1, 2, 3}},       // fully fused
	{{0, 1}, {2, 3}},     // two pairs
	{{0, 2}, {1}, {3}},   // an uneven mix
	{{0}, {1, 2, 3}},     // one loner
	{{3, 1}},             // members out of rank order; 0 and 2 left for the run to place
}

// withPartitions runs the scenario once per partition and worker count
// and checks every run produces the trace of the one-shard-per-actor
// workers=1 run.  It works the way the network layer does: one port
// per actor, created in actor order, so each actor's port rank (the
// delivery-key origin) is the same at every partition; the scenario is
// set up on the ports while they are still on no shard; and only then
// is the partition made, one shard per group.
func withPartitions(t *testing.T, build func(ports []*Port, c *Coordinator) *[]string) {
	t.Helper()
	run := func(groups [][]int, workers int) []string {
		const L = Time(100)
		c := NewCoordinator(L)
		c.SetWorkers(workers)
		ports := []*Port{c.NewPort(), c.NewPort(), c.NewPort(), c.NewPort()}
		trace := build(ports, c)
		for _, g := range groups {
			members := make([]*Port, len(g))
			for i, actor := range g {
				members[i] = ports[actor]
			}
			c.NewShard(members...)
		}
		c.Run()
		for actor, p := range ports {
			if p.Shard() == nil {
				t.Errorf("partition %v: actor %d still on no shard after the run", groups, actor)
			}
		}
		return *trace
	}
	want := run(fourWays[0], 1)
	for _, groups := range fourWays {
		for _, w := range []int{1, 4} {
			got := run(groups, w)
			if len(got) != len(want) {
				t.Fatalf("partition %v workers=%d trace %v, want %v", groups, w, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("partition %v workers=%d trace[%d] = %q, want %q",
						groups, w, i, got[i], want[i])
				}
			}
		}
	}
}

// TestFusionPartitionInvariantPingPong: a request/reply chain between
// actors — each delivery provokes the next, the exact pattern that
// bounds how far a fused member may run past its own sends.  The
// trace (actor, time) sequence must be identical at every partition.
func TestFusionPartitionInvariantPingPong(t *testing.T) {
	const L = Time(100)
	withPartitions(t, func(ports []*Port, c *Coordinator) *[]string {
		trace := &[]string{}
		var volley func(from, to int, n int) func()
		volley = func(from, to int, n int) func() {
			return func() {
				*trace = append(*trace, fmt.Sprintf("%d->%d@%v", from, to, ports[to].Now()))
				if n > 0 {
					next := (to + 1) % len(ports)
					post(ports[to], ports[next], ports[to].Now()+L, volley(to, next, n-1))
				}
			}
		}
		ports[0].Schedule(L, func() {
			post(ports[0], ports[1], ports[0].Now()+L, volley(0, 1, 12))
		})
		return trace
	})
}

// TestFusionPartitionInvariantSameInstant: deliveries from several
// actors landing on one actor at the same instant keep their (origin
// rank, sequence) order at every partition, interleaved after the
// destination's earlier-scheduled local events.
func TestFusionPartitionInvariantSameInstant(t *testing.T) {
	const L = Time(100)
	withPartitions(t, func(ports []*Port, c *Coordinator) *[]string {
		trace := &[]string{}
		at := 5 * L
		ports[0].Schedule(at, func() { *trace = append(*trace, "local-0") })
		ports[0].Schedule(at, func() { *trace = append(*trace, "local-1") })
		ports[1].Schedule(L, func() {
			post(ports[1], ports[0], at, func() { *trace = append(*trace, "from-1") })
		})
		ports[2].Schedule(L, func() {
			post(ports[2], ports[0], at, func() { *trace = append(*trace, "from-2-a") })
			post(ports[2], ports[0], at, func() { *trace = append(*trace, "from-2-b") })
		})
		ports[3].Schedule(L, func() {
			post(ports[3], ports[0], at, func() { *trace = append(*trace, "from-3") })
		})
		return trace
	})
}

// TestFusionPartitionInvariantCancel: the posted-cancel contract — a
// cancel issued early enough lands in time, a cancel racing the event
// loses — resolves identically whether the canceller shares the
// owner's shard or not.
func TestFusionPartitionInvariantCancel(t *testing.T) {
	const L = Time(100)
	withPartitions(t, func(ports []*Port, c *Coordinator) *[]string {
		trace := &[]string{}
		far := ports[0].Schedule(10*L, func() { *trace = append(*trace, "far-fired") })
		near := ports[0].Schedule(2*L, func() { *trace = append(*trace, "near-fired") })
		ports[1].Schedule(L, func() {
			ports[1].Cancel(far)
			ports[1].Cancel(near)
		})
		ports[2].Schedule(3*L, func() { *trace = append(*trace, "tick") })
		return trace
	})
}

// TestLoneShardFlushesEveryPass: when one shard holds every port the
// run crosses a single barrier, so the member loop itself tells the
// flush callback how far the whole system has got — often, with a
// low-water mark that never goes back and that no later event
// undercuts.  With a second shard the barriers do the flushing and the
// loop stays out of it.
func TestLoneShardFlushesEveryPass(t *testing.T) {
	const L = Time(100)
	run := func(groups ...[]int) (flushes int, barriers uint64) {
		c := NewCoordinator(L)
		ports := []*Port{c.NewPort(), c.NewPort(), c.NewPort()}
		for _, g := range groups {
			members := make([]*Port, len(g))
			for i, actor := range g {
				members[i] = ports[actor]
			}
			c.NewShard(members...)
		}
		upTo, finals := Time(0), 0
		c.OnFlush(func(t1 Time, final bool) {
			if t1 < upTo {
				t.Errorf("partition %v: flush at %v after one at %v", groups, t1, upTo)
			}
			upTo = t1
			flushes++
			if final {
				finals++
			}
		})
		var volley func(to, n int) func()
		volley = func(to, n int) func() {
			return func() {
				if now := ports[to].Now(); now < upTo {
					t.Errorf("partition %v: event at %v after a flush up to %v", groups, now, upTo)
				}
				if n > 0 {
					next := (to + 1) % len(ports)
					post(ports[to], ports[next], ports[to].Now()+L, volley(next, n-1))
				}
			}
		}
		ports[0].Schedule(L, volley(0, 30))
		c.Run()
		if finals != 1 {
			t.Errorf("partition %v: %d final flushes, want 1", groups, finals)
		}
		return flushes, c.EngineStats().Barriers
	}
	if flushes, barriers := run([]int{0, 1, 2}); barriers != 1 || flushes < 30 {
		t.Errorf("one shard: %d flushes over %d barriers, want one barrier and a flush a pass", flushes, barriers)
	}
	if flushes, barriers := run([]int{0, 1}, []int{2}); uint64(flushes) != barriers+1 {
		t.Errorf("two shards: %d flushes for %d barriers, want one a barrier and the final one", flushes, barriers)
	}
}

// TestDistClosureAfterRewire: the coordinator's influence-distance
// closure after incremental Wire calls must equal a from-scratch
// Floyd–Warshall over the links wired so far — the horizon computation
// trusts dist, so drift here would silently widen or wrongly narrow
// windows.  Before the first Wire call the links are the complete graph
// at the lookahead.
func TestDistClosureAfterRewire(t *testing.T) {
	const L = Time(100)
	type edge struct {
		a, b int
		lat  Time
	}
	c := NewCoordinator(L)
	const n = 6
	for i := 0; i < n; i++ {
		c.NewShard()
	}
	edges := []edge{}
	check := func(stage string) {
		t.Helper()
		// From-scratch Floyd–Warshall over the current edge set.
		want := make([][]Time, n)
		for i := range want {
			want[i] = make([]Time, n)
			for j := range want[i] {
				if i != j {
					want[i][j] = MaxTime
				}
			}
		}
		for _, e := range edges {
			if e.lat < want[e.a][e.b] {
				want[e.a][e.b] = e.lat
			}
		}
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if want[i][k] == MaxTime || want[k][j] == MaxTime {
						continue
					}
					if d := want[i][k] + want[k][j]; d < want[i][j] {
						want[i][j] = d
					}
				}
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				d, connected := c.Dist(i, j)
				if want[i][j] == MaxTime {
					if connected {
						t.Errorf("%s: Dist(%d,%d) = %v, want disconnected", stage, i, j, d)
					}
					continue
				}
				if !connected || d != want[i][j] {
					t.Errorf("%s: Dist(%d,%d) = %v (connected=%v), want %v",
						stage, i, j, d, connected, want[i][j])
				}
			}
		}
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b {
				edges = append(edges, edge{a, b, L})
			}
		}
	}
	check("never wired")

	// A chain with a chord, wired both ways; shard 5 is left out, so
	// nothing reaches it and it reaches nothing.
	edges = edges[:0]
	both := func(a, b int, lat Time) {
		c.Wire(a, b, lat)
		c.Wire(b, a, lat)
		edges = append(edges, edge{a, b, lat}, edge{b, a, lat})
	}
	for i := 0; i+1 < n-1; i++ {
		both(i, i+1, 3*L)
	}
	both(0, 3, 2*L)
	check("initial")

	// A faster parallel link on one segment, a new shortcut, and shard 5
	// closing the ring: the closure must pick the new paths up.
	both(2, 3, L)
	both(1, 4, L)
	both(4, 5, L)
	both(5, 0, L)
	check("after rewires")
}

// streamer is one member of BenchmarkFusedMemberLoop's ring: each
// token it receives costs a local event half a lookahead later (the
// runner wake) that posts the token on to the next member one
// lookahead out, the shape of a streamed link byte.
type streamer struct {
	self  *Port
	next  *streamer
	send  func()
	fired *int
}

func (s *streamer) Receive(Msg) {
	*s.fired++
	s.self.After(s.self.c.lookahead/2, s.send)
}

func (s *streamer) forward() {
	*s.fired++
	s.self.PostMsg(s.next.self, s.self.Now()+s.self.c.lookahead, s.next, Msg{})
}

// BenchmarkFusedMemberLoop prices the fused member loop and the kernel
// under it without the coordinator, the machines or the links: eight
// ports on one shard, three tokens each circulating as deliveries and
// local events, run one lookahead of horizon per iteration through
// Shard.runBefore.  It reports ns per fired event.
func BenchmarkFusedMemberLoop(b *testing.B) {
	const L = 100
	c := NewCoordinator(L)
	ports := make([]*Port, 8)
	ring := make([]*streamer, len(ports))
	fired := 0
	for i := range ports {
		ports[i] = c.NewPort()
		ring[i] = &streamer{self: ports[i], fired: &fired}
		ring[i].send = ring[i].forward
	}
	for i, s := range ring {
		s.next = ring[(i+1)%len(ring)]
		for j := 0; j < 3; j++ {
			s.self.Schedule(Time(j*L/3), s.send)
		}
	}
	sh := c.NewShard(ports...)
	hzn := Time(0)
	for i := 0; i < 64; i++ { // warm-up: grows the heaps and slot tables
		hzn += L
		sh.runBefore(hzn)
	}
	fired = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hzn += L
		sh.runBefore(hzn)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(fired), "ns/event")
}
