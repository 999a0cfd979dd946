package route_test

import (
	"fmt"
	"testing"

	"transputer/internal/core"
	"transputer/internal/fault"
	"transputer/internal/network"
	"transputer/internal/route"
	"transputer/internal/sim"
)

func cfg() core.Config { return core.T424().WithMemory(64 * 1024) }

// ring builds an n-node ring with the error-detecting link mode and
// heartbeats on, ready for a router.
func ring(t *testing.T, n int, workers int) (*network.System, []*network.Node) {
	t.Helper()
	s := network.NewSystem()
	if workers > 0 {
		s.SetWorkers(workers)
	}
	nodes := make([]*network.Node, n)
	for i := range nodes {
		nodes[i] = s.MustAddTransputer(fmt.Sprintf("n%d", i), cfg())
	}
	for i := range nodes {
		s.MustConnect(nodes[i], 0, nodes[(i+1)%n], 1)
	}
	s.SetLinkMode(network.LinkMode{Reliable: true})
	s.SetHeartbeat()
	return s, nodes
}

// grid builds a w×h mesh (link 0 east, 1 west, 2 south, 3 north).
func grid(t *testing.T, w, h int) (*network.System, [][]*network.Node) {
	t.Helper()
	s := network.NewSystem()
	nodes := make([][]*network.Node, h)
	for y := range nodes {
		nodes[y] = make([]*network.Node, w)
		for x := range nodes[y] {
			nodes[y][x] = s.MustAddTransputer(fmt.Sprintf("n%d%d", y, x), cfg())
		}
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				s.MustConnect(nodes[y][x], 0, nodes[y][x+1], 1)
			}
			if y+1 < h {
				s.MustConnect(nodes[y][x], 2, nodes[y+1][x], 3)
			}
		}
	}
	s.SetLinkMode(network.LinkMode{Reliable: true})
	s.SetHeartbeat()
	return s, nodes
}

// drain runs the phased quiesce flow: bounded run, stop the perpetual
// timers, then let in-flight traffic settle.
func drain(t *testing.T, s *network.System, r *route.Router, limit sim.Time) {
	t.Helper()
	s.Run(limit)
	r.Stop()
	s.StopHeartbeats()
	rep := s.Continue(limit + 2*sim.Millisecond)
	if !rep.Settled {
		t.Fatalf("system did not settle after the drain window: %+v", rep)
	}
}

// checkExactlyOnce asserts every accepted injection was delivered
// exactly once, in per-stream order.
func checkExactlyOnce(t *testing.T, r *route.Router) {
	t.Helper()
	if n := r.Undelivered(); n != 0 {
		t.Fatalf("%d accepted messages undelivered", n)
	}
	type key struct {
		from, to string
		seq      uint32
	}
	seen := make(map[key]int)
	for _, d := range r.AllDeliveries() {
		seen[key{d.Origin, d.Dest, d.Seq}]++
	}
	for k, n := range seen {
		if n > 1 {
			t.Errorf("message %s->%s seq %d delivered %d times", k.from, k.to, k.seq, n)
		}
	}
	// Per-destination streams must arrive in sequence order.
	last := make(map[[2]string]int64)
	for _, d := range r.AllDeliveries() {
		sk := [2]string{d.Origin, d.Dest}
		prev, ok := last[sk]
		if ok && int64(d.Seq) != prev+1 {
			t.Errorf("stream %s->%s: seq %d delivered after %d", d.Origin, d.Dest, d.Seq, prev)
		}
		last[sk] = int64(d.Seq)
	}
}

// TestRouterRingNoFaults checks the base case: a healthy ring delivers
// everything exactly once with no advertisements ever needed.
func TestRouterRingNoFaults(t *testing.T) {
	s, _ := ring(t, 4, 0)
	r, err := route.Attach(s)
	if err != nil {
		t.Fatal(err)
	}
	var want int
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i == j {
				continue
			}
			for k := 0; k < 3; k++ {
				at := sim.Time(10+k) * sim.Microsecond
				if _, err := r.SendAt(at, fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", j),
					[]byte(fmt.Sprintf("msg %d->%d #%d", i, j, k))); err != nil {
					t.Fatal(err)
				}
				want++
			}
		}
	}
	drain(t, s, r, 4*sim.Millisecond)
	if got := len(r.AllDeliveries()); got != want {
		t.Fatalf("delivered %d messages, want %d", got, want)
	}
	checkExactlyOnce(t, r)
	if rep := s.Watchdog(); rep != nil {
		t.Fatalf("watchdog not clean:\n%s", rep)
	}
}

// TestRouterAttachRequirements covers the two preconditions.
func TestRouterAttachRequirements(t *testing.T) {
	s := network.NewSystem()
	a := s.MustAddTransputer("a", cfg())
	b := s.MustAddTransputer("b", cfg())
	s.MustConnect(a, 0, b, 1)
	if _, err := route.Attach(s); err == nil {
		t.Error("Attach accepted a plain-mode system")
	}
	s.SetLinkMode(network.LinkMode{Reliable: true})
	if _, err := route.Attach(s); err == nil {
		t.Error("Attach accepted a system without heartbeats")
	}
	s.SetHeartbeat()
	if _, err := route.Attach(s); err != nil {
		t.Errorf("Attach rejected a well-configured system: %v", err)
	}
}

// TestRouterSeveredRingHeals is the issue's first acceptance scenario:
// a ring loses a link mid-run, the heartbeat declares it dead, routes
// recompute the long way round, and every message still arrives
// exactly once — including ones injected while the failure was still
// undetected.  The watchdog must come up clean: the resynchronised
// link ends must not linger as DOWN retry-exhausted senders.
func TestRouterSeveredRingHeals(t *testing.T) {
	s, nodes := ring(t, 4, 0)
	r, err := route.Attach(s)
	if err != nil {
		t.Fatal(err)
	}
	// Cut n0<->n1 at 200µs.
	err = s.ApplyFaults(fault.Plan{Rules: []fault.Rule{
		{Kind: fault.Sever, Node: nodes[0].Name, Link: 0, At: 200 * sim.Microsecond},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var want int
	send := func(at sim.Time, from, to string) {
		t.Helper()
		if _, err := r.SendAt(at, from, to, []byte(fmt.Sprintf("%s->%s@%v", from, to, at))); err != nil {
			t.Fatal(err)
		}
		want++
	}
	// Before the cut, across the doomed link; around the cut instant,
	// while the failure is undetected; and well after.
	for _, at := range []sim.Time{
		50 * sim.Microsecond,
		190 * sim.Microsecond,
		210 * sim.Microsecond,
		260 * sim.Microsecond,
		600 * sim.Microsecond,
		2 * sim.Millisecond,
	} {
		send(at, "n0", "n1")
		send(at, "n1", "n0")
		send(at, "n0", "n2")
	}
	drain(t, s, r, 8*sim.Millisecond)
	if got := len(r.AllDeliveries()); got != want {
		t.Fatalf("delivered %d messages, want %d (undelivered %d)", got, want, r.Undelivered())
	}
	checkExactlyOnce(t, r)
	if rep := s.Watchdog(); rep != nil {
		t.Fatalf("watchdog not clean after heal:\n%s", rep)
	}
}

// TestRouterRestartRecovery is the issue's second acceptance scenario:
// a grid node halts mid-run and restarts later; traffic addressed to
// it, from it, and through it all completes exactly once.
func TestRouterRestartRecovery(t *testing.T) {
	s, nodes := grid(t, 3, 3)
	r, err := route.Attach(s)
	if err != nil {
		t.Fatal(err)
	}
	center := nodes[1][1].Name // n11: every neighbour routes through it by default
	err = s.ApplyFaults(fault.Plan{Rules: []fault.Rule{
		{Kind: fault.Halt, Node: center, Link: -1, At: 300 * sim.Microsecond},
		{Kind: fault.Restart, Node: center, Link: -1, At: 900 * sim.Microsecond},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var want int
	send := func(at sim.Time, from, to string) {
		t.Helper()
		rec, err := r.SendAt(at, from, to, []byte(fmt.Sprintf("%s->%s@%v", from, to, at)))
		if err != nil {
			t.Fatal(err)
		}
		_ = rec
		want++
	}
	// Through the centre while it is up, down, and back up.
	for _, at := range []sim.Time{
		50 * sim.Microsecond,
		400 * sim.Microsecond, // centre is down: reroute around it
		2 * sim.Millisecond,   // centre is back
	} {
		send(at, "n00", "n22") // corner to corner, through or around the centre
		send(at, "n10", "n12") // edge to edge
	}
	// To and from the centre across the outage: these can only complete
	// after the restart, via end-to-end replay.
	send(100*sim.Microsecond, "n00", center)
	send(400*sim.Microsecond, "n00", center) // dest down at injection
	send(100*sim.Microsecond, center, "n22")
	send(2*sim.Millisecond, center, "n00")
	// A message injected at the centre while it is down must be refused.
	refused, err := r.SendAt(500*sim.Microsecond, center, "n00", []byte("from the dead"))
	if err != nil {
		t.Fatal(err)
	}
	drain(t, s, r, 12*sim.Millisecond)
	if refused.Accepted {
		t.Error("halted node accepted an injection")
	}
	if got := len(r.AllDeliveries()); got != want {
		t.Fatalf("delivered %d messages, want %d (undelivered %d)", got, want, r.Undelivered())
	}
	checkExactlyOnce(t, r)
	if rep := s.Watchdog(); rep != nil {
		t.Fatalf("watchdog not clean after restart:\n%s", rep)
	}
}

// TestRouterUnsurvivablePartition checks honest failure: severing both
// links of a ring node strands it, the undeliverable traffic is
// reported, and the surviving majority still completes its own
// messages.
func TestRouterUnsurvivablePartition(t *testing.T) {
	s, nodes := ring(t, 4, 0)
	r, err := route.Attach(s)
	if err != nil {
		t.Fatal(err)
	}
	err = s.ApplyFaults(fault.Plan{Rules: []fault.Rule{
		{Kind: fault.Sever, Node: nodes[2].Name, Link: 0, At: 100 * sim.Microsecond},
		{Kind: fault.Sever, Node: nodes[2].Name, Link: 1, At: 100 * sim.Microsecond},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.SendAt(500*sim.Microsecond, "n0", "n2", []byte("stranded")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.SendAt(500*sim.Microsecond, "n0", "n3", []byte("survivor")); err != nil {
		t.Fatal(err)
	}
	drain(t, s, r, 6*sim.Millisecond)
	if n := r.Undelivered(); n != 1 {
		t.Errorf("undelivered = %d, want exactly the stranded message", n)
	}
	got := r.Deliveries("n3")
	if len(got) != 1 || string(got[0].Payload) != "survivor" {
		t.Errorf("survivor stream wrong: %+v", got)
	}
}

// TestRouterOverVChans: routed frames ride virtual channels when a
// link is multiplexed — eight concurrent streams share one physical
// wire, delivery stays exactly-once and in order, and the outcome is
// byte-identical at any worker count.
func TestRouterOverVChans(t *testing.T) {
	outcome := func(workers int) []route.Delivery {
		s := network.NewSystem()
		if workers > 0 {
			s.SetWorkers(workers)
		}
		a := s.MustAddTransputer("a", cfg())
		b := s.MustAddTransputer("b", cfg())
		c := s.MustAddTransputer("c", cfg())
		s.MustConnect(a, 0, b, 1)
		s.MustConnect(b, 0, c, 1)
		s.SetLinkMode(network.LinkMode{Reliable: true})
		s.SetHeartbeat()
		// The a<->b wire carries every stream below; multiplex it.
		if err := s.EnableVChans(a, 0, 8); err != nil {
			t.Fatal(err)
		}
		r, err := route.Attach(s)
		if err != nil {
			t.Fatal(err)
		}
		var want int
		k := 0
		for _, pair := range [][2]string{{"a", "b"}, {"b", "a"}, {"a", "c"}, {"c", "a"}} {
			for i := 0; i < 6; i++ {
				at := sim.Time(20+5*k) * sim.Microsecond
				k++
				if _, err := r.SendAt(at, pair[0], pair[1],
					[]byte(fmt.Sprintf("%s->%s #%d", pair[0], pair[1], i))); err != nil {
					t.Fatal(err)
				}
				want++
			}
		}
		drain(t, s, r, 6*sim.Millisecond)
		if got := len(r.AllDeliveries()); got != want {
			t.Fatalf("delivered %d messages, want %d (undelivered %d)", got, want, r.Undelivered())
		}
		checkExactlyOnce(t, r)
		ms, ok := a.Engine.VChanStats(0)
		if !ok || ms.Chunks == 0 {
			t.Fatalf("the multiplexed wire carried no chunks: %+v ok=%v", ms, ok)
		}
		if rep := s.Watchdog(); rep != nil {
			t.Fatalf("watchdog not clean:\n%s", rep)
		}
		return r.AllDeliveries()
	}
	one := outcome(1)
	four := outcome(4)
	if len(one) != len(four) {
		t.Fatalf("worker count changed delivery count: %d vs %d", len(one), len(four))
	}
	for i := range one {
		x, y := one[i], four[i]
		if x.Origin != y.Origin || x.Dest != y.Dest || x.Seq != y.Seq ||
			x.At != y.At || string(x.Payload) != string(y.Payload) {
			t.Fatalf("delivery %d differs between 1 and 4 workers:\n  %+v\n  %+v", i, x, y)
		}
	}
}

// TestRouterDeterminism requires byte-identical outcomes at one worker
// and four across a fault-heavy run — the cornerstone invariant of the
// whole simulator, now extended over heartbeats, reroutes and
// restarts.
func TestRouterDeterminism(t *testing.T) {
	outcome := func(workers int) []route.Delivery {
		s, nodes := ring(t, 6, workers)
		r, err := route.Attach(s)
		if err != nil {
			t.Fatal(err)
		}
		err = s.ApplyFaults(fault.Plan{Rules: []fault.Rule{
			{Kind: fault.Sever, Node: nodes[1].Name, Link: 0, At: 150 * sim.Microsecond},
			{Kind: fault.Halt, Node: nodes[4].Name, Link: -1, At: 300 * sim.Microsecond},
			{Kind: fault.Restart, Node: nodes[4].Name, Link: -1, At: 900 * sim.Microsecond},
		}})
		if err != nil {
			t.Fatal(err)
		}
		k := 0
		for i := 0; i < 6; i++ {
			for j := 0; j < 6; j++ {
				if i == j {
					continue
				}
				at := sim.Time(20+10*k) * sim.Microsecond
				k++
				if _, err := r.SendAt(at, fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", j),
					[]byte(fmt.Sprintf("%d->%d", i, j))); err != nil {
					t.Fatal(err)
				}
			}
		}
		drain(t, s, r, 12*sim.Millisecond)
		checkExactlyOnce(t, r)
		return r.AllDeliveries()
	}
	one := outcome(1)
	four := outcome(4)
	if len(one) != len(four) {
		t.Fatalf("worker count changed delivery count: %d vs %d", len(one), len(four))
	}
	for i := range one {
		a, b := one[i], four[i]
		if a.Origin != b.Origin || a.Dest != b.Dest || a.Seq != b.Seq ||
			a.At != b.At || string(a.Payload) != string(b.Payload) {
			t.Fatalf("delivery %d differs between 1 and 4 workers:\n  %+v\n  %+v", i, a, b)
		}
	}
}
