// Package chaos is the campaign harness for the self-healing network
// stack: it generates seeded random fault plans over fixed topologies,
// runs them against the routing layer, and checks the invariants the
// stack promises — no lost, duplicated or misordered end-to-end
// message while a path survives, a clean watchdog after quiesce, and
// byte-identical outcomes at any worker count.  Every scenario runs
// from the topology file it renders (Scenario.TopologyFile) through
// tnet's build and run path, so a failing plan — automatically shrunk
// to a minimal reproducing rule set — replays under tnet by
// construction.
//
// Everything derives from one seed, so a campaign verdict is a fact
// about the code, not about the weather: `tchaos -seed 17` fails
// identically on every machine until the bug is fixed.
package chaos

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"transputer/internal/fault"
	"transputer/internal/network"
	"transputer/internal/route"
	"transputer/internal/sim"
	"transputer/internal/tool"
)

// Topologies returns the names the harness knows how to build.
func Topologies() []string { return []string{"ring8", "grid3x3"} }

// Scenario is one complete, reproducible chaos run: a topology, the
// generated fault rules, and the message load.
type Scenario struct {
	Topo     string
	Seed     uint64
	Rules    []fault.Rule
	Messages []network.MessageSpec
	RunLimit sim.Time
}

// Result is the verdict on one scenario.
type Result struct {
	Scenario Scenario
	// Failures lists every violated invariant (empty on a clean run).
	Failures []string
	// Shrunk is the minimal failing rule set (nil on a clean run): the
	// same scenario with every rule removed whose absence keeps at
	// least one invariant failing.
	Shrunk *Scenario
}

// Ok reports a clean run.
func (r *Result) Ok() bool { return len(r.Failures) == 0 }

// rng is the same splitmix64 stream the fault package uses, so chaos
// campaigns stay reproducible independent of the standard library.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }
func (r *rng) dur(lo, hi sim.Time) sim.Time {
	return lo + sim.Time(r.next()%uint64(hi-lo))
}

// topoShape describes a buildable topology: node names and connections.
type topoShape struct {
	nodes []string
	conns []network.Connection
}

func shape(topo string) (topoShape, error) {
	switch topo {
	case "ring8":
		var t topoShape
		for i := 0; i < 8; i++ {
			t.nodes = append(t.nodes, fmt.Sprintf("n%d", i))
		}
		for i := 0; i < 8; i++ {
			t.conns = append(t.conns, network.Connection{
				A: t.nodes[i], ALink: 0, B: t.nodes[(i+1)%8], BLink: 1})
		}
		return t, nil
	case "grid3x3":
		var t topoShape
		name := func(y, x int) string { return fmt.Sprintf("n%d%d", y, x) }
		for y := 0; y < 3; y++ {
			for x := 0; x < 3; x++ {
				t.nodes = append(t.nodes, name(y, x))
			}
		}
		// link 0 east, 1 west, 2 south, 3 north
		for y := 0; y < 3; y++ {
			for x := 0; x < 3; x++ {
				if x+1 < 3 {
					t.conns = append(t.conns, network.Connection{
						A: name(y, x), ALink: 0, B: name(y, x+1), BLink: 1})
				}
				if y+1 < 3 {
					t.conns = append(t.conns, network.Connection{
						A: name(y, x), ALink: 2, B: name(y+1, x), BLink: 3})
				}
			}
		}
		return t, nil
	}
	return topoShape{}, fmt.Errorf("chaos: unknown topology %q (want one of %v)", topo, Topologies())
}

// Campaign timing constants.  Faults land early in the run and the
// limit leaves room for the slowest end-to-end replay backoff to fire
// well after the last heal, so an undelivered message means a lost
// path, not a tight schedule.
const (
	faultFrom = 100 * sim.Microsecond
	faultTo   = 1500 * sim.Microsecond
	msgFrom   = 10 * sim.Microsecond
	msgTo     = 2000 * sim.Microsecond
	minOutage = 300 * sim.Microsecond // > 2x the default heartbeat timeout
	runLimit  = 20 * sim.Millisecond
)

// Generate derives a scenario from a topology name and a seed: a
// couple of link cuts, node outages (mostly with recovery), background
// wire noise, and a random message load.  The constraints the network
// layer enforces — one sever per link, one halt/restart cycle per
// node, outages longer than the detection window — are respected by
// construction.
func Generate(topo string, seed uint64) (Scenario, error) {
	t, err := shape(topo)
	if err != nil {
		return Scenario{}, err
	}
	sc := Scenario{Topo: topo, Seed: seed, RunLimit: runLimit}
	r := &rng{state: seed ^ 0x9e2029c8a7b0f3d1} // decouple from the injector's per-wire streams
	severed := make(map[int]bool)               // connection index
	halted := make(map[string]bool)
	for i := 0; i < r.intn(3); i++ {
		c := r.intn(len(t.conns))
		if severed[c] {
			continue
		}
		severed[c] = true
		sc.Rules = append(sc.Rules, fault.Rule{
			Kind: fault.Sever, Node: t.conns[c].A, Link: t.conns[c].ALink,
			At: r.dur(faultFrom, faultTo)})
	}
	for i := 0; i < r.intn(3); i++ {
		n := t.nodes[r.intn(len(t.nodes))]
		if halted[n] {
			continue
		}
		halted[n] = true
		at := r.dur(faultFrom, faultTo-minOutage)
		sc.Rules = append(sc.Rules, fault.Rule{Kind: fault.Halt, Node: n, Link: -1, At: at})
		if r.float() < 0.75 {
			sc.Rules = append(sc.Rules, fault.Rule{Kind: fault.Restart, Node: n, Link: -1,
				At: at + minOutage + r.dur(0, 800*sim.Microsecond)})
		}
	}
	for i := 0; i < r.intn(3); i++ {
		c := t.conns[r.intn(len(t.conns))]
		sc.Rules = append(sc.Rules, fault.Rule{
			Kind: fault.Jitter, Node: c.A, Link: c.ALink,
			Rate: r.float() * 0.5, Max: r.dur(sim.Microsecond, 12*sim.Microsecond)})
	}
	for i := 0; i < r.intn(3); i++ {
		c := t.conns[r.intn(len(t.conns))]
		sc.Rules = append(sc.Rules, fault.Rule{
			Kind: fault.Drop, Node: c.B, Link: c.BLink,
			Rate: r.float() * 0.25, Pkt: fault.AnyPacket})
	}
	for i := 0; i < r.intn(2); i++ {
		c := t.conns[r.intn(len(t.conns))]
		sc.Rules = append(sc.Rules, fault.Rule{
			Kind: fault.Corrupt, Node: c.A, Link: c.ALink, Rate: r.float() * 0.15})
	}
	for i, n := 0, 10+r.intn(15); i < n; i++ {
		from := t.nodes[r.intn(len(t.nodes))]
		to := t.nodes[r.intn(len(t.nodes))]
		if from == to {
			continue
		}
		sc.Messages = append(sc.Messages, network.MessageSpec{
			From: from, To: to, At: r.dur(msgFrom, msgTo),
			Data: fmt.Sprintf("m%d", i)})
	}
	return sc, nil
}

// outcome is everything a single execution yields that the invariant
// checks inspect.
type outcome struct {
	deliveries  []route.Delivery
	injected    []*route.Injected
	undelivered int
	watchdog    *network.WatchdogReport
	settled     bool
}

// execute runs the scenario as tnet replays it: the topology file it
// renders, built by tool.BuildNetwork and run to quiescence at the
// given worker count.
func execute(sc Scenario, workers int) (*outcome, error) {
	topo, err := network.ParseTopology(sc.TopologyFile())
	if err != nil {
		return nil, err
	}
	net, err := tool.BuildNetwork(topo, "", io.Discard)
	if err != nil {
		return nil, err
	}
	net.System.SetWorkers(workers)
	rep := tool.RunToQuiescence(net)
	r := net.Router
	return &outcome{
		deliveries:  r.AllDeliveries(),
		injected:    r.Injected(),
		undelivered: r.Undelivered(),
		watchdog:    net.System.Watchdog(),
		settled:     rep.Settled,
	}, nil
}

// check runs the invariant battery over one execution's outcome.
func check(sc Scenario, o *outcome) []string {
	var fails []string
	if !o.settled {
		fails = append(fails, "system did not settle within the drain window")
	}
	// Exactly-once: no delivery may repeat.
	type key struct {
		from, to string
		seq      uint32
	}
	count := make(map[key]int)
	for _, d := range o.deliveries {
		count[key{d.Origin, d.Dest, d.Seq}]++
	}
	for _, d := range o.deliveries { // in delivery order, so the list reads the same every run
		k := key{d.Origin, d.Dest, d.Seq}
		if n := count[k]; n > 1 {
			fails = append(fails, fmt.Sprintf("message %s->%s seq %d delivered %d times", k.from, k.to, k.seq, n))
			delete(count, k)
		}
	}
	// In order: per (origin, dest) stream, sequences must be delivered
	// ascending by one.
	last := make(map[[2]string]int64)
	for _, d := range o.deliveries {
		sk := [2]string{d.Origin, d.Dest}
		if prev, ok := last[sk]; ok && int64(d.Seq) != prev+1 {
			fails = append(fails, fmt.Sprintf("stream %s->%s: seq %d after %d", d.Origin, d.Dest, d.Seq, prev))
		}
		last[sk] = int64(d.Seq)
	}
	// No loss while a path survives: an accepted message may go
	// undelivered only when its origin or destination is dead at the
	// end, or the final topology disconnects them.
	if o.undelivered > 0 {
		dead, comp := finalTopology(sc)
		got := make(map[key]bool)
		for _, d := range o.deliveries {
			got[key{d.Origin, d.Dest, d.Seq}] = true
		}
		for _, in := range o.injected {
			if !in.Accepted || got[key{in.From, in.To, in.Seq}] {
				continue
			}
			switch {
			case dead[in.From], dead[in.To]:
				// a dead endpoint excuses the loss
			case comp[in.From] != comp[in.To]:
				// partitioned for good
			default:
				fails = append(fails, fmt.Sprintf(
					"message %s->%s seq %d lost although both ends are alive and connected",
					in.From, in.To, in.Seq))
			}
		}
	}
	// Clean watchdog: after quiesce nothing may be blocked, no link may
	// be stuck DOWN, no host stalled.
	if o.watchdog != nil {
		fails = append(fails, fmt.Sprintf("watchdog not clean:\n%s", o.watchdog))
	}
	return fails
}

// finalTopology reports which nodes the plan leaves dead and a
// connected-component label for every node over the surviving links.
func finalTopology(sc Scenario) (dead map[string]bool, comp map[string]int) {
	dead = make(map[string]bool)
	for _, r := range sc.Rules {
		switch r.Kind {
		case fault.Halt:
			dead[r.Node] = true
		case fault.Restart:
			delete(dead, r.Node)
		}
	}
	t, _ := shape(sc.Topo)
	cut := make(map[int]bool)
	for ci, c := range t.conns {
		for _, r := range sc.Rules {
			if r.Kind != fault.Sever {
				continue
			}
			if (r.Node == c.A && r.Link == c.ALink) || (r.Node == c.B && r.Link == c.BLink) {
				cut[ci] = true
			}
		}
	}
	adj := make(map[string][]string)
	for ci, c := range t.conns {
		if cut[ci] || dead[c.A] || dead[c.B] {
			continue
		}
		adj[c.A] = append(adj[c.A], c.B)
		adj[c.B] = append(adj[c.B], c.A)
	}
	comp = make(map[string]int)
	label := 0
	for _, n := range t.nodes {
		if _, seen := comp[n]; seen || dead[n] {
			continue
		}
		label++
		q := []string{n}
		comp[n] = label
		for len(q) > 0 {
			x := q[0]
			q = q[1:]
			for _, y := range adj[x] {
				if _, seen := comp[y]; !seen {
					comp[y] = label
					q = append(q, y)
				}
			}
		}
	}
	return dead, comp
}

// Run executes one scenario: generate nothing (the scenario is given),
// check the invariants at one worker, check worker-count determinism
// against `workers`, and shrink on failure.
func Run(sc Scenario, workers int) (*Result, error) {
	res := &Result{Scenario: sc}
	fails, err := evaluate(sc, workers)
	if err != nil {
		return nil, err
	}
	res.Failures = fails
	if len(fails) > 0 {
		shrunk, err := Shrink(sc, workers)
		if err != nil {
			return nil, err
		}
		res.Shrunk = &shrunk
	}
	return res, nil
}

// evaluate runs the full invariant battery on a scenario: the
// single-worker execution is checked directly, and the multi-worker
// execution must match it byte for byte.
func evaluate(sc Scenario, workers int) ([]string, error) {
	one, err := execute(sc, 1)
	if err != nil {
		return nil, err
	}
	fails := check(sc, one)
	if workers > 1 {
		many, err := execute(sc, workers)
		if err != nil {
			return nil, err
		}
		if a, b := serialize(one.deliveries), serialize(many.deliveries); a != b {
			fails = append(fails, fmt.Sprintf(
				"outcome differs between 1 and %d workers:\n--- workers=1\n%s--- workers=%d\n%s",
				workers, a, workers, b))
		}
	}
	return fails, nil
}

// serialize renders deliveries into the canonical byte-comparable
// form used by the determinism invariant.
func serialize(ds []route.Delivery) string {
	var b strings.Builder
	for _, d := range ds {
		fmt.Fprintf(&b, "%s %s %d %d %q\n", d.Origin, d.Dest, d.Seq, d.At, d.Payload)
	}
	return b.String()
}

// Shrink minimizes a failing scenario's rule set: repeatedly drop any
// rule whose removal keeps the scenario failing, until no single
// removal does.  A halt is dropped together with its restart, keeping
// every intermediate plan valid.  Messages are left untouched — the
// bug is in the rules' interaction, and the load documents it.
func Shrink(sc Scenario, workers int) (Scenario, error) {
	cur := sc
	for {
		removed := false
		for i := 0; i < len(cur.Rules); i++ {
			cand := cur
			cand.Rules = dropRule(cur.Rules, i)
			fails, err := evaluate(cand, workers)
			if err != nil {
				return sc, err
			}
			if len(fails) > 0 {
				cur = cand
				removed = true
				break
			}
		}
		if !removed {
			return cur, nil
		}
	}
}

// dropRule removes rule i, taking a dependent restart along with its
// halt.
func dropRule(rules []fault.Rule, i int) []fault.Rule {
	victim := rules[i]
	out := make([]fault.Rule, 0, len(rules))
	for j, r := range rules {
		if j == i {
			continue
		}
		if victim.Kind == fault.Halt && r.Kind == fault.Restart && r.Node == victim.Node {
			continue
		}
		out = append(out, r)
	}
	return out
}

// TopologyFile renders the scenario as a tnet topology file.  It is
// what execute runs, so a failing plan replays outside the harness on
// the same path:
//
//	tnet shrunk.tnet   # a lost message exits 4 (tool.ExitPartition)
func (sc Scenario) TopologyFile() string {
	t, _ := shape(sc.Topo)
	var b strings.Builder
	fmt.Fprintf(&b, "# chaos scenario: topo=%s seed=%d\n", sc.Topo, sc.Seed)
	fmt.Fprintf(&b, "# regenerate: tchaos -topo %s -seed %d\n\n", sc.Topo, sc.Seed)
	for _, n := range t.nodes {
		fmt.Fprintf(&b, "transputer %s t424 mem=64K\n", n)
	}
	b.WriteString("\n")
	for _, c := range t.conns {
		fmt.Fprintf(&b, "connect %s.%d %s.%d\n", c.A, c.ALink, c.B, c.BLink)
	}
	b.WriteString("\nlinkmode reliable\nheartbeat\nroute\n\n")
	msgs := append([]network.MessageSpec(nil), sc.Messages...)
	sort.Slice(msgs, func(i, j int) bool { return msgs[i].At < msgs[j].At })
	for _, m := range msgs {
		fmt.Fprintf(&b, "message %s %s at=%dns data=%s\n", m.From, m.To, m.At, m.Data)
	}
	fmt.Fprintf(&b, "\nseed %d\n", sc.Seed)
	for _, r := range sc.Rules {
		switch r.Kind {
		case fault.Sever:
			fmt.Fprintf(&b, "fault sever %s.%d at=%dns\n", r.Node, r.Link, r.At)
		case fault.Halt:
			fmt.Fprintf(&b, "fault halt %s at=%dns\n", r.Node, r.At)
		case fault.Restart:
			fmt.Fprintf(&b, "fault restart %s at=%dns\n", r.Node, r.At)
		case fault.Jitter:
			fmt.Fprintf(&b, "fault jitter %s.%d rate=%g max=%dns\n", r.Node, r.Link, r.Rate, r.Max)
		case fault.Drop:
			fmt.Fprintf(&b, "fault drop %s.%d rate=%g pkt=any\n", r.Node, r.Link, r.Rate)
		case fault.Corrupt:
			fmt.Fprintf(&b, "fault corrupt %s.%d rate=%g\n", r.Node, r.Link, r.Rate)
		}
	}
	fmt.Fprintf(&b, "run %dns\n", sc.RunLimit)
	return b.String()
}
