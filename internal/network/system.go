// Package network builds systems of transputers: "a system is
// constructed from a collection of transputers which operate
// concurrently and communicate through the standard links" (paper,
// 2.1).  It wires machines together with link engines and host
// devices, and drives everything from a sharded deterministic
// simulation engine: event-queue shards advanced in conservative time
// windows by a coordinator (see internal/sim), with the nodes
// partitioned onto shards when the run starts (see System.seal).  The
// result is bit-for-bit identical for any worker count and partition.
package network

import (
	"fmt"
	"io"

	"transputer/internal/core"
	"transputer/internal/fault"
	"transputer/internal/link"
	"transputer/internal/probe"
	"transputer/internal/sim"
)

// Lookahead is the conservative cross-shard latency: the shortest
// packet a link can carry is an acknowledge (2 bit times at 100 ns),
// so nothing one transputer does can affect another in less than
// 200 ns.  It doubles as the propagation delay of cross-shard wires,
// keeping the paper's streaming behaviour: an early acknowledge still
// crosses back (200 ns out + 200 ns back + 200 ns ack frame = 600 ns)
// well inside the 1100 ns data frame, so transmission stays
// continuous.
const Lookahead = sim.Time(link.AckBits * link.BitNs)

// Node is one transputer in a system: a machine, its link engine, its
// scheduling port (placed on a shard when the run starts: a private
// one, or one shared with fused neighbours), and a probe collector.
type Node struct {
	Name   string
	M      *core.Machine
	Engine *link.Engine
	runner *core.Runner
	port   *sim.Port
	col    *collector
	// peers and peerLink record what each wired link connects to: the
	// node at the other end and its link index (peers[l] is nil for
	// host links).  The restart machinery and the routing layer both
	// need the topology back out of the wiring.
	peers    [core.NumLinks]*Node
	peerLink [core.NumLinks]int
}

// Clock returns the node's scheduling port, for code that needs to
// plant events in this node's timeline — the profiler's sampling
// ticks, fault schedules, experiment harnesses.  The port identifies
// the node even when several fused nodes share one shard.
func (n *Node) Clock() *sim.Port { return n.port }

// collector buffers one node's probe events during a window; the
// coordinator's barrier callback merges all buffers in (time, node)
// order and republishes them on the system bus, so observers see one
// deterministic stream regardless of worker count.
type collector struct {
	bus  *probe.Bus // private per-node bus the machine and engine emit into
	buf  []probe.Event
	next int // merge cursor into buf
}

// System is a collection of transputers and host devices sharing a
// sharded simulation coordinator.
type System struct {
	coord  *sim.Coordinator
	nodes  []*Node
	byName map[string]*Node
	hosts  []*Host
	bus    *probe.Bus
	// reliable is applied to every engine and host end, present and
	// future (see SetReliable).
	reliable bool
	// blockCacheOff is applied to every machine, present and future
	// (see SetBlockCache).
	blockCacheOff bool
	// code is the decoded code every machine shares (see core.CodeStore).
	code *core.CodeStore
	// heartbeat enables liveness monitoring on every engine, present
	// and future; monitors start when Run does.
	heartbeat bool
	// faults are the rules ApplyFaults installed, which EnableVChans
	// reads.
	faults []fault.Rule
	// downSubs and upSubs hear node liveness transitions driven by the
	// fault schedule (halt and restart rules).  Callbacks run on the
	// affected node's shard; subscribe before Run.
	downSubs []func(*Node)
	upSubs   []func(*Node)
	// placement maps node names to one of groups explicit shard groups
	// (see SetPlacement); nil means the partition is derived from the
	// worker count.  sealed is set once the partition is fixed.
	placement map[string]int
	groups    int
	sealed    bool
}

// NewSystem returns an empty system.
func NewSystem() *System {
	return &System{coord: sim.NewCoordinator(Lookahead), byName: make(map[string]*Node),
		code: core.NewCodeStore()}
}

// SetWorkers sets how many OS threads execute shards inside each
// simulation window.  Every value produces identical results; 1 (the
// default) is fully sequential, and with no explicit placement it also
// means one shard (see SetPlacement).
func (s *System) SetWorkers(n int) { s.coord.SetWorkers(n) }

// Workers reports the configured worker count.
func (s *System) Workers() int { return s.coord.Workers() }

// SetBlockCache enables or disables the predecoded block cache on
// every machine in the system, present and future.  Purely a
// simulator-performance switch: traces, statistics and cycle
// accounting are identical either way.
func (s *System) SetBlockCache(on bool) {
	s.blockCacheOff = !on
	for _, n := range s.nodes {
		n.M.SetBlockCache(on)
	}
}

// Now returns the current simulated time.
func (s *System) Now() sim.Time { return s.coord.Now() }

// EngineStats reports windowed-engine diagnostics (window counts,
// barrier mailbox vs fused deliveries, barrier wait).  These describe
// how the simulator ran, not what the simulated system did: they vary
// with partition and workers, unlike every observable output.
func (s *System) EngineStats() sim.EngineStats { return s.coord.EngineStats() }

// AheadStats sums what every node's runner executed past its window's
// horizon, and what stopped it (see core.AheadStats).  Engine
// diagnostics like EngineStats: they say how the simulator ran.
func (s *System) AheadStats() core.AheadStats {
	var total core.AheadStats
	for _, n := range s.nodes {
		total.Add(n.runner.Ahead)
	}
	return total
}

// FusedStats sums every node's idioms run as one step and idiom heads
// split (see core.FusedStats).  Engine diagnostics like AheadStats.
func (s *System) FusedStats() core.FusedStats {
	var total core.FusedStats
	for _, n := range s.nodes {
		total.Add(n.M.FusedStats())
	}
	return total
}

// CreditStats sums what acknowledge credit did on every node's links
// (see link.CreditStats).  A diagnostic of the simulator like the two
// above, but unlike them the same at every partition and worker count —
// and all zero in any run with a probe bus attached.
func (s *System) CreditStats() link.CreditStats {
	var total link.CreditStats
	for _, n := range s.nodes {
		total.Add(n.Engine.CreditStats())
	}
	return total
}

// SetPlacement makes the partition explicit: the members of each group
// share one event-queue shard, so their mutual link traffic is
// delivered as ordinary intra-kernel events with no coordinator barrier
// in between, and every node no group names gets a shard of its own (a
// one-member group says the same of the node it names).  Results are
// byte-identical at any placement; only simulator performance changes.
//
// This is the whole placement rule.  The partition is fixed when the
// first Run or Continue starts, from what the system then knows: an
// explicit placement is honoured as given; with none, one worker means
// one shard — a run that can never execute two shards at once has no
// use for a barrier or a mailbox between them — and more than one
// worker means one shard a node.  So the order of SetPlacement,
// SetWorkers, AddTransputer and Connect does not matter, only that
// they come before the run.  No name may appear twice.
func (s *System) SetPlacement(groups [][]string) error {
	if s.sealed {
		return fmt.Errorf("network: placement after the run has started")
	}
	if s.placement == nil {
		s.placement = make(map[string]int)
	}
	for _, g := range groups {
		for _, name := range g {
			if _, dup := s.placement[name]; dup {
				return fmt.Errorf("network: node %q named in two fusion groups", name)
			}
			s.placement[name] = s.groups
		}
		s.groups++
	}
	return nil
}

// seal fixes the partition by the rule SetPlacement states, and enters
// every connection between two shards into the coordinator's wiring
// matrix.  Shards are numbered by their earliest member and hold their
// members in creation order, as when AddTransputer placed each node as
// it came.
func (s *System) seal() {
	if s.sealed {
		return
	}
	s.sealed = true
	oneShard := s.placement == nil && s.Workers() == 1
	groupOf := func(n *Node) (int, bool) {
		if oneShard {
			return 0, true
		}
		g, ok := s.placement[n.Name]
		return g, ok
	}
	members := make([][]*sim.Port, max(s.groups, 1))
	for _, n := range s.nodes {
		if g, ok := groupOf(n); ok {
			members[g] = append(members[g], n.port)
		}
	}
	for _, n := range s.nodes {
		if n.port.Shard() != nil {
			continue // placed with an earlier member of its group
		}
		if g, ok := groupOf(n); ok {
			s.coord.NewShard(members[g]...)
		} else {
			s.coord.NewShard(n.port)
		}
	}
	// Window horizons follow the actual topology (shortest influence
	// paths) instead of assuming every shard can reach every other in
	// one Lookahead.  A connection between fused nodes never reaches the
	// matrix: its traffic is intra-kernel and bounds no window.  One that
	// does stays there for the whole run, whatever a fault plan does to
	// the link: a cut wire keeps its ends' windows conservative, and a
	// restart may bring it back.
	for _, n := range s.nodes {
		for _, peer := range n.peers {
			if peer == nil {
				continue // unwired, or a host link
			}
			// Each end enters its own direction.
			if from, to := n.port.Shard(), peer.port.Shard(); from != to {
				s.coord.Wire(from.ID(), to.ID(), Lookahead)
			}
		}
	}
}

// A Clash is a refusal caused by what an earlier call configured: the
// name of transputer Node (Named), the wiring of its link end Node.Link
// (Wired), or the multiplexing of the wire at that end (Multiplexed).
// A topology builder maps it to the line of that call's directive.
type Clash struct {
	With ClashKind
	Node string
	Link int
	msg  string
}

// ClashKind says what a Clash is with.
type ClashKind uint8

const (
	Named ClashKind = iota
	Wired
	Multiplexed
)

func (c *Clash) Error() string { return c.msg }

func clash(with ClashKind, node string, l int, format string, args ...any) *Clash {
	return &Clash{With: with, Node: node, Link: l, msg: "network: " + fmt.Sprintf(format, args...)}
}

// AddTransputer creates a node; which shard it runs on is decided when
// the run starts (see SetPlacement).  The configuration's Name is
// replaced by the node name.
func (s *System) AddTransputer(name string, cfg core.Config) (*Node, error) {
	if s.sealed {
		return nil, fmt.Errorf("network: transputer %q added after the run has started", name)
	}
	if _, dup := s.byName[name]; dup {
		return nil, clash(Named, name, -1, "duplicate transputer name %q", name)
	}
	if len(s.nodes) >= sim.MaxPorts {
		// Every node takes one of the coordinator's ports.
		return nil, fmt.Errorf("network: transputer %q is one too many: a system holds at most %d", name, sim.MaxPorts)
	}
	cfg.Name = name
	m, err := core.NewShared(cfg, s.code)
	if err != nil {
		return nil, err
	}
	// The port's rank is the node creation ordinal (every node allocates
	// exactly one port, in AddTransputer order), so event identities and
	// delivery keys — and with them all observable output — are
	// independent of the partition.
	n := &Node{Name: name, M: m, port: s.coord.NewPort()}
	n.Engine = link.NewEngine(n.port, m)
	n.runner = core.NewRunner(n.port, m, n.Engine)
	m.SetFlowOrigin(uint64(len(s.nodes)) + 1)
	if s.bus != nil {
		s.attachCollector(n)
	}
	if s.reliable {
		n.Engine.SetReliable(true, 0, 0)
	}
	if s.blockCacheOff {
		m.SetBlockCache(false)
	}
	if s.heartbeat {
		n.Engine.SetHeartbeat()
	}
	s.nodes = append(s.nodes, n)
	s.byName[name] = n
	return n, nil
}

// AttachProbe connects every machine, link engine and host in the
// system — present and future — to a probe bus.  Each node emits into
// a private per-node buffer; events reach the given bus merged in
// (time, node) order at window barriers — or, when the whole system is
// one shard, at every pass of its member loop.  With no bus attached
// (the default) the instrumented code paths reduce to one nil check
// and the engine makes no flush call at all.
func (s *System) AttachProbe(b *probe.Bus) {
	s.bus = b
	s.coord.OnFlush(s.flushProbes)
	for _, n := range s.nodes {
		s.attachCollector(n)
	}
}

// attachCollector gives the node a private probe bus feeding its
// window buffer, and rewires any host on the node to it.
func (s *System) attachCollector(n *Node) {
	if n.col != nil {
		return
	}
	col := &collector{bus: probe.NewBus()}
	col.bus.SubscribeRef(func(ev *probe.Event) { col.buf = append(col.buf, *ev) })
	n.col = col
	n.M.AttachProbe(col.bus)
	n.Engine.AttachProbe(col.bus)
	for _, h := range s.hosts {
		if h.node == n {
			h.bus = col.bus
		}
	}
}

// flushProbes is the coordinator's flush callback: it merges every
// node's buffered events with time below upTo (everything, on the
// final flush) and publishes them to the system bus.  Ties are broken
// by node creation order, a rule independent of execution
// interleaving — and the merged stream is independent of when flushes
// happen too: upTo is always a time below which no node will emit
// again, so each call publishes the next stretch of one fixed
// (time, node)-ordered sequence, however the stretches are cut.
//
// Events go to the bus by reference, straight out of the collectors'
// buffers.  A one-shard run calls this on every pass of its member loop,
// mostly with nothing buffered, so that case returns after one look at
// each collector.
func (s *System) flushProbes(upTo sim.Time, final bool) {
	if s.bus == nil || !s.probesBuffered() {
		return
	}
	for {
		var best *collector
		var bestAt sim.Time
		for _, n := range s.nodes {
			c := n.col
			if c == nil || c.next >= len(c.buf) {
				continue
			}
			at := c.buf[c.next].Time
			if !final && at >= upTo {
				continue
			}
			if best == nil || at < bestAt {
				best, bestAt = c, at
			}
		}
		if best == nil {
			break
		}
		s.bus.PublishRef(&best.buf[best.next])
		best.next++
	}
	for _, n := range s.nodes {
		if c := n.col; c != nil && c.next == len(c.buf) {
			c.buf = c.buf[:0]
			c.next = 0
		}
	}
}

// probesBuffered reports whether any collector holds an event: a
// collector the last flush emptied is reset to length zero.
func (s *System) probesBuffered() bool {
	for _, n := range s.nodes {
		if n.col != nil && len(n.col.buf) > 0 {
			return true
		}
	}
	return false
}

// MustAddTransputer is AddTransputer for known-good configurations.
func (s *System) MustAddTransputer(name string, cfg core.Config) *Node {
	n, err := s.AddTransputer(name, cfg)
	if err != nil {
		// Unreachable from input: callers are examples, experiments and test scenarios adding constant models under distinct constant names before the run; trun and tnet build through tool.BuildNetwork, which calls AddTransputer.
		panic(err)
	}
	return n
}

// Node returns a node by name.
func (s *System) Node(name string) (*Node, bool) {
	n, ok := s.byName[name]
	return n, ok
}

// Nodes returns all nodes in creation order.
func (s *System) Nodes() []*Node { return s.nodes }

// Connect wires link la of node a to link lb of node b.
func (s *System) Connect(a *Node, la int, b *Node, lb int) error {
	if la < 0 || la >= core.NumLinks || lb < 0 || lb >= core.NumLinks {
		return fmt.Errorf("network: link index out of range (%d, %d)", la, lb)
	}
	if a.Engine.Connected(la) {
		return clash(Wired, a.Name, la, "link end %s.%d already wired", a.Name, la)
	}
	if b.Engine.Connected(lb) {
		return clash(Wired, b.Name, lb, "link end %s.%d already wired", b.Name, lb)
	}
	if a == b && la == lb {
		return fmt.Errorf("network: cannot connect link end %s.%d to itself", a.Name, la)
	}
	if s.sealed {
		return fmt.Errorf("network: %s link %d connected after the run has started", a.Name, la)
	}
	link.Connect(a.Engine, la, b.Engine, lb)
	a.peers[la], a.peerLink[la] = b, lb
	b.peers[lb], b.peerLink[lb] = a, la
	return nil
}

// Peer reports what link l of the node is wired to: the node at the
// other end and its link index.  ok is false for unwired and
// host-wired links.
func (n *Node) Peer(l int) (peer *Node, peerLink int, ok bool) {
	if l < 0 || l >= core.NumLinks || n.peers[l] == nil {
		return nil, 0, false
	}
	return n.peers[l], n.peerLink[l], true
}

// ProbeBus returns the bus the node's publishers emit into, nil while no
// probe is attached: the check that goes in front of building an event
// for Publish.
func (n *Node) ProbeBus() *probe.Bus {
	if n.col == nil {
		return nil
	}
	return n.col.bus
}

// Publish emits a probe event through the node's collector, stamped
// with the node's name and current shard time.  For publishers outside
// the machine and engine — the routing layer — running on the node's
// shard.  The cycle counter is deliberately left unstamped: such
// publishers run asynchronously to the CPU, and its cycle count at
// this instant depends on simulator batching, not architecture.
//
//tvet:ignore probeguard col == nil is the no-probe fast path; a collector always carries a bus
func (n *Node) Publish(ev probe.Event) {
	if n.col == nil {
		return
	}
	ev.Time = n.port.Now()
	ev.Node = n.Name
	n.col.bus.Publish(ev)
}

// SetHeartbeat enables link liveness monitoring on every node,
// present and future; the monitors start when Run does.  route.Attach
// calls it, and the router's Stop stops them.  See link.SetHeartbeat.
func (s *System) SetHeartbeat() {
	s.heartbeat = true
	for _, n := range s.nodes {
		n.Engine.SetHeartbeat()
	}
}

// OnNodeDown registers a callback for nodes stopped by a halt rule.
// It runs on the affected node's shard, at the instant of the halt.
func (s *System) OnNodeDown(fn func(*Node)) { s.downSubs = append(s.downSubs, fn) }

// OnNodeUp registers a callback for nodes revived by a restart rule.
// It runs on the affected node's shard, after the links have resumed
// (and their frozen transfers resent their bytes) and before the
// processor is released.
func (s *System) OnNodeUp(fn func(*Node)) { s.upSubs = append(s.upSubs, fn) }

func (s *System) notifyDown(n *Node) {
	for _, fn := range s.downSubs {
		fn(n)
	}
}

func (s *System) notifyUp(n *Node) {
	for _, fn := range s.upSubs {
		fn(n)
	}
}

// EnableVChans multiplexes count virtual channels over the physical
// wire at link l of the node.  Both ends of the connection get a mux
// (the framing is symmetric, so naming either end is equivalent), and
// both machines get the convention channel words mapped so occam
// programs reach the logical channels through the LINKnVCmOUT/IN
// addresses (see core.MapVChan).  The link must already be connected
// to another transputer (host links carry the boot protocol and cannot
// be multiplexed) and not yet multiplexed, count must be 2 to
// link.MaxVChans, no fault rule may touch the wire (see ApplyFaults),
// and the run must not have started.
func (s *System) EnableVChans(n *Node, l, count int) error {
	peer, pl, ok := n.Peer(l)
	switch {
	case s.sealed:
		return fmt.Errorf("network: vchans on %s link %d enabled after the run has started", n.Name, l)
	case !ok && n.Engine.Connected(l):
		return fmt.Errorf("network: vchan on host link end %s.%d (vchans need a transputer-to-transputer connect)", n.Name, l)
	case !ok:
		return fmt.Errorf("network: vchan on unwired link end %s.%d", n.Name, l)
	case count < 2 || count > link.MaxVChans:
		return fmt.Errorf("network: %d vchans on %s link %d, want 2..%d", count, n.Name, l, link.MaxVChans)
	case n.Engine.VChans(l) > 0:
		return clash(Multiplexed, n.Name, l, "%s link %d is already multiplexed", n.Name, l)
	case s.faulted(n, l) || s.faulted(peer, pl):
		return fmt.Errorf("network: vchans on %s link %d, a wire the fault plan touches", n.Name, l)
	}
	n.Engine.EnableVChans(l, count)
	peer.Engine.EnableVChans(pl, count)
	for vc := 0; vc < count; vc++ {
		n.M.MapVChan(n.M.VChanOutAddr(l, vc), l, vc, true)
		n.M.MapVChan(n.M.VChanInAddr(l, vc), l, vc, false)
		peer.M.MapVChan(peer.M.VChanOutAddr(pl, vc), pl, vc, true)
		peer.M.MapVChan(peer.M.VChanInAddr(pl, vc), pl, vc, false)
	}
	return nil
}

// MustConnect is Connect that panics on bad topology.
func (s *System) MustConnect(a *Node, la int, b *Node, lb int) {
	if err := s.Connect(a, la, b, lb); err != nil {
		// Unreachable from input: callers are examples and test scenarios wiring constant, free links before the run; tnet's topology loader calls Connect.
		panic(err)
	}
}

// AttachHost wires a host device to link l of the node, writing
// program output to w (which may be nil).  The host lives on the
// node's shard, so its traffic takes the synchronous fast path.
func (s *System) AttachHost(n *Node, l int, w io.Writer) (*Host, error) {
	if l < 0 || l >= core.NumLinks {
		return nil, fmt.Errorf("network: link index %d out of range", l)
	}
	if n.Engine.Connected(l) {
		return nil, clash(Wired, n.Name, l, "link end %s.%d already wired", n.Name, l)
	}
	h := newHost(n.port, n, l, w)
	if n.col != nil {
		h.bus = n.col.bus
	}
	if s.reliable {
		h.end.SetReliable(true, 0, 0)
	}
	s.hosts = append(s.hosts, h)
	return h, nil
}

// Load places a program image on the node.
func (n *Node) Load(img core.Image) error { return n.M.Load(img) }

// Report describes the outcome of a run.
type Report struct {
	Time    sim.Time
	Settled bool // event queues drained before the limit
	// Running lists nodes that still had an executing process when the
	// run stopped (only possible when !Settled).
	Running []string
	// Halted lists nodes stopped by faults or halt-on-error.
	Halted []string
	// Blocked lists nodes left idle with processes still waiting on
	// channels, timers or events — in a settled system, the signature
	// of deadlock (or of intentionally stopped processes).
	Blocked []string
}

// Run starts every node and drives the coordinator until every shard
// drains or the limit passes (limit 0 means run to quiescence).  A
// settled system with processes still blocked on channels is
// deadlocked, which the caller can detect from its own completion
// signal (e.g. the host exit command).
func (s *System) Run(limit sim.Time) Report {
	s.seal()
	for _, n := range s.nodes {
		n.runner.Start()
		if s.heartbeat {
			n.Engine.StartHeartbeat()
		}
	}
	if limit > 0 {
		return s.report(s.coord.RunUntil(limit))
	}
	s.coord.Run()
	return s.report(true)
}

// report classifies every node where the run stopped, for Run and
// Continue alike.
func (s *System) report(settled bool) Report {
	rep := Report{Time: s.Now(), Settled: settled}
	for _, n := range s.nodes {
		switch {
		case n.M.Halted():
			rep.Halted = append(rep.Halted, n.Name)
		case !n.M.Idle():
			rep.Running = append(rep.Running, n.Name)
		case n.M.WaitingProcesses() > 0:
			rep.Blocked = append(rep.Blocked, n.Name)
		}
	}
	return rep
}

// TotalStats sums the execution counters across every node.
func (s *System) TotalStats() core.Stats {
	var total core.Stats
	for _, n := range s.nodes {
		total.Add(n.M.Stats())
	}
	return total
}

// Continue resumes a previously run system for another bounded slice
// and reports as Run does.
func (s *System) Continue(until sim.Time) Report {
	s.seal()
	return s.report(s.coord.RunUntil(until))
}
