package tool

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"maps"
	"path/filepath"
	"slices"

	"transputer/internal/core"
	"transputer/internal/fault"
	"transputer/internal/network"
	"transputer/internal/route"
	"transputer/internal/sim"
)

// Program records what was loaded on one node, for tools that need the
// image (source maps) or the source path (profile reports) afterwards.
type Program struct {
	Node  *network.Node
	Image core.Image
	Path  string // resolved source/image path; empty for unloaded nodes
}

// Network is a system built from a topology, with its hosts and loaded
// programs.
type Network struct {
	System   *network.System
	Hosts    []*network.Host
	Programs []Program
	// Router is the routing layer, when the topology enables it.
	Router *route.Router
	// Limit is the topology's run limit; zero runs to quiescence.
	Limit sim.Time
}

// BuildNetwork constructs a system from a parsed topology.  Program
// paths are resolved relative to baseDir; host output goes to out.  The
// system checks how one spec fits the others (refuse places its
// refusals); the build checks what only a topology says: inputs go to a
// node with a host, messages need route, and no timed fault or message
// comes after a run limit (it would fire in the drain after the run).
func BuildNetwork(topo *network.Topology, baseDir string, out io.Writer) (*Network, error) {
	s := network.NewSystem()
	net := &Network{System: s, Limit: topo.RunLimit}
	fail := func(line int, err error) (*Network, error) { return nil, refuse(topo, s, line, err) }
	node := func(name string) (*network.Node, error) {
		if n, ok := s.Node(name); ok {
			return n, nil
		}
		return nil, fmt.Errorf("unknown transputer %q", name)
	}
	for _, spec := range topo.Transputers {
		cfg, err := ModelConfig(spec.Model, spec.MemBytes)
		if err != nil {
			return fail(spec.Line, err)
		}
		n, err := s.AddTransputer(spec.Name, cfg)
		if err != nil {
			return fail(spec.Line, err)
		}
		if spec.Program == "" {
			continue
		}
		path := filepath.Join(baseDir, spec.Program)
		img, err := LoadAny(path, cfg.WordBits/8)
		if err == nil {
			err = n.Load(img)
		}
		if err != nil {
			return fail(spec.Line, fmt.Errorf("%s: %w", spec.Name, err))
		}
		net.Programs = append(net.Programs, Program{Node: n, Image: img, Path: path})
	}
	for _, c := range topo.Connections {
		a, err := node(c.A)
		if err != nil {
			return fail(c.Line, err)
		}
		b, err := node(c.B)
		if err == nil {
			err = s.Connect(a, c.ALink, b, c.BLink)
		}
		if err != nil {
			return fail(c.Line, err)
		}
	}
	// Hosts come before vchans, so a vchan on a host link is refused as
	// one.
	hosted := make(map[string]bool)
	for _, h := range topo.Hosts {
		n, err := node(h.Node)
		if err != nil {
			return fail(h.Line, err)
		}
		host, err := s.AttachHost(n, h.Link, out)
		if err != nil {
			return fail(h.Line, err)
		}
		host.QueueInput(topo.Inputs[h.Node]...)
		net.Hosts = append(net.Hosts, host)
		hosted[h.Node] = true
	}
	for _, name := range slices.Sorted(maps.Keys(topo.Inputs)) {
		if _, err := node(name); err != nil || !hosted[name] {
			return fail(topo.InputLines[name], cmp.Or(err, fmt.Errorf("input for %q, which has no host", name)))
		}
	}
	for _, vc := range topo.VChans {
		n, err := node(vc.Node)
		if err == nil {
			err = s.EnableVChans(n, vc.Link, vc.Count)
		}
		if err != nil {
			return fail(vc.Line, err)
		}
	}
	if topo.Reliable {
		s.SetReliable()
	}
	if len(topo.Messages) != 0 && !topo.Route {
		return fail(topo.Messages[0].Line, errors.New("message directives require a route directive"))
	}
	if topo.Route {
		r, err := route.Attach(s)
		if err != nil {
			return fail(topo.RouteLine, err)
		}
		net.Router = r
	}
	late := func(at sim.Time) bool { return topo.RunLimit > 0 && at > topo.RunLimit }
	for i, r := range topo.Faults {
		if r.Timed() && late(r.At) {
			return fail(0, &fault.RuleError{Rule: i, Prev: -1, Err: fmt.Errorf("fault %s at %v is after the run limit of %v", r.Kind, r.At, topo.RunLimit)})
		}
	}
	if err := s.ApplyFaults(topo.Plan()); err != nil {
		return fail(0, err)
	}
	for _, m := range topo.Messages {
		var err error
		if late(m.At) {
			err = fmt.Errorf("message at %v is after the run limit of %v", m.At, topo.RunLimit)
		} else {
			_, err = net.Router.SendAt(m.At, m.From, m.To, []byte(m.Data))
		}
		if err != nil {
			return fail(m.Line, err)
		}
	}
	return net, nil
}

// refuse places an error the system returned while building the spec at
// line as "topology line N: …"; with no line (a topology built in code)
// the error passes as it is.  A *fault.RuleError is placed at its
// rule's line, naming the earlier rule's.  A *network.Clash is placed at
// the second of the specs that name what it clashes with — a name's
// declaration, a link end's wiring, a wire's vchan — naming the first;
// in a fault rule's refusal it stays at the rule and names the vchan.
func refuse(topo *network.Topology, s *network.System, line int, err error) error {
	msg, note := err, ""
	var re *fault.RuleError
	if errors.As(err, &re) && re.Rule < len(topo.FaultLines) {
		line, msg = topo.FaultLines[re.Rule], re.Err
		if re.Prev >= 0 {
			note = fmt.Sprintf(" (first at line %d)", topo.FaultLines[re.Prev])
		}
	}
	var c *network.Clash
	if errors.As(err, &c) {
		lines := clashLines(topo, s, c)
		switch {
		case re != nil && len(lines) > 0:
			note = fmt.Sprintf(" (vchan at line %d)", lines[0])
		case re == nil && len(lines) > 1:
			line, note = lines[1], fmt.Sprintf(" (first at line %d)", lines[0])
		}
	}
	if line == 0 {
		return err
	}
	return fmt.Errorf("topology line %d: %w%s", line, msg, note)
}

// clashLines returns, in order, the lines of the specs that name what c
// clashes with.
func clashLines(topo *network.Topology, s *network.System, c *network.Clash) []int {
	var lines []int
	add := func(names bool, line int) {
		if names && line > 0 {
			lines = append(lines, line)
		}
	}
	is := func(node string, l int) bool { return node == c.Node && l == c.Link }
	switch c.With {
	case network.Named:
		for _, t := range topo.Transputers {
			add(t.Name == c.Node, t.Line)
		}
	case network.Wired:
		for _, k := range topo.Connections {
			add(is(k.A, k.ALink) || is(k.B, k.BLink), k.Line)
		}
		for _, h := range topo.Hosts {
			add(is(h.Node, h.Link), h.Line)
		}
	case network.Multiplexed:
		for _, v := range topo.VChans {
			if n, ok := s.Node(v.Node); ok {
				peer, pl, ok := n.Peer(v.Link)
				add(is(v.Node, v.Link) || ok && is(peer.Name, pl), v.Line)
			}
		}
	}
	slices.Sort(lines)
	return lines
}

// PrintLinkStats writes the traffic counters of each connected link's
// outgoing wire: data bytes (goodput), acknowledges and occupancy,
// plus retransmitted bytes and virtual-channel framing counters when
// the run produced any.
func PrintLinkStats(w io.Writer, n *network.Node) {
	for i := 0; i < core.NumLinks; i++ {
		if !n.Engine.Connected(i) {
			continue
		}
		ws := n.Engine.WireStats(i)
		fmt.Fprintf(w, "  link %d out-wire: %d data bytes, %d acks, busy %v",
			i, ws.DataBytes, ws.Acks, sim.Time(ws.BusyNs))
		if ws.Retransmits > 0 {
			fmt.Fprintf(w, ", %d retransmitted", ws.Retransmits)
		}
		fmt.Fprintln(w)
		if ms, ok := n.Engine.VChanStats(i); ok {
			fmt.Fprintf(w, "  link %d vchans: %d over one wire, %d chunks, %d payload bytes, %d credit frames\n",
				i, n.Engine.VChans(i), ms.Chunks, ms.ChunkBytes, ms.Credits)
		}
	}
}

// OneNode is trun's topology: one transputer, main, running program
// with a host on its link 0 — a system of one, configured as a system
// of many is.
func OneNode(model string, memBytes int, program string) *network.Topology {
	return &network.Topology{
		Transputers: []network.TransputerSpec{{Name: "main", Model: model, MemBytes: memBytes, Program: program}},
		Hosts:       []network.HostSpec{{Node: "main", Link: 0}},
	}
}

// NetFlags are the run flags tnet and trun share, once parsed.
type NetFlags struct {
	Tool                        string // the command, prefixing its messages ("tnet", "trun")
	Stats, Metrics, EngineStats bool
	Trace                       bool // every instruction to stderr, through one writer: a one-worker run's (trun's -trace)
	Workers                     int
	Timeline, Flows, Prof       string
}

// profileEvery is the sampling period of a tool's -prof profile, in
// simulated time.
const profileEvery = 10 * sim.Microsecond

// RunNet is tnet and trun — each command is flag parsing around this
// call, so a test that drives it runs what the tools run: the parsed
// topology (program paths relative to baseDir) built by BuildNetwork
// with host output to stdout, then Run under the flags with everything
// else to stderr; it returns the exit code (see Verdict).
func RunNet(f NetFlags, topo *network.Topology, baseDir string, stdout, stderr io.Writer) int {
	net, err := BuildNetwork(topo, baseDir, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", f.Tool, err)
		return 1
	}
	return net.Run(f, stderr)
}

// Run runs a built network under the flags, reporting to stderr, and
// returns the exit code (see Verdict).  The partition follows
// f.Workers (network.System.SetPlacement says how) and the block cache
// is on, unless the caller set either on net.System first — which no
// command does, and the determinism matrix does for every leg.
func (net *Network) Run(f NetFlags, stderr io.Writer) int {
	fatal := func(err error) int {
		fmt.Fprintf(stderr, "%s: %v\n", f.Tool, err)
		return 1
	}
	s := net.System
	s.SetWorkers(f.Workers)
	flushTrace := func() error { return nil }
	if f.Trace {
		var tw core.Trace
		tw, flushTrace = core.TraceWriter(stderr)
		for _, p := range net.Programs {
			p.Node.M.SetTrace(tw)
		}
	}

	obs := NewObserver(s)
	if f.Timeline != "" {
		obs.EnableTimeline(f.Timeline)
	}
	if f.Metrics {
		obs.EnableMetrics()
	}
	if f.Flows != "" {
		obs.EnableFlows(f.Flows, LineResolver(net.Programs))
	}
	if f.Prof != "" {
		obs.EnableProfile(f.Prof, profileEvery)
		for _, p := range net.Programs {
			obs.AddProfileTarget(p.Node, p.Image, p.Path)
		}
	}
	obs.Start()

	rep := RunToQuiescence(net)
	if err := flushTrace(); err != nil {
		return fatal(err)
	}
	if !rep.Settled {
		fmt.Fprintf(stderr, "%s: time limit reached at %v (still running: %v)\n",
			f.Tool, rep.Time, rep.Running)
	}
	for _, name := range rep.Halted {
		n, _ := s.Node(name)
		fmt.Fprintf(stderr, "%s: %s halted: %v\n", f.Tool, name, n.M.Fault())
	}
	failed := false
	for _, n := range s.Nodes() {
		if n.M.ErrorFlag() {
			fmt.Fprintf(stderr, "%s: %s error flag set\n", f.Tool, n.Name)
		}
		failed = failed || programFailed(n.M)
	}
	var wd *network.WatchdogReport
	if rep.Settled {
		if wd = s.Watchdog(); wd != nil {
			wd.Write(stderr, LineResolver(net.Programs))
		}
	}
	undelivered := 0
	if net.Router != nil {
		undelivered = net.Router.Undelivered()
		PrintRouteSummary(stderr, net.Router)
	}
	if f.Stats {
		fmt.Fprintf(stderr, "simulated time: %v\n", rep.Time)
		for _, n := range s.Nodes() {
			PrintStats(stderr, n.Name, n.M.Stats())
			PrintLinkStats(stderr, n)
		}
		for i, h := range net.Hosts {
			fmt.Fprintf(stderr, "host %d: exit=%v values=%v\n", i, h.Done, h.Values)
		}
	}
	if obs.Active() {
		if err := obs.Finish(rep.Time, stderr); err != nil {
			return fatal(err)
		}
	}
	if f.EngineStats {
		PrintEngineStats(stderr, s.EngineStats())
		PrintCreditStats(stderr, s.CreditStats())
		PrintAheadStats(stderr, s.AheadStats())
		PrintFusedStats(stderr, s.FusedStats())
	}
	return Verdict(failed, wd, undelivered)
}
