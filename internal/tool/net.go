package tool

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"transputer/internal/core"
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
// paths are resolved relative to baseDir; host output goes to out.
func BuildNetwork(topo *network.Topology, baseDir string, out io.Writer) (*Network, error) {
	s := network.NewSystem()
	net := &Network{System: s}
	for _, spec := range topo.Transputers {
		cfg, err := ModelConfig(spec.Model, spec.MemBytes)
		if err != nil {
			return nil, err
		}
		n, err := s.AddTransputer(spec.Name, cfg)
		if err != nil {
			return nil, err
		}
		if spec.Program == "" {
			continue
		}
		path := filepath.Join(baseDir, spec.Program)
		img, err := LoadAny(path, cfg.WordBits/8)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Name, err)
		}
		if err := n.Load(img); err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Name, err)
		}
		net.Programs = append(net.Programs, Program{Node: n, Image: img, Path: path})
	}
	for _, c := range topo.Connections {
		a, ok := s.Node(c.A)
		if !ok {
			return nil, fmt.Errorf("connect: unknown transputer %q", c.A)
		}
		b, ok := s.Node(c.B)
		if !ok {
			return nil, fmt.Errorf("connect: unknown transputer %q", c.B)
		}
		if err := s.Connect(a, c.ALink, b, c.BLink); err != nil {
			return nil, err
		}
	}
	for _, vc := range topo.VChans {
		n, ok := s.Node(vc.Node)
		if !ok {
			return nil, fmt.Errorf("vchan: unknown transputer %q", vc.Node)
		}
		if err := s.EnableVChans(n, vc.Link, vc.Count); err != nil {
			return nil, err
		}
	}
	for _, h := range topo.Hosts {
		n, ok := s.Node(h.Node)
		if !ok {
			return nil, fmt.Errorf("host: unknown transputer %q", h.Node)
		}
		host, err := s.AttachHost(n, h.Link, out)
		if err != nil {
			return nil, err
		}
		for _, v := range topo.Inputs[h.Node] {
			host.QueueInput(v)
		}
		net.Hosts = append(net.Hosts, host)
	}
	s.SetLinkMode(topo.LinkMode)
	if topo.Heartbeat {
		s.SetHeartbeat()
	}
	if topo.Route {
		r, err := route.Attach(s)
		if err != nil {
			return nil, err
		}
		net.Router = r
	}
	if err := s.ApplyFaults(topo.Plan()); err != nil {
		return nil, err
	}
	for _, m := range topo.Messages {
		if _, err := net.Router.SendAt(m.At, m.From, m.To, []byte(m.Data)); err != nil {
			return nil, err
		}
	}
	net.Limit = topo.RunLimit
	return net, nil
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

// LoadNetworkFile parses a topology file and builds its system.
func LoadNetworkFile(path string, out io.Writer) (*Network, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	topo, err := network.ParseTopology(string(src))
	if err != nil {
		return nil, err
	}
	return BuildNetwork(topo, filepath.Dir(path), out)
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
	ProfPeriod                  int // simulated microseconds, > 0 when Prof is set
}

// RunNet is tnet and trun — each command is flag parsing around this
// call, so a test that drives it runs what the tools run: the parsed
// topology (program paths relative to baseDir) built by BuildNetwork
// with host output to stdout, then Run under the flags with everything
// else to stderr; it returns the exit code (see Verdict), 2 for a
// profile asked for with a sampling period that is not positive.
func RunNet(f NetFlags, topo *network.Topology, baseDir string, stdout, stderr io.Writer) int {
	if f.Prof != "" && f.ProfPeriod <= 0 {
		fmt.Fprintf(stderr, "%s: -profperiod %d: the sampling period must be positive\n", f.Tool, f.ProfPeriod)
		return 2
	}
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
		obs.EnableProfile(f.Prof, sim.Time(f.ProfPeriod)*sim.Microsecond)
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
