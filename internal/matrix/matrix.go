// Package matrix is the determinism matrix: the one place the tree
// checks that workers, block cache, partition and probe bus change
// wall-clock time and nothing a run shows.  It is test support — it
// imports testing and is linked into no command — in the way
// internal/analysis/atest is: the tests that use it are this package's
// own, internal/network's and internal/tool's.
//
// A Scenario is a system built in Go or a topology source built by
// tool.BuildNetwork and run by Network.Run, the two steps of
// tool.RunNet, which cmd/tnet and cmd/trun are flag parsers around.
// Every
// scenario runs on every leg Legs gives, each leg is compared with the
// stepwise reference on everything an Observation holds, and the
// reference observation's digest is held against golden.txt.  DESIGN.md,
// "The determinism matrix", says why each part is the way it is and how
// a new engine knob registers a column.
package matrix

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"transputer/internal/core"
	"transputer/internal/link"
	"transputer/internal/network"
	"transputer/internal/probe"
	"transputer/internal/tool"
)

// A Scenario is one row of the matrix: Build (a system made in Go) or
// Source (a topology file's text, for tool.RunNet's two steps) is set,
// not both.
type Scenario struct {
	Name string
	// Build makes a fresh system each call; the harness sets workers,
	// cache, placement and bus on it before Running.Run.
	Build func() (*Running, error)
	// Source returns the topology text and the directory its program
	// paths are relative to.
	Source func() (src, baseDir string, err error)
	// Post checks a reference observation for what the scenario is
	// there to show (an answer, an exit code, a watchdog line).
	Post func(o *Observation) error
	// Ahead checks the run-ahead and idiom diagnostics of the
	// one-worker, cached, private, detached leg: a scenario built to
	// exercise one way out of a batch has to have taken it.
	Ahead func(a core.AheadStats, f core.FusedStats) error
}

// Running is a built system and how the scenario runs it.
type Running struct {
	Net *network.System
	// Run runs the system and returns the report with whatever else the
	// scenario shows (answers, deliveries, completion instants).
	Run func() (network.Report, string)
	// Then, when set, continues the run; the machines are snapshotted
	// again after it and its text is appended to Run's.
	Then func() (network.Report, string)
}

// Placement is how a leg's partition is asked for.
type Placement int

const (
	Derived  Placement = iota // from the worker count, as every command's is
	Private                   // SetPlacement, one shard a node
	OneShard                  // SetPlacement, every node on one shard
)

var placements = [...]string{Derived: "derived", Private: "private", OneShard: "one shard"}

// A Leg is one column setting of every engine knob.
type Leg struct {
	Workers int
	Cache   bool
	Place   Placement
	Bus     bool // a probe bus is attached; nothing runs ahead of its window when one is
}

func (l Leg) String() string {
	return fmt.Sprintf("workers=%d blockcache=%v partition=%s bus=%v", l.Workers, l.Cache, placements[l.Place], l.Bus)
}

// Reference is the stepwise leg every other is compared with: one
// worker, no block cache, one shard a node.  Nothing batches, nothing
// runs ahead, and every delivery crosses a barrier.
func Reference(bus bool) Leg { return Leg{Workers: 1, Place: Private, Bus: bus} }

// shards is the shard count the leg's partition resolves to on a
// system of the given size.
func (l Leg) shards(nodes int) int {
	if l.Place == OneShard || l.Place == Derived && l.Workers == 1 {
		return 1
	}
	return nodes
}

// Legs is the leg loop: workers {1, 4} x block cache x placement x bus,
// the two references first, pruned by one rule.  A leg runs unless an
// earlier one resolved to the same engine — shard count, threads (the
// pool runs min(workers, shards)), cache, bus — and its partition has
// already been reached the same way, by derivation or by SetPlacement.
// So every engine configuration runs once, and each partition is
// reached both ways at least once.  One column is not crossed with the
// cache: threads (the cache is a machine's own, a machine belongs to
// one shard and a shard runs on one thread at a time, so the uncached
// legs are single-threaded).
func Legs(nodes int) []Leg {
	type engine struct {
		shards, threads int
		cache, bus      bool
	}
	type reach struct {
		shards   int
		explicit bool
	}
	ran, reached := map[engine]bool{}, map[reach]bool{}
	var legs []Leg
	add := func(l Leg) {
		n := l.shards(nodes)
		e, r := engine{n, min(l.Workers, n), l.Cache, l.Bus}, reach{n, l.Place != Derived}
		if ran[e] && reached[r] || !l.Cache && e.threads > 1 {
			return
		}
		ran[e], reached[r] = true, true
		legs = append(legs, l)
	}
	add(Reference(false))
	add(Reference(true))
	for _, bus := range []bool{false, true} {
		for _, cache := range []bool{true, false} {
			for _, workers := range []int{1, 4} {
				for _, place := range []Placement{Derived, Private, OneShard} {
					add(Leg{workers, cache, place, bus})
				}
			}
		}
	}
	return legs
}

// PrivateShards is the placement with every node on a shard of its own: what
// SetPlacement takes to get the mailbox-and-barrier path at any worker
// count.
func PrivateShards(s *network.System) [][]string {
	groups := make([][]string, len(s.Nodes()))
	for i, n := range s.Nodes() {
		groups[i] = []string{n.Name}
	}
	return groups
}

// NodeState is everything a node shows once a run has stopped.
type NodeState struct {
	Iptr, Wdesc, A, B, C uint64
	Fptr, Bptr           [2]uint64
	Halted, Idle, Error  bool
	Waiting              int
	Stats                core.Stats
	Wires                [core.NumLinks]link.WireStats
	VChans               [core.NumLinks]link.MuxStats
	Mem                  []byte
}

// Snapshot is a report and the machines it left.
type Snapshot struct {
	Report network.Report
	Nodes  []NodeState
}

// Observation is everything one run shows.  A file scenario fills Exit,
// Stdout and Stderr (tnet -stats: watchdog, route summary, per-node and
// per-wire statistics, and on an attached leg the metrics and flow
// reports); a built one fills Extra, Watchdog and Runs.  The probe
// fields are an attached leg's.
type Observation struct {
	Exit           int
	Stdout, Stderr string
	Extra          string
	Watchdog       string
	Runs           []Snapshot // after Run, and after Then

	Events   []probe.Event
	Timeline []byte // Chrome trace
	Metrics  string
	Flows    []byte // flow document

	// How the engine ran: checked against the leg, never compared.
	nodes, shards int
	ahead         core.AheadStats
	fused         core.FusedStats
}

func snapshot(s *network.System, rep network.Report) Snapshot {
	snap := Snapshot{Report: rep}
	for _, n := range s.Nodes() {
		m := n.M
		st := NodeState{Iptr: m.Iptr, Wdesc: m.Wdesc, A: m.Areg, B: m.Breg, C: m.Creg,
			Fptr: m.Fptr, Bptr: m.Bptr, Halted: m.Halted(), Idle: m.Idle(), Error: m.ErrorFlag(),
			Waiting: m.WaitingProcesses(), Stats: m.Stats(),
			Mem: m.ReadBytes(m.LinkOutAddr(0), m.Config().MemBytes)}
		for l := range st.Wires {
			st.Wires[l] = n.Engine.WireStats(l)
			st.VChans[l], _ = n.Engine.VChanStats(l)
		}
		snap.Nodes = append(snap.Nodes, st)
	}
	return snap
}

// apply sets the leg's workers, cache and placement on a built system.
// Its bus is the caller's to attach.
func (l Leg) apply(s *network.System) error {
	s.SetWorkers(l.Workers)
	s.SetBlockCache(l.Cache)
	switch l.Place {
	case Private:
		return s.SetPlacement(PrivateShards(s))
	case OneShard:
		all := make([]string, len(s.Nodes()))
		for i, n := range s.Nodes() {
			all[i] = n.Name
		}
		return s.SetPlacement([][]string{all})
	}
	return nil
}

// Observe runs the scenario once on the leg.
func (sc *Scenario) Observe(l Leg) (*Observation, error) {
	if sc.Source != nil {
		return sc.observeFile(l)
	}
	r, err := sc.Build()
	if err != nil {
		return nil, err
	}
	s := r.Net
	if err := l.apply(s); err != nil {
		return nil, err
	}
	var timeline *probe.Timeline
	var metrics *probe.Metrics
	var flows *probe.FlowTable
	if l.Bus {
		bus := probe.NewBus()
		timeline, metrics, flows = probe.NewTimeline(bus), probe.NewMetrics(bus), probe.NewFlowTable(bus)
		s.AttachProbe(bus)
	}
	o := &Observation{}
	rep, extra := r.Run()
	o.Extra = extra
	o.Runs = append(o.Runs, snapshot(s, rep))
	if r.Then != nil {
		rep, extra = r.Then()
		o.Extra += extra
		o.Runs = append(o.Runs, snapshot(s, rep))
	}
	if wd := s.Watchdog(); wd != nil {
		o.Watchdog = wd.String()
	}
	if l.Bus {
		o.Events = timeline.Events()
		var tl, mt, fl bytes.Buffer
		if err := timeline.WriteChromeTrace(&tl); err != nil {
			return nil, err
		}
		metrics.Finish(rep.Time)
		metrics.Report(&mt)
		flows.Finish(rep.Time)
		if err := flows.WriteJSON(&fl); err != nil {
			return nil, err
		}
		o.Timeline, o.Metrics, o.Flows = tl.Bytes(), mt.String(), fl.Bytes()
	}
	o.nodes, o.shards, o.ahead, o.fused = len(s.Nodes()), s.EngineStats().Shards, s.AheadStats(), s.FusedStats()
	return o, nil
}

// observeFile is tnet -stats -enginestats -workers, with -metrics,
// -timeline and -flows on an attached leg, and the leg's cache and
// placement set on the built system before it runs.  What -enginestats
// prints comes last and says how the engine ran, so it is cut off the
// compared text and read for the shard count.
func (sc *Scenario) observeFile(l Leg) (*Observation, error) {
	src, base, err := sc.Source()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "matrix")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	topo, err := network.ParseTopology(src)
	if err != nil {
		return nil, err
	}
	var stdout, stderr bytes.Buffer
	net, err := tool.BuildNetwork(topo, base, &stdout)
	if err != nil {
		return nil, err
	}
	if err := l.apply(net.System); err != nil {
		return nil, err
	}
	f := tool.NetFlags{Tool: "tnet", Stats: true, EngineStats: true, Workers: l.Workers}
	if l.Bus {
		f.Metrics, f.Timeline, f.Flows = true, filepath.Join(dir, "timeline.json"), filepath.Join(dir, "flows.json")
	}
	o := &Observation{Exit: net.Run(f, &stderr), Stdout: stdout.String()}
	// The temporary directory is in the "written to" lines.
	text, engine, ran := strings.Cut(strings.ReplaceAll(stderr.String(), dir, "$TMP"), "engine: ")
	if !ran {
		return nil, fmt.Errorf("tnet did not run (exit %d): %s", o.Exit, text)
	}
	o.Stderr = text
	if _, err := fmt.Sscanf(engine, "%d nodes on %d shards", &o.nodes, &o.shards); err != nil {
		return nil, fmt.Errorf("-enginestats: %v in %q", err, engine)
	}
	if l.Bus {
		if o.Timeline, err = os.ReadFile(f.Timeline); err != nil {
			return nil, err
		}
		if o.Flows, err = os.ReadFile(f.Flows); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// Diff is the comparison: every field of got that differs from want,
// one line each.
func Diff(got, want *Observation) []string {
	var diffs []string
	differ := func(what string, g, w any) {
		if !reflect.DeepEqual(g, w) {
			diffs = append(diffs, fmt.Sprintf("%s differs:\n  got:  %s\n  want: %s", what, clip(g), clip(w)))
		}
	}
	differ("exit code", got.Exit, want.Exit)
	differ("stdout", got.Stdout, want.Stdout)
	differ("stderr", got.Stderr, want.Stderr)
	differ("scenario output", got.Extra, want.Extra)
	differ("watchdog", got.Watchdog, want.Watchdog)
	differ("number of snapshots", len(got.Runs), len(want.Runs))
	for r := 0; r < len(got.Runs) && r < len(want.Runs); r++ {
		g, w := got.Runs[r], want.Runs[r]
		differ(fmt.Sprintf("run %d: report", r), g.Report, w.Report)
		differ(fmt.Sprintf("run %d: number of nodes", r), len(g.Nodes), len(w.Nodes))
		for i := 0; i < len(g.Nodes) && i < len(w.Nodes); i++ {
			gn, wn := g.Nodes[i], w.Nodes[i]
			for off := 0; off < len(gn.Mem) && off < len(wn.Mem); off++ {
				if gn.Mem[off] != wn.Mem[off] {
					diffs = append(diffs, fmt.Sprintf("run %d: node %d memory differs at offset %#x: %#02x, want %#02x",
						r, i, off, gn.Mem[off], wn.Mem[off]))
					break
				}
			}
			gn.Mem, wn.Mem = nil, nil
			differ(fmt.Sprintf("run %d: node %d", r, i), gn, wn)
		}
	}
	differ("number of probe events", len(got.Events), len(want.Events))
	for i := 0; i < len(got.Events) && i < len(want.Events); i++ {
		if got.Events[i] != want.Events[i] {
			differ(fmt.Sprintf("probe event %d", i), got.Events[i], want.Events[i])
			break
		}
	}
	differ("timeline", string(got.Timeline), string(want.Timeline))
	differ("metrics report", got.Metrics, want.Metrics)
	differ("flow document", string(got.Flows), string(want.Flows))
	return diffs
}

// clip prints a value for a failure message, shortened to its head.
func clip(v any) string {
	s := fmt.Sprintf("%+v", v)
	if len(s) > 600 {
		s = fmt.Sprintf("%s... (%d bytes)", s[:600], len(s))
	}
	return s
}

// Digest hashes everything Diff compares.
func (o *Observation) Digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "%d\n%q\n%q\n%q\n%q\n", o.Exit, o.Stdout, o.Stderr, o.Extra, o.Watchdog)
	for _, r := range o.Runs {
		fmt.Fprintf(h, "%+v\n", r.Report)
		for _, n := range r.Nodes {
			h.Write(n.Mem)
			n.Mem = nil
			fmt.Fprintf(h, "%+v\n", n)
		}
	}
	for _, e := range o.Events {
		fmt.Fprintf(h, "%+v\n", e)
	}
	for _, b := range [][]byte{o.Timeline, []byte(o.Metrics), o.Flows} {
		fmt.Fprintf(h, "%d\n", len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// golden.txt holds the digest of every scenario's reference
// observation, detached and attached: "byte-identical to the parent
// commit" as a test result.  There is no way to regenerate it but to
// paste the line a mismatch prints, so a change to it is a change
// somebody read.
//
//go:embed golden.txt
var golden string

// goldenArch is where golden.txt was generated; the metrics report
// formats floating-point values, so another architecture may round its
// digits differently.
const goldenArch = "amd64"

func goldenLine(digest string, bus bool, name string) string {
	mode := "detached"
	if bus {
		mode = "attached"
	}
	return fmt.Sprintf("%s %s %s", digest, mode, name)
}

// checked is what running one scenario found; a scenario runs once a
// process however many tests name it.
type checked struct {
	once  sync.Once
	fails []string
	logs  []string
}

func (c *checked) failf(format string, args ...any) {
	c.fails = append(c.fails, fmt.Sprintf(format, args...))
}

var results sync.Map // scenario name -> *checked

// Lookup returns the scenario of that name.
func Lookup(name string) *Scenario {
	for i := range Scenarios {
		if Scenarios[i].Name == name {
			return &Scenarios[i]
		}
	}
	return nil
}

// Run checks the named scenarios, each as a subtest of its name, in
// parallel with each other and with the rest of the package's parallel
// tests; call it once a test.
func Run(t *testing.T, names ...string) {
	t.Parallel()
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sc := Lookup(name)
			if sc == nil {
				t.Fatalf("no scenario %q in the matrix", name)
			}
			v, _ := results.LoadOrStore(name, new(checked))
			c := v.(*checked)
			c.once.Do(func() { sc.check(c) })
			for _, l := range c.logs {
				t.Log(l)
			}
			for _, f := range c.fails {
				t.Error(f)
			}
		})
	}
}

// check runs the scenario on every leg.
func (sc *Scenario) check(c *checked) {
	// The first reference says how many nodes there are, which the
	// pruning rule wants to know: a network of one has one partition.
	first, err := sc.Observe(Reference(false))
	if err != nil {
		c.failf("%v: %v", Reference(false), err)
		return
	}
	ref := map[bool]*Observation{} // by bus mode
	for i, l := range Legs(first.nodes) {
		o := first
		if i > 0 {
			if o, err = sc.Observe(l); err != nil {
				c.failf("%v: %v", l, err)
				return
			}
		}
		if want := l.shards(o.nodes); o.shards != want {
			c.failf("%v: %d nodes ran on %d shards, want %d", l, o.nodes, o.shards, want)
		}
		if l == Reference(l.Bus) {
			ref[l.Bus] = o
			sc.checkReference(c, o, l.Bus)
			continue
		}
		for _, d := range Diff(o, ref[l.Bus]) {
			c.failf("%v: %s", l, d)
		}
		if sc.Ahead != nil && l == (Leg{Workers: 1, Cache: true, Place: Private}) {
			if err := sc.Ahead(o.ahead, o.fused); err != nil {
				c.failf("%v: %v", l, err)
			}
		}
	}
	// Attaching a bus changes nothing but what the bus itself shows (on
	// a file scenario, stderr carries its reports).
	att := *ref[true]
	att.Events, att.Timeline, att.Metrics, att.Flows, att.Stderr = nil, nil, "", nil, ref[false].Stderr
	for _, d := range Diff(&att, ref[false]) {
		c.failf("attached reference against detached: %s", d)
	}
}

// checkReference holds a reference observation against the scenario's
// postcondition, the flow document's own invariant and golden.txt.
func (sc *Scenario) checkReference(c *checked, o *Observation, bus bool) {
	if o.ahead != (core.AheadStats{}) {
		c.failf("the stepwise reference ran ahead: %+v", o.ahead)
	}
	if o.fused != (core.FusedStats{}) {
		c.failf("the stepwise reference ran idioms as one step: %+v", o.fused)
	}
	if sc.Post != nil {
		if err := sc.Post(o); err != nil {
			c.failf("%v: %v", Reference(bus), err)
		}
	}
	if bus {
		if err := criticalPathTiles(o.Flows); err != nil {
			c.failf("%v: %v", Reference(bus), err)
		}
	}
	if runtime.GOARCH != goldenArch {
		c.logs = append(c.logs, fmt.Sprintf("golden.txt was generated on %s; not checked on %s", goldenArch, runtime.GOARCH))
		return
	}
	line := goldenLine(o.Digest(), bus, sc.Name)
	for _, have := range strings.Split(golden, "\n") {
		if have == line {
			return
		}
	}
	c.failf("observable output changed, or the scenario is new: no line of internal/matrix/golden.txt reads\n%s", line)
}

// criticalPathTiles is the flow document's own invariant: the critical
// path's spans sum to the end-to-end completion time, exactly.
func criticalPathTiles(flows []byte) error {
	doc, err := probe.ReadFlowDoc(bytes.NewReader(flows))
	if err != nil {
		return err
	}
	var sum int64
	for _, s := range doc.CriticalPath {
		sum += s.DurNs
	}
	if sum != doc.EndNs || doc.CriticalPathNs != doc.EndNs {
		return fmt.Errorf("critical path sums to %d (CriticalPathNs %d), want end-to-end %d", sum, doc.CriticalPathNs, doc.EndNs)
	}
	return nil
}
