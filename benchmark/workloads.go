package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"transputer/internal/apps/dbsearch"
	"transputer/internal/core"
	"transputer/internal/link"
	"transputer/internal/network"
	"transputer/internal/occam"
	"transputer/internal/probe"
	"transputer/internal/sim"
)

// The occam node programs.  They are the internal/bench programs with
// two changes: the sizes are the benchmark's own (one iteration has to
// last a few hundred milliseconds, not a few), and every node carries
// a seeded constant so the generated inputs come from -seed.

// ringSource streams `rounds` words to the next node while a parallel
// process drains the same count from the previous one, so every link
// of the ring is busy for the whole run.
const ringSource = `DEF rounds = %d:
DEF salt = %d:
CHAN in, out:
PLACE in AT LINK0IN:
PLACE out AT LINK1OUT:
PROC src(CHAN out, VALUE rounds, VALUE salt) =
  SEQ i = [0 FOR rounds]
    out ! i + salt
:
PROC sink(CHAN in, VALUE rounds) =
  VAR x, sum:
  SEQ
    sum := 0
    SEQ i = [0 FOR rounds]
      SEQ
        in ? x
        sum := sum + x
:
PAR
  src(out, rounds, salt)
  sink(in, rounds)
`

// gridSource is the torus node: the streaming pair twice, once around
// the node's row and once around its column.
const gridSource = `DEF rounds = %d:
DEF salt = %d:
CHAN hin, hout, vin, vout:
PLACE hin AT LINK0IN:
PLACE hout AT LINK1OUT:
PLACE vin AT LINK2IN:
PLACE vout AT LINK3OUT:
PROC src(CHAN out, VALUE rounds, VALUE salt) =
  SEQ i = [0 FOR rounds]
    out ! i + salt
:
PROC sink(CHAN in, VALUE rounds) =
  VAR x, sum:
  SEQ
    sum := 0
    SEQ i = [0 FOR rounds]
      SEQ
        in ? x
        sum := sum + x
:
PAR
  src(hout, rounds, salt)
  sink(hin, rounds)
  src(vout, rounds, salt)
  sink(vin, rounds)
`

// computeSource counts the primes up to `limit` by trial division,
// then passes the count round the ring: pure arithmetic and workspace
// traffic with the links idle almost throughout.
const computeSource = `DEF limit = %d:
CHAN in, out:
PLACE in AT LINK0IN:
PLACE out AT LINK1OUT:
PROC work(VAR count, VALUE limit) =
  VAR n, d, prime:
  SEQ
    count := 0
    n := 2
    WHILE n <= limit
      SEQ
        prime := TRUE
        d := 2
        WHILE ((d * d) <= n) AND prime
          SEQ
            IF
              (n \ d) = 0
                prime := FALSE
              TRUE
                d := d + 1
        IF
          prime
            count := count + 1
          TRUE
            SKIP
        n := n + 1
:
PROC send(CHAN out, VALUE limit) =
  VAR count:
  SEQ
    work(count, limit)
    out ! count
:
PROC recv(CHAN in) =
  VAR x:
  in ? x
:
PAR
  send(out, limit)
  recv(in)
`

type shape int

const (
	ring shape = iota
	grid
	compute
	search
)

// workload is one named workload.  Sizes are constants: a size that
// changed between two commits would make their numbers incomparable,
// so nothing is calibrated at run time.
type workload struct {
	name  string
	shape shape
	// nodes is the ring length, the torus side, or (search) unused.
	nodes int
	// size is rounds per stream (ring, grid), the mean prime-count
	// limit (compute) or the number of pipelined queries (search).
	size     int
	workers  int
	fused    bool // one shard for the whole network
	observed bool // probe bus with timeline, metrics and flow table
}

var workloads = []workload{
	{name: "compute8", shape: compute, nodes: 8, size: 4000, workers: 1},
	{name: "ring8", shape: ring, nodes: 8, size: 8192, workers: 1},
	{name: "grid3x3.fused", shape: grid, nodes: 3, size: 4096, workers: 1, fused: true},
	{name: "dbsearch128", shape: search, size: 8, workers: 1},
	{name: "ring8.observed", shape: ring, nodes: 8, size: 1024, workers: 1, observed: true},
	{name: "compute8.w2", shape: compute, nodes: 8, size: 4000, workers: 2},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled returns the workload at 1/div of its size, for the smoke test.
func (w workload) scaled(div int) workload {
	w.size = max(w.size/div, 1)
	return w
}

func (w workload) nodeCount() int {
	switch w.shape {
	case grid:
		return w.nodes * w.nodes
	case search:
		p := dbsearch.Defaults128()
		return p.Rows * p.Cols
	}
	return w.nodes
}

// inputs are what the seed generates.  They only vary what the nodes
// compute on, never how much: the same seed gives the same simulated
// statistics, and two seeds give iterations of the same length.
type inputs struct {
	// consts is one constant per node: the payload salt of a streaming
	// node, the prime-count limit of a compute node.
	consts []int
	keys   []int64 // search keys
}

func (w workload) inputs(seed int64) inputs {
	rng := rand.New(rand.NewSource(seed))
	var in inputs
	switch w.shape {
	case ring, grid:
		// Every salt takes the same three prefix nibbles to load, so the
		// instruction stream has the same length and timing for every
		// seed.
		in.consts = make([]int, w.nodeCount())
		for i := range in.consts {
			in.consts[i] = 0x100 + rng.Intn(0xF00)
		}
	case compute:
		// The limits are a seeded permutation of a fixed ladder around
		// the mean, so the total work is the same for every seed.
		in.consts = make([]int, w.nodes)
		for i, p := range rng.Perm(w.nodes) {
			in.consts[i] = w.size + (2*p-(w.nodes-1))*w.size/200
		}
	case search:
		p := dbsearch.Defaults128()
		in.keys = make([]int64, w.size)
		for i := range in.keys {
			in.keys[i] = int64(rng.Intn(p.KeySpace))
		}
	}
	return in
}

// engine is how the simulator is asked to run a workload.  Every
// setting must leave the simulated statistics identical; slowPath is
// the configuration the reference digest is taken on.
type engine struct {
	workers    int
	blockCache bool
	fused      bool
	observed   bool
}

func (w workload) engine() engine {
	return engine{workers: w.workers, blockCache: true, fused: w.fused, observed: w.observed}
}

var slowPath = engine{workers: 1}

// counters are the exact figures of one iteration: for one seed they
// repeat bit for bit (all but barrierWaitNs, which is wall clock).
type counters struct {
	stats       core.Stats
	eng         sim.EngineStats
	wires       link.WireStats
	probeEvents uint64
	simTime     sim.Time
}

// result is one iteration.
type result struct {
	wall, run  time.Duration // whole iteration without verification; System.Run alone
	cpu        time.Duration // processor time the process used during wall
	slowdown   float64       // of the host around the iteration, by the yardstick; set by the pass
	allocBytes uint64
	mallocs    uint64
	liveHeap   uint64 // HeapAlloc after a collection with the system still referenced
	counters   counters
	digest     [sha256.Size]byte
	err        error // why the iteration counts as failed, nil if it passed
}

// observers are the probe consumers of an observed run.
type observers struct {
	timeline *probe.Timeline
	metrics  *probe.Metrics
	flows    *probe.FlowTable
}

func nodeConfig() core.Config {
	cfg := core.T424()
	cfg.MemBytes = 16 * 1024
	return cfg
}

// compile produces one image per node of a ring, grid or compute
// network.  Search networks are compiled inside dbsearch.Build.
func (w workload) compile(in inputs) ([]core.Image, error) {
	if w.shape == search {
		return nil, nil
	}
	imgs := make([]core.Image, len(in.consts))
	for i, c := range in.consts {
		var src string
		switch w.shape {
		case ring:
			src = fmt.Sprintf(ringSource, w.size, c)
		case grid:
			src = fmt.Sprintf(gridSource, w.size, c)
		case compute:
			src = fmt.Sprintf(computeSource, c)
		}
		r, err := occam.Compile(src, occam.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s node %d: %w", w.name, i, err)
		}
		imgs[i] = r.Image
	}
	return imgs, nil
}

// build wires the network and applies the engine settings.
func (w workload) build(imgs []core.Image, e engine) (*network.System, *dbsearch.System, error) {
	if w.shape == search {
		db, err := dbsearch.Build(dbsearch.Defaults128())
		if err != nil {
			return nil, nil, err
		}
		db.Net.SetWorkers(e.workers)
		db.Net.SetBlockCache(e.blockCache)
		return db.Net, db, nil
	}
	s := network.NewSystem()
	s.SetWorkers(e.workers)
	s.SetBlockCache(e.blockCache)
	names := make([]string, len(imgs))
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i)
	}
	if e.fused {
		if err := s.SetPlacement([][]string{names}); err != nil {
			return nil, nil, err
		}
	}
	ns := make([]*network.Node, len(imgs))
	for i, img := range imgs {
		n, err := s.AddTransputer(names[i], nodeConfig())
		if err != nil {
			return nil, nil, err
		}
		if err := n.Load(img); err != nil {
			return nil, nil, err
		}
		ns[i] = n
	}
	switch w.shape {
	case grid:
		side := w.nodes
		at := func(r, c int) *network.Node { return ns[(r%side)*side+c%side] }
		for r := 0; r < side; r++ {
			for c := 0; c < side; c++ {
				if err := s.Connect(at(r, c), 1, at(r, c+1), 0); err != nil {
					return nil, nil, err
				}
				if err := s.Connect(at(r, c), 3, at(r+1, c), 2); err != nil {
					return nil, nil, err
				}
			}
		}
	default:
		for i := range ns {
			if err := s.Connect(ns[i], 1, ns[(i+1)%len(ns)], 0); err != nil {
				return nil, nil, err
			}
		}
	}
	return s, nil, nil
}

func observe(s *network.System) *observers {
	bus := probe.NewBus()
	o := &observers{
		timeline: probe.NewTimeline(bus),
		metrics:  probe.NewMetrics(bus),
		flows:    probe.NewFlowTable(bus),
	}
	s.AttachProbe(bus)
	return o
}

// render writes what tnet -timeline -metrics -flows writes.
func (o *observers) render(end sim.Time) error {
	if err := o.timeline.WriteChromeTrace(io.Discard); err != nil {
		return err
	}
	o.metrics.Finish(end)
	o.metrics.Report(io.Discard)
	o.flows.Finish(end)
	if err := o.flows.WriteJSON(io.Discard); err != nil {
		return err
	}
	o.flows.Report(io.Discard, 10)
	return nil
}

// iterate is one op: what a tnet user pays per invocation.  The spans
// go to tr, which may be nil.  refDigest, when not nil, is what the
// iteration's digest has to equal.
func (w workload) iterate(in inputs, e engine, tr *tracer, refDigest *[sha256.Size]byte) result {
	var res result
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	iter := tr.begin("bench.iteration")

	sp := tr.begin("occam.compile")
	imgs, err := w.compile(in)
	sp.end()
	if err != nil {
		res.err = err
		return res
	}

	sp = tr.begin("network.build")
	s, db, err := w.build(imgs, e)
	var obs *observers
	if err == nil && e.observed {
		obs = observe(s)
	}
	sp.end()
	if err != nil {
		res.err = err
		return res
	}

	sp = tr.begin("network.run")
	runStart := time.Now()
	var rep network.Report
	var answers []int64
	if db != nil {
		answers, rep = db.RunSearches(in.keys, 10*sim.Second)
	} else {
		rep = s.Run(10 * sim.Second)
	}
	res.run = time.Since(runStart)
	sp.end()

	sp = tr.begin("network.stats")
	c := &res.counters
	c.stats = s.TotalStats()
	c.eng = s.EngineStats()
	c.simTime = rep.Time
	for _, n := range s.Nodes() {
		for l := 0; l < core.NumLinks; l++ {
			ws := n.Engine.WireStats(l)
			c.wires.DataBytes += ws.DataBytes
			c.wires.Retransmits += ws.Retransmits
			c.wires.Acks += ws.Acks
			c.wires.BusyNs += ws.BusyNs
		}
	}
	sp.end()

	if obs != nil {
		sp = tr.begin("probe.render")
		err = obs.render(rep.Time)
		sp.end()
		c.probeEvents = uint64(len(obs.timeline.Events()))
	}
	res.wall = time.Since(start)
	res.cpu = cpuTime() - cpu0
	iter.end()
	runtime.ReadMemStats(&m1)
	res.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.mallocs = m1.Mallocs - m0.Mallocs

	sp = tr.begin("bench.verify")
	res.digest = digest(s, rep.Time)
	if err == nil {
		err = w.verify(in, rep, c, answers)
	}
	if err == nil && refDigest != nil && res.digest != *refDigest {
		err = fmt.Errorf("simulated statistics differ from the slow path: digest %x, reference %x", res.digest[:6], refDigest[:6])
	}
	res.err = err
	sp.end()

	// The collection between iterations doubles as the live-heap
	// reading: the network just run is still reachable through s.  It
	// takes two cycles to empty a sync.Pool, and encoding/json keeps
	// the render buffers of an observed run in one.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	res.liveHeap = m1.HeapAlloc
	runtime.KeepAlive(s)
	runtime.KeepAlive(obs)
	return res
}

// verify checks that the network settled cleanly and answered right.
func (w workload) verify(in inputs, rep network.Report, c *counters, answers []int64) error {
	if !rep.Settled {
		return fmt.Errorf("network did not settle: running %v", rep.Running)
	}
	// A search array ends with every node but the corner still waiting
	// for a request: the end-of-run key stops at the corner.
	if len(rep.Halted) > 0 || (len(rep.Blocked) > 0 && w.shape != search) {
		return fmt.Errorf("network finished wedged: blocked %v, halted %v", rep.Blocked, rep.Halted)
	}
	switch w.shape {
	case search:
		p := dbsearch.Defaults128()
		if len(answers) != len(in.keys) {
			return fmt.Errorf("%d answers to %d queries", len(answers), len(in.keys))
		}
		for i, k := range in.keys {
			if want := dbsearch.Reference(p, k); answers[i] != want {
				return fmt.Errorf("key %d: %d matches, reference says %d", k, answers[i], want)
			}
		}
		// The paper's figure: 25,000 records searched in under 1.3 ms
		// a query once requests are pipelined (the smoke test's single
		// query is not).
		if per := rep.Time / sim.Time(len(in.keys)); len(in.keys) >= 4 && per >= 1300*sim.Microsecond {
			return fmt.Errorf("per-query period %v, the paper says under 1.3ms", per)
		}
	default:
		streams := 1
		if w.shape == grid {
			streams = 2
		}
		words := uint64(w.size)
		if w.shape == compute {
			words = 1
		}
		want := uint64(w.nodeCount()*streams) * words * 4
		if c.stats.BytesOut != want || c.stats.BytesIn != want || c.wires.DataBytes != want {
			return fmt.Errorf("delivered %d bytes out, %d in, %d on the wires; want %d each",
				c.stats.BytesOut, c.stats.BytesIn, c.wires.DataBytes, want)
		}
	}
	return nil
}

// digest hashes everything the simulation decided: every node's
// execution counters, every wire's traffic counters and the end time.
// A change that only makes the simulator faster must leave it alone.
func digest(s *network.System, end sim.Time) [sha256.Size]byte {
	h := sha256.New()
	put := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	put(uint64(end))
	for _, n := range s.Nodes() {
		st := n.M.Stats()
		put(st.Instructions, st.InstructionBytes, st.SingleByte, st.Cycles,
			st.Enqueues, st.Deschedules, st.Preemptions, st.Timeslices,
			st.MessagesIn, st.MessagesOut, st.BytesIn, st.BytesOut,
			st.ExternalIn, st.ExternalOut, uint64(st.CodeBytes))
		put(st.FunctionCounts[:]...)
		ops := make([]int, 0, len(st.OpCounts))
		for op := range st.OpCounts {
			ops = append(ops, int(op))
		}
		sort.Ints(ops)
		for _, op := range ops {
			put(uint64(op), st.OpCounts[uint16(op)])
		}
		for l := 0; l < core.NumLinks; l++ {
			ws := n.Engine.WireStats(l)
			put(ws.DataBytes, ws.Retransmits, ws.Acks, ws.Naks, ws.Beats, uint64(ws.BusyNs))
		}
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// describe is the workload's line in the report header.
func (w workload) describe() string {
	var b strings.Builder
	switch w.shape {
	case ring:
		fmt.Fprintf(&b, "%d-node ring, rounds=%d", w.nodes, w.size)
	case grid:
		fmt.Fprintf(&b, "%dx%d torus, rounds=%d", w.nodes, w.nodes, w.size)
	case compute:
		fmt.Fprintf(&b, "%d-node ring, limit~%d", w.nodes, w.size)
	case search:
		p := dbsearch.Defaults128()
		fmt.Fprintf(&b, "%dx%d array, %d records, queries=%d", p.Rows, p.Cols, p.TotalRecords(), w.size)
	}
	fmt.Fprintf(&b, ", workers=%d", w.workers)
	if w.fused {
		b.WriteString(", one shard")
	}
	if w.observed {
		b.WriteString(", probe bus attached")
	}
	return b.String()
}
