package matrix

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"

	"transputer/internal/apps/dbsearch"
	"transputer/internal/apps/sieve"
	"transputer/internal/bench"
	"transputer/internal/chaos"
	"transputer/internal/core"
	"transputer/internal/fault"
	"transputer/internal/network"
	"transputer/internal/probe"
	"transputer/internal/route"
	"transputer/internal/sim"
)

// Scenarios is the matrix's rows, all of them: the benchmark fixtures,
// the section-4 applications, a routed ring with a fault plan, the
// run-ahead programs (ahead.go), one transfer through each protocol
// stack, every shipped topology file, the quickstart program as a
// network of one, and chaos campaign plans replayed from the topology
// files the harness renders them as.
var Scenarios = slices.Concat([]Scenario{
	built("ring", func() (*network.System, error) { return bench.Ring(8) }, sim.Second, settledClean),
	built("grid", func() (*network.System, error) { return bench.Grid(3) }, sim.Second, settledClean),
	// Cross-shard chunk deliveries here routinely land at the same
	// instant as the destination's own instruction stream, the collision
	// the kernel's delivery rank orders (sim.Kernel's less).
	built("vchan pair", func() (*network.System, error) { return bench.VCFan(8) }, sim.Second, settledClean),
	// Links idle for almost the whole run, so windows are extended by
	// quiet promises and topology distances.
	built("compute ring", func() (*network.System, error) { return bench.ComputeRing(4) }, 10*sim.Second, settledClean),
	search("dbsearch 3x3", dbsearch.Params{Rows: 3, Cols: 3, RecordsPerNode: 60, KeySpace: 16, MemBytes: 64 * 1024}, 4, 9),
	search("dbsearch 16", dbsearch.Defaults16(), 3, 11),
	sieved("sieve 30/10", sieve.Params{Limit: 30, Stages: 10}, sim.Second),
	tracesFlows(sieved("sieve pipeline", sieve.Params{Limit: 60, Stages: 17}, 10*sim.Second)),
	{Name: "severed and restored ring", Build: severedAndRestoredRing},
	{Name: "routed vchan ring", Build: routedVChanRing, Post: func(o *Observation) error {
		if !strings.HasPrefix(o.Extra, "undelivered 0\n") || strings.Count(o.Extra, "\n") != 21 {
			return fmt.Errorf("want 20 deliveries and none outstanding, got:\n%s", o.Extra)
		}
		return nil
	}},
	// Acknowledge credit (link/xfer.go) at its edges; detached legs use
	// it, attached ones cannot, and the references must agree.  The pair
	// streams both ways over one wire in messages of 3 bytes against
	// inputs of 7 and 5 against 15, so each direction's acknowledges share
	// a line with the other's data and every grant is soon revoked; the
	// ring's sinks input 64 bytes while its sources output words, so one
	// grant outlives sixteen of the sender's transfers.
	streaming("credit revoked both ways", core.T424(), []string{
		Streamer(1, 3, 35, 0, 1, 15, 7, 0), Streamer(1, 5, 21, 0, 1, 7, 15, 0),
	}, func(s *network.System, ns []*network.Node) { s.MustConnect(ns[0], 1, ns[1], 1) }),
	streaming("credit across transfers", core.T424(), []string{
		wordsInto64, wordsInto64, wordsInto64, wordsInto64,
	}, ring),
	// A streaming ring of 16-bit T222s, each node spinning for a length
	// of its own before it sends or receives: every word is two bytes,
	// and the stamps, displacements and workspace offsets the nodes
	// compute wrap and sign-extend at 16 bits.
	streaming("16-bit streaming ring", core.T222(), []string{
		Streamer(1, 2, 48, 0, 0, 24, 4, 5), Streamer(1, 2, 48, 17, 0, 24, 4, 0),
		Streamer(1, 2, 48, 40, 0, 24, 4, 9), Streamer(1, 2, 48, 3, 0, 24, 4, 30),
	}, ring),
	transfer("raw", false, false, 0),
	transfer("stopwait", true, false, 0),
	transfer("reliable", false, true, 0),
	transfer("vchan8", false, false, 8),

	shipped("netdemo/ring.tnet", 0, "9\n"),
	shipped("vchan/sieve.tnet", 0, "17\n983\n", "vchans: 8 over one wire"),
	tracesFlows(shipped("faults/lossy-link.tnet", 0, "5050\n")),
	tracesFlows(shipped("faults/severed-ring.tnet", 3, "", "deadlock watchdog", "blocked on link")),
	shipped("faults/healed-ring.tnet", 0, "", "delivered 5 of 5"),
	shipped("faults/restart-grid.tnet", 0, "", "delivered 7 of 7"),
	{Name: "squares.occ", Source: func() (string, string, error) {
		return "transputer main t424 program=squares.occ\nhost main.0\n", examples("quickstart"), nil
	}, Post: tnetShows(0, "1\n4\n9\n16\n25\n36\n49\n64\n81\n100\n")},
}, aheadScenarios, chaosPlans())

// built is a system run to a limit.
func built(name string, build func() (*network.System, error), limit sim.Time, post func(*Observation) error) Scenario {
	return Scenario{Name: name, Post: post, Build: func() (*Running, error) {
		s, err := build()
		if err != nil {
			return nil, err
		}
		return &Running{Net: s, Run: func() (network.Report, string) { return s.Run(limit), "" }}, nil
	}}
}

// settledClean: the run ended by itself with every process finished.
func settledClean(o *Observation) error {
	if rep := o.Runs[0].Report; !rep.Settled || len(rep.Blocked) > 0 || len(rep.Halted) > 0 {
		return fmt.Errorf("bad finish: %+v", rep)
	}
	return nil
}

func settled(o *Observation) error {
	if rep := o.Runs[0].Report; !rep.Settled {
		return fmt.Errorf("did not settle: %+v", rep)
	}
	return nil
}

// tracesFlows adds to a scenario's postcondition that an attached run's
// flow document is not empty.
func tracesFlows(sc Scenario) Scenario {
	post := sc.Post
	sc.Post = func(o *Observation) error {
		if o.Flows != nil {
			if doc, err := probe.ReadFlowDoc(bytes.NewReader(o.Flows)); err != nil || len(doc.Flows) == 0 {
				return fmt.Errorf("no flows traced (%v)", err)
			}
		}
		return post(o)
	}
	return sc
}

// search is the database-search array answering the given keys; the
// counts are the scenario's output.
func search(name string, p dbsearch.Params, keys ...int64) Scenario {
	return Scenario{Name: name, Post: settled, Build: func() (*Running, error) {
		db, err := dbsearch.Build(p)
		if err != nil {
			return nil, err
		}
		return &Running{Net: db.Net, Run: func() (network.Report, string) {
			counts, rep := db.RunSearches(keys, sim.Second)
			return rep, fmt.Sprint(counts)
		}}, nil
	}}
}

// sieved is the sieve pipeline; the primes are the scenario's output.
func sieved(name string, p sieve.Params, limit sim.Time) Scenario {
	return Scenario{Name: name, Post: settled, Build: func() (*Running, error) {
		sv, err := sieve.Build(p)
		if err != nil {
			return nil, err
		}
		return &Running{Net: sv.Net, Run: func() (network.Report, string) {
			primes, rep := sv.Run(limit)
			return rep, fmt.Sprint(primes)
		}}, nil
	}}
}

// severedAndRestoredRing has a wire cut for good and a node that loses
// power and comes back — cuts and revivals that cross shards wherever
// the partition puts a boundary — with heartbeats and the routing layer
// on every node, a bounded Run and a Continue.
func severedAndRestoredRing() (*Running, error) {
	s := network.NewSystem()
	nodes := make([]*network.Node, 5)
	for i := range nodes {
		nodes[i] = s.MustAddTransputer(fmt.Sprintf("n%d", i), core.T424().WithMemory(64*1024))
	}
	for i, n := range nodes {
		s.MustConnect(n, 0, nodes[(i+1)%len(nodes)], 1)
	}
	s.SetLinkMode(network.LinkMode{Reliable: true})
	s.SetHeartbeat()
	r, err := route.Attach(s)
	if err != nil {
		return nil, err
	}
	err = s.ApplyFaults(fault.Plan{Seed: 5, Rules: []fault.Rule{
		{Kind: fault.Sever, Node: "n0", Link: 0, At: 200 * sim.Microsecond},
		{Kind: fault.Halt, Node: "n3", Link: -1, At: 300 * sim.Microsecond},
		{Kind: fault.Restart, Node: "n3", Link: -1, At: 900 * sim.Microsecond},
	}})
	if err != nil {
		return nil, err
	}
	for i, at := range []sim.Time{50 * sim.Microsecond, 250 * sim.Microsecond, 400 * sim.Microsecond, 2 * sim.Millisecond} {
		for _, pair := range [][2]string{{"n0", "n1"}, {"n1", "n4"}, {"n2", "n3"}, {"n4", "n2"}} {
			if _, err := r.SendAt(at, pair[0], pair[1], []byte(fmt.Sprintf("m%d %s->%s", i, pair[0], pair[1]))); err != nil {
				return nil, err
			}
		}
	}
	return &Running{Net: s,
		Run: func() (network.Report, string) { return s.Run(6 * sim.Millisecond), "" },
		Then: func() (network.Report, string) {
			r.Stop()
			s.StopHeartbeats()
			rep := s.Continue(s.Now() + 4*sim.Millisecond)
			var extra bytes.Buffer
			fmt.Fprintf(&extra, "undelivered %d\n", r.Undelivered())
			for _, d := range r.AllDeliveries() {
				fmt.Fprintf(&extra, "%s %s %d %d %q\n", d.Origin, d.Dest, d.Seq, d.At, d.Payload)
			}
			return rep, extra.String()
		}}, nil
}

// routedVChanRing routes twenty frames around a ring of four whose
// every wire is multiplexed four ways, so the router keeps a receive
// pump and a send slot on each vchan, and frames for two hops away
// cross a node's vchans in both directions.
func routedVChanRing() (*Running, error) {
	s := network.NewSystem()
	nodes := make([]*network.Node, 4)
	for i := range nodes {
		nodes[i] = s.MustAddTransputer(fmt.Sprintf("n%d", i), core.T424().WithMemory(64*1024))
	}
	for i, n := range nodes {
		s.MustConnect(n, 0, nodes[(i+1)%len(nodes)], 1)
		if err := s.EnableVChans(n, 0, 4); err != nil {
			return nil, err
		}
	}
	s.SetLinkMode(network.LinkMode{Reliable: true})
	s.SetHeartbeat()
	r, err := route.Attach(s)
	if err != nil {
		return nil, err
	}
	k := 0
	for _, pair := range [][2]string{{"n0", "n1"}, {"n1", "n0"}, {"n0", "n2"}, {"n3", "n1"}} {
		for i := 0; i < 5; i++ {
			at := sim.Time(20+5*k) * sim.Microsecond
			k++
			if _, err := r.SendAt(at, pair[0], pair[1], []byte(fmt.Sprintf("%s->%s #%d", pair[0], pair[1], i))); err != nil {
				return nil, err
			}
		}
	}
	return &Running{Net: s,
		Run: func() (network.Report, string) { return s.Run(4 * sim.Millisecond), "" },
		Then: func() (network.Report, string) {
			r.Stop()
			s.StopHeartbeats()
			rep := s.Continue(s.Now() + 2*sim.Millisecond)
			var extra bytes.Buffer
			fmt.Fprintf(&extra, "undelivered %d\n", r.Undelivered())
			for _, d := range r.AllDeliveries() {
				fmt.Fprintf(&extra, "%s %s %d %d %q\n", d.Origin, d.Dest, d.Seq, d.At, d.Payload)
			}
			return rep, extra.String()
		}}, nil
}

// transfer streams one known message from a to b over a single wire
// (a.0 <-> b.1) through one configuration of the protocol stack: the
// raw protocol, the stop-and-wait ablation, the error-detecting mode,
// or — with vchans > 0 — as that many equal strips, one a virtual
// channel, reassembled by index at the receiver.  Every configuration
// must deliver the bytes sent, at an instant no leg changes.
func transfer(name string, stopwait, reliable bool, vchans int) Scenario {
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i*13 + 7)
	}
	return Scenario{Name: name, Build: func() (*Running, error) {
		s := network.NewSystem()
		c := core.T424().WithMemory(64 * 1024)
		a, b := s.MustAddTransputer("a", c), s.MustAddTransputer("b", c)
		s.MustConnect(a, 0, b, 1)
		if reliable {
			s.SetLinkMode(network.LinkMode{Reliable: true})
		}
		if stopwait {
			a.Engine.SetStopAndWait(true)
			b.Engine.SetStopAndWait(true)
		}
		if vchans > 0 {
			if err := s.EnableVChans(a, 0, vchans); err != nil {
				return nil, err
			}
		}
		// One strip on the link's own end, or one a vchan.
		end := func(l, i int) core.End {
			if vchans == 0 {
				return core.End(l)
			}
			return core.VChanEnd(l, i)
		}
		strips := max(vchans, 1)
		strip, left := len(payload)/strips, strips
		got := make([]byte, len(payload))
		var done sim.Time
		b.Clock().Schedule(sim.Microsecond, func() {
			for i := 0; i < strips; i++ {
				b.Engine.Recv(end(1, i), strip, func(d []byte) {
					copy(got[i*strip:], d)
					if left--; left == 0 {
						done = b.Clock().Now()
					}
				})
			}
		})
		a.Clock().Schedule(2*sim.Microsecond, func() {
			for i := 0; i < strips; i++ {
				a.Engine.Send(end(0, i), payload[i*strip:(i+1)*strip], nil)
			}
		})
		return &Running{Net: s, Run: func() (network.Report, string) {
			return s.Run(0), fmt.Sprintf("%x at %d", got, done)
		}}, nil
	}, Post: func(o *Observation) error {
		if sent, at, _ := strings.Cut(o.Extra, " at "); sent != fmt.Sprintf("%x", payload) || at == "0" {
			return fmt.Errorf("delivered %s, want the %d bytes sent and a completion instant", o.Extra, len(payload))
		}
		return nil
	}}
}

// wordsInto64 outputs 64 words on link 1 and inputs four messages of 64
// bytes from link 0.
var wordsInto64 = Streamer(1, 4, 64, 0, 0, 64, 4, 0)

// Streamer is a tasm node of two processes, each spinning for its delay
// (loop turns) first: one outputs outCount messages of outBytes (up to
// 64) on link out, each stamped with how many are left to send; the
// other inputs inCount messages of inBytes (up to 64) from link in.
// Nothing says the two ends of a wire must agree on either number.
func Streamer(out, outBytes, outCount, outDelay, in, inBytes, inCount, inDelay int) string {
	return fmt.Sprintf(`
	ws 96 32
	ldc receiver-after
	ldlp -40
	startp
after:	ldc %d
	stl 2
wait1:	ldl 2
	cj go1
	ldl 2
	adc -1
	stl 2
	j wait1
go1:	ldc %d
	stl 1
send:	ldl 1
	cj sent
	ldl 1
	stl 8
	ldl 1
	stl 9
	ldlp 8
	mint
	ldnlp %d
	ldc %d
	out
	ldl 1
	adc -1
	stl 1
	j send
sent:	stopp
receiver:
	ldc %d
	stl 2
wait2:	ldl 2
	cj go2
	ldl 2
	adc -1
	stl 2
	j wait2
go2:	ldc %d
	stl 1
recv:	ldl 1
	cj received
	ldlp 8
	mint
	ldnlp %d
	ldc %d
	in
	ldl 1
	adc -1
	stl 1
	j recv
received:
	stopp
`, outDelay, outCount, out, outBytes, inDelay, inCount, 4+in, inBytes)
}

// ring wires link 1 of each node to link 0 of the next.
func ring(s *network.System, ns []*network.Node) {
	for i, n := range ns {
		s.MustConnect(n, 1, ns[(i+1)%len(ns)], 0)
	}
}

// streaming runs one program a node (see nodeImages) on transputers of
// the given model with 16 KiB, wired by wire, to quiescence.
func streaming(name string, model core.Config, sources []string, wire func(s *network.System, ns []*network.Node)) Scenario {
	images := nodeImages(sources, model.WordBits/8)
	return Scenario{Name: name, Post: settled, Build: func() (*Running, error) {
		imgs, err := images()
		if err != nil {
			return nil, err
		}
		s := network.NewSystem()
		for i, img := range imgs {
			if err := s.MustAddTransputer(fmt.Sprintf("n%d", i), model.WithMemory(16*1024)).Load(img); err != nil {
				return nil, err
			}
		}
		wire(s, s.Nodes())
		return &Running{Net: s, Run: func() (network.Report, string) { return s.Run(sim.Second), "" }}, nil
	}}
}

// examples is a directory under the repository's examples/.
func examples(dir string) string {
	_, here, _, _ := runtime.Caller(0)
	return filepath.Join(filepath.Dir(here), "..", "..", "examples", dir)
}

// shipped is a topology file under examples/, named by its base name,
// with what CI used to grep its output for: tnet's exit code, its
// standard output (when given), and lines of its standard error.
func shipped(path string, exit int, stdout string, stderr ...string) Scenario {
	return Scenario{Name: filepath.Base(path), Post: tnetShows(exit, stdout, stderr...), Source: func() (string, string, error) {
		full := filepath.Join(examples(filepath.Dir(path)), filepath.Base(path))
		src, err := os.ReadFile(full)
		return string(src), filepath.Dir(full), err
	}}
}

func tnetShows(exit int, stdout string, stderr ...string) func(*Observation) error {
	return func(o *Observation) error {
		if o.Exit != exit {
			return fmt.Errorf("tnet exited %d, want %d", o.Exit, exit)
		}
		if stdout != "" && o.Stdout != stdout {
			return fmt.Errorf("tnet printed %q, want %q", o.Stdout, stdout)
		}
		for _, want := range stderr {
			if !strings.Contains(o.Stderr, want) {
				return fmt.Errorf("tnet's stderr does not say %q:\n%s", want, o.Stderr)
			}
		}
		return nil
	}
}

// chaosPlans are campaign plans as the chaos harness hands them to a
// user: rendered by Scenario.TopologyFile, then parsed and run by tnet
// like any other file.  A plan that does not replay identically on
// every leg is a bug in the rendering or in the engine.
func chaosPlans() []Scenario {
	var plans []Scenario
	for _, topo := range chaos.Topologies() {
		for seed := uint64(1); seed <= 3; seed++ {
			plans = append(plans, Scenario{Name: fmt.Sprintf("chaos %s seed %d", topo, seed),
				Source: func() (string, string, error) {
					sc, err := chaos.Generate(topo, seed)
					return sc.TopologyFile(), "", err
				}})
		}
	}
	return plans
}
