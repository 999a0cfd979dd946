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
	s.SetHeartbeat(0, 0)
	r, err := route.Attach(s, route.Config{})
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
		got := make([]byte, len(payload))
		var done sim.Time
		if vchans == 0 {
			b.Clock().Schedule(sim.Microsecond, func() {
				b.Engine.RecvRaw(1, len(payload), func(d []byte) { copy(got, d); done = b.Clock().Now() })
			})
			a.Clock().Schedule(2*sim.Microsecond, func() { a.Engine.SendRaw(0, payload, nil) })
		} else {
			if err := s.EnableVChans(a, 0, vchans); err != nil {
				return nil, err
			}
			strip, left := len(payload)/vchans, vchans
			b.Clock().Schedule(sim.Microsecond, func() {
				for vc := 0; vc < vchans; vc++ {
					b.Engine.RecvVC(1, vc, strip, func(d []byte) {
						copy(got[vc*strip:], d)
						if left--; left == 0 {
							done = b.Clock().Now()
						}
					})
				}
			})
			a.Clock().Schedule(2*sim.Microsecond, func() {
				for vc := 0; vc < vchans; vc++ {
					a.Engine.SendVC(0, vc, payload[vc*strip:(vc+1)*strip], nil)
				}
			})
		}
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
