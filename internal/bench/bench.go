// Package bench is the fixture home: the multi-transputer workloads
// the determinism matrix (internal/matrix) runs on every leg, the probe
// oracle (internal/probe/oracle_test.go) replays, the nil-bus guard
// (guard_test.go) times and the root BenchmarkSystemThroughput
// profiles.  Two communication-heavy topologies — a unidirectional ring
// and a torus grid with every link streaming tokens — measure
// event-engine overhead; a compute-heavy ring — each node trial-
// dividing its way through a prime count before exchanging a single
// word — measures raw instruction-execution rate, the case the
// predecoded block cache exists for.
package bench

import (
	"fmt"
	"sync"

	"transputer/internal/core"
	"transputer/internal/network"
	"transputer/internal/occam"
	"transputer/internal/sim"
)

// ringSource streams `rounds` words out of each node while a parallel
// process drains the same count from the previous node, so every link
// of the ring carries continuous traffic and the network settles
// cleanly.  The sender and receiver must be concurrent: a node that
// sent before receiving would deadlock the whole synchronous ring.
const ringSource = `DEF rounds = 256:
CHAN in, out:
PLACE in AT LINK0IN:
PLACE out AT LINK1OUT:
PROC src(CHAN out, VALUE rounds) =
  SEQ i = [0 FOR rounds]
    out ! i + i
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
  src(out, rounds)
  sink(in, rounds)
`

// gridSource is the torus-node program: the same streaming pair run
// twice, once around the node's row and once around its column.
const gridSource = `DEF rounds = 128:
CHAN hin, hout, vin, vout:
PLACE hin AT LINK0IN:
PLACE hout AT LINK1OUT:
PLACE vin AT LINK2IN:
PLACE vout AT LINK3OUT:
PROC src(CHAN out, VALUE rounds) =
  SEQ i = [0 FOR rounds]
    out ! i + i
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
  src(hout, rounds)
  sink(hin, rounds)
  src(vout, rounds)
  sink(vin, rounds)
`

// computeSource is the compute-heavy node: count the primes below
// `limit` by trial division — a long run of pure arithmetic with only
// workspace traffic — then exchange one word around the ring so the
// network still synchronises and settles.  Links are idle for almost
// the entire run, which is exactly the shape that lets a shard promise
// quiescence and run at memory speed between barriers.
const computeSource = `DEF limit = 2000:
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

// vcfanSrcSource is the many-producers side of the virtual-channel
// fan: eight independent streams all leave through the same physical
// wire, each on its own virtual channel, so the mux's round-robin
// interleaving and per-channel credit are on the benchmark's hot path.
const vcfanSrcSource = `DEF rounds = 128:
CHAN c0, c1, c2, c3, c4, c5, c6, c7:
PLACE c0 AT LINK1VC0OUT:
PLACE c1 AT LINK1VC1OUT:
PLACE c2 AT LINK1VC2OUT:
PLACE c3 AT LINK1VC3OUT:
PLACE c4 AT LINK1VC4OUT:
PLACE c5 AT LINK1VC5OUT:
PLACE c6 AT LINK1VC6OUT:
PLACE c7 AT LINK1VC7OUT:
PROC src(CHAN out, VALUE rounds) =
  SEQ i = [0 FOR rounds]
    out ! i + i
:
PAR
  src(c0, rounds)
  src(c1, rounds)
  src(c2, rounds)
  src(c3, rounds)
  src(c4, rounds)
  src(c5, rounds)
  src(c6, rounds)
  src(c7, rounds)
`

// vcfanSinkSource drains the eight streams on the peer.
const vcfanSinkSource = `DEF rounds = 128:
CHAN c0, c1, c2, c3, c4, c5, c6, c7:
PLACE c0 AT LINK1VC0IN:
PLACE c1 AT LINK1VC1IN:
PLACE c2 AT LINK1VC2IN:
PLACE c3 AT LINK1VC3IN:
PLACE c4 AT LINK1VC4IN:
PLACE c5 AT LINK1VC5IN:
PLACE c6 AT LINK1VC6IN:
PLACE c7 AT LINK1VC7IN:
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
  sink(c0, rounds)
  sink(c1, rounds)
  sink(c2, rounds)
  sink(c3, rounds)
  sink(c4, rounds)
  sink(c5, rounds)
  sink(c6, rounds)
  sink(c7, rounds)
`

var images = struct {
	once                sync.Once
	ring, grid, compute core.Image
	vcfanSrc, vcfanSink core.Image
	err                 error
}{}

func compile() error {
	c := &images
	c.once.Do(func() {
		for _, p := range []struct {
			src string
			dst *core.Image
		}{
			{ringSource, &c.ring},
			{gridSource, &c.grid},
			{computeSource, &c.compute},
			{vcfanSrcSource, &c.vcfanSrc},
			{vcfanSinkSource, &c.vcfanSink},
		} {
			r, err := occam.Compile(p.src, occam.Options{})
			if err != nil {
				c.err = err
				return
			}
			*p.dst = r.Image
		}
	})
	return c.err
}

func config() core.Config {
	cfg := core.T424()
	cfg.MemBytes = 16 * 1024
	return cfg
}

// Ring wires `nodes` transputers in a unidirectional ring with every
// link streaming continuously: link 1 of each node feeds link 0 of the
// next.
func Ring(nodes int) (*network.System, error) {
	if err := compile(); err != nil {
		return nil, err
	}
	return buildRing(nodes, images.ring)
}

// ComputeRing wires `nodes` transputers in a unidirectional ring where
// each node sieves primes locally and the links carry a single word.
func ComputeRing(nodes int) (*network.System, error) {
	if err := compile(); err != nil {
		return nil, err
	}
	return buildRing(nodes, images.compute)
}

func buildRing(nodes int, img core.Image) (*network.System, error) {
	s := network.NewSystem()
	ns := make([]*network.Node, nodes)
	for i := range ns {
		n, err := s.AddTransputer(fmt.Sprintf("n%d", i), config())
		if err != nil {
			return nil, err
		}
		if err := n.Load(img); err != nil {
			return nil, err
		}
		ns[i] = n
	}
	for i := range ns {
		if err := s.Connect(ns[i], 1, ns[(i+1)%nodes], 0); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Grid wires a side x side torus: link 1 feeds the right neighbour's
// link 0, link 3 feeds the lower neighbour's link 2.
func Grid(side int) (*network.System, error) {
	if err := compile(); err != nil {
		return nil, err
	}
	s := network.NewSystem()
	ns := make([]*network.Node, side*side)
	for i := range ns {
		n, err := s.AddTransputer(fmt.Sprintf("n%d", i), config())
		if err != nil {
			return nil, err
		}
		if err := n.Load(images.grid); err != nil {
			return nil, err
		}
		ns[i] = n
	}
	at := func(r, c int) *network.Node { return ns[((r+side)%side)*side+(c+side)%side] }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if err := s.Connect(at(r, c), 1, at(r, c+1), 0); err != nil {
				return nil, err
			}
			if err := s.Connect(at(r, c), 3, at(r+1, c), 2); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// VCFan wires two transputers by a single wire carrying `vchans`
// virtual channels, with that many producer processes on one node all
// streaming to matching consumers on the other — the many-channels-
// few-wires shape the multiplexer exists for.
func VCFan(vchans int) (*network.System, error) {
	if err := compile(); err != nil {
		return nil, err
	}
	s := network.NewSystem()
	a, err := s.AddTransputer("a", config())
	if err != nil {
		return nil, err
	}
	b, err := s.AddTransputer("b", config())
	if err != nil {
		return nil, err
	}
	if err := a.Load(images.vcfanSrc); err != nil {
		return nil, err
	}
	if err := b.Load(images.vcfanSink); err != nil {
		return nil, err
	}
	if err := s.Connect(a, 1, b, 1); err != nil {
		return nil, err
	}
	if err := s.EnableVChans(a, 1, vchans); err != nil {
		return nil, err
	}
	return s, nil
}

// Build constructs a workload by name: "ring8", "grid3x3", "compute8"
// or "vcfan8".
func Build(name string) (*network.System, error) {
	switch name {
	case "ring8":
		return Ring(8)
	case "grid3x3":
		return Grid(3)
	case "compute8":
		return ComputeRing(8)
	case "vcfan8":
		return VCFan(8)
	default:
		return nil, fmt.Errorf("bench: unknown workload %q (ring8, grid3x3, compute8, vcfan8)", name)
	}
}

// Workloads lists the available workload names in canonical order.
func Workloads() []string { return []string{"ring8", "grid3x3", "compute8", "vcfan8"} }

// Run executes a built workload to completion and returns the total
// machine cycles it simulated.  Every workload must settle — every
// process finished, no link wedged — inside the limit.
func Run(s *network.System, limit sim.Time) (uint64, error) {
	rep := s.Run(limit)
	if !rep.Settled {
		return 0, fmt.Errorf("bench: network did not settle: %+v", rep)
	}
	if len(rep.Blocked) > 0 || len(rep.Halted) > 0 {
		return 0, fmt.Errorf("bench: network finished wedged: %+v", rep)
	}
	return s.TotalStats().Cycles, nil
}
