package network_test

import (
	"fmt"
	"sync"
	"testing"

	"transputer/internal/asm"
	"transputer/internal/core"
	"transputer/internal/fault"
	"transputer/internal/link"
	"transputer/internal/matrix"
	"transputer/internal/network"
	"transputer/internal/occam"
	"transputer/internal/sim"
)

// Acknowledge credit against the per-packet path (ROADMAP item 1's
// differential, cut to what the link layer elides today).  A case is two
// or three transputers streaming both ways over the wire a.1-b.1 — and,
// with a third, on over b.2-c.1 — with a cut, a halt and a split of the
// run at fuzzed instants; it runs once plain and once with a probe bus
// attached, which is the same system on the per-packet path, and the
// two must leave the same reports, clocks, wire counters, machine
// counters and memories.  Both legs are stepwise (block cache off): a
// cached plain leg also runs ahead of its window where a watched one
// cannot, and that difference is the matrix's and
// FuzzRunAheadDifferential's to check, not this target's to trip over
// (see TestRunAheadWakeOrder).

// creditCase is what a fuzz input decodes to.
type creditCase struct {
	third    bool
	occamA   bool // a runs the occam word streamer instead of tasm
	private  bool // one shard a node (the mailbox path) instead of one shard
	nodes    [3]creditNode
	bOut     int // the link b's sender uses: 1 (to a) or, with a third node, 2
	bIn      int
	severAt  sim.Time // 0: no cut
	severB   bool     // b's end of a.1-b.1 is cut rather than a's
	haltAt   sim.Time // 0: no halt
	haltNode int
	splitAt  sim.Time
}

// creditNode is one node's two streams: messages of out bytes sent and
// of in bytes received, how many, and how long each process spins first.
type creditNode struct {
	outBytes, outCount, outDelay int
	inBytes, inCount, inDelay    int
}

// decodeCreditCase reads a case off the input, zero where it runs out.
func decodeCreditCase(data []byte) creditCase {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	instant := func() sim.Time { // to the nanosecond, inside the traffic
		return sim.Time(next()<<16|next()<<8|next()) % (300 * sim.Microsecond)
	}
	var c creditCase
	flags := next()
	c.third, c.occamA, c.private, c.severB = flags&1 != 0, flags&2 != 0, flags&4 != 0, flags&8 != 0
	c.bOut, c.bIn = 1, 1
	if c.third {
		c.bOut += flags >> 4 & 1
		c.bIn += flags >> 5 & 1
	}
	for i := range c.nodes {
		c.nodes[i] = creditNode{
			outBytes: 1 + next()%16, outCount: next() % 17, outDelay: next(),
			inBytes: 1 + next()%64, inCount: next() % 9, inDelay: next(),
		}
	}
	c.severAt, c.haltAt, c.splitAt = instant(), instant(), 1+instant()
	c.haltNode = flags >> 6 & 1 // a or b
	return c
}

// occamWords is the benchmark ring's node on one link: twelve words out
// and twelve in, concurrently.
var occamWords = sync.OnceValues(func() (core.Image, error) {
	r, err := occam.Compile(`DEF rounds = 12:
CHAN in, out:
PLACE in AT LINK1IN:
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
`, occam.Options{})
	return r.Image, err
})

// build makes the case's system, faults applied.
func (c creditCase) build() (*network.System, error) {
	s := network.NewSystem()
	names := []string{"a", "b", "c"}[:2]
	if c.third {
		names = append(names, "c")
	}
	for i, name := range names {
		n := s.MustAddTransputer(name, core.T424().WithMemory(16*1024))
		out, in := 1, 1
		if i == 1 {
			out, in = c.bOut, c.bIn
		}
		p := c.nodes[i]
		img, err := occamWords()
		if i != 0 || !c.occamA {
			var a *asm.Assembled
			a, err = asm.Assemble(matrix.Streamer(out, p.outBytes, p.outCount, p.outDelay, in, p.inBytes, p.inCount, p.inDelay), 4)
			if err == nil {
				img = a.Image
			}
		}
		if err != nil {
			return nil, err
		}
		if err := n.Load(img); err != nil {
			return nil, err
		}
	}
	ns := s.Nodes()
	s.MustConnect(ns[0], 1, ns[1], 1)
	if c.third {
		s.MustConnect(ns[1], 2, ns[2], 1)
	}
	var plan fault.Plan
	if c.severAt > 0 {
		end := "a"
		if c.severB {
			end = "b"
		}
		plan.Rules = append(plan.Rules, fault.Rule{Kind: fault.Sever, Node: end, Link: 1, At: c.severAt})
	}
	if c.haltAt > 0 {
		plan.Rules = append(plan.Rules, fault.Rule{Kind: fault.Halt, Node: names[c.haltNode], Link: -1, At: c.haltAt})
	}
	return s, s.ApplyFaults(plan)
}

// creditDifferential runs the case on both paths and returns what
// differs, with the plain run's credit counters.
func creditDifferential(c creditCase) ([]string, link.CreditStats, error) {
	var built []*network.System
	sc := matrix.Scenario{Build: func() (*matrix.Running, error) {
		s, err := c.build()
		if err != nil {
			return nil, err
		}
		built = append(built, s)
		return &matrix.Running{Net: s,
			Run:  func() (network.Report, string) { return s.Run(c.splitAt), "" },
			Then: func() (network.Report, string) { return s.Continue(2 * sim.Millisecond), fmt.Sprint(s.Now()) },
		}, nil
	}}
	leg := matrix.Leg{Workers: 1, Place: matrix.OneShard}
	if c.private {
		leg.Place = matrix.Private
	}
	got, err := sc.Observe(leg)
	if err != nil {
		return nil, link.CreditStats{}, err
	}
	leg.Bus = true
	want, err := sc.Observe(leg)
	if err != nil {
		return nil, link.CreditStats{}, err
	}
	// What the bus itself shows has no counterpart on the plain run.
	want.Events, want.Timeline, want.Metrics, want.Flows = nil, nil, "", nil
	return matrix.Diff(got, want), built[0].CreditStats(), nil
}

// creditSeeds are checked-in inputs that between them reach every way a
// promise ends early (TestAckCreditSeedsReachTheHazards): streams both
// ways with each end's input longer than, shorter than and equal to the
// other's messages, cuts from either end inside a credited byte's
// acknowledge window, a halt, an occam end, a third node, both
// partitions.
var creditSeeds = [][]byte{
	// Words both ways, every input as long as the other end's messages;
	// nothing cut, the run split at 32.768 µs.
	{0x00, 3, 8, 0, 3, 8, 0, 3, 8, 5, 3, 8, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x80, 0},
	// The rest were drawn at random and kept for what they reach.  A cut
	// by a, a revocation and a late completion, one shard a node:
	{0x4, 0x1f, 0xac, 0x3f, 0x17, 0x82, 0x4b, 0x19, 0x51, 0x8f, 0x51, 0xbc, 0x26, 0x67, 0xa1, 0x68, 0x30, 0xe0, 0x65, 0x55, 0xef, 0x3b, 0x23, 0xab, 0x7d, 0x6f, 0xd1, 0x75},
	// the same three with b cutting and a an occam program:
	{0x6a, 0x8, 0xbc, 0x66, 0xfb, 0xbb, 0xd7, 0xc1, 0xb5, 0x44, 0x5e, 0xfd, 0x3d, 0xe4, 0x3e, 0x30, 0xa9, 0x41, 0xc4, 0xc, 0x4b, 0x5d, 0x6b, 0x40, 0xd6, 0x93, 0xd, 0xf1},
	// and with a third node behind b:
	{0x83, 0xe0, 0x1c, 0x6d, 0xcf, 0x59, 0xb6, 0xb2, 0x1c, 0xbe, 0x77, 0x70, 0x59, 0x58, 0xb7, 0x2, 0x5c, 0x47, 0xf0, 0x44, 0x9c, 0x15, 0x91, 0x3e, 0x41, 0x42, 0x3b, 0x39},
	{0xfd, 0x80, 0xed, 0x37, 0x5c, 0xb, 0x5a, 0xea, 0x6c, 0x6a, 0x67, 0xa5, 0xe7, 0x73, 0x53, 0x13, 0x74, 0xc8, 0x21, 0xd, 0x13, 0x22, 0x4d, 0x1f, 0x70, 0x80, 0x63, 0x23},
	// Long credited streams cut from either end (43 and 137 credited
	// acknowledges before the cut):
	{0x58, 0x6b, 0x5e, 0x98, 0x55, 0x72, 0x47, 0xba, 0xab, 0x75, 0x33, 0xe0, 0xae, 0x2f, 0x2a, 0x57, 0xa4, 0xa1, 0x4c, 0x6d, 0x51, 0x1c, 0xb1, 0xb0, 0x39, 0xc4, 0x23, 0x47},
	{0xf3, 0xea, 0x43, 0xaf, 0xa7, 0xdb, 0x88, 0xed, 0xcb, 0x19, 0x5d, 0x60, 0xa3, 0x53, 0x1, 0x53, 0x6b, 0x11, 0x58, 0xbd, 0xa9, 0x43, 0x29, 0x2f, 0xc2, 0x86, 0xa4, 0xd0},
	// Revocations and late completions with no cut near them:
	{0x81, 0x8f, 0x70, 0xbc, 0xcc, 0x6, 0x8e, 0x76, 0x3d, 0x97, 0x2d, 0x79, 0xaa, 0xa3, 0x6f, 0x82, 0xe0, 0x3b, 0x15, 0x96, 0xae, 0xf, 0xa8, 0xb3, 0x98, 0xf7, 0xe5, 0xb9},
	{0xc0, 0xf8, 0xbd, 0x5c, 0x50, 0xff, 0x7f, 0x40, 0xc1, 0x1d, 0xf, 0x42, 0x22, 0x5b, 0x7b, 0xa4, 0xb0, 0x6a, 0xc7, 0xd1, 0x1, 0xe6, 0x1e, 0x75, 0xd8, 0x95, 0x79, 0xc3},
}

func FuzzAckCreditDifferential(f *testing.F) {
	for _, seed := range creditSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeCreditCase(data)
		diffs, _, err := creditDifferential(c)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		for _, d := range diffs {
			t.Errorf("plain against observed: %s", d)
		}
		if len(diffs) > 0 {
			t.Logf("case %+v", c)
		}
	})
}

// TestAckCreditSeedsReachTheHazards: the seed corpus is there for the
// paths no other test in the tree reaches — a revocation and a cut that
// each un-acknowledge a byte in flight, and a frame that waits out a
// credited acknowledge — so between them the seeds must reach each.
func TestAckCreditSeedsReachTheHazards(t *testing.T) {
	var total link.CreditStats
	for _, seed := range creditSeeds {
		_, cs, err := creditDifferential(decodeCreditCase(seed))
		if err != nil {
			t.Fatal(err)
		}
		total.Add(cs)
	}
	t.Logf("the seeds reach: %+v", total)
	if total.Credited == 0 || total.Revoked == 0 || total.UnackedAtRevoke == 0 || total.UnackedAtCut == 0 || total.LateCompletions == 0 {
		t.Errorf("the seeds do not reach every hazard: %+v", total)
	}
}
