package network_test

import (
	"fmt"
	"runtime"
	"testing"

	"transputer/internal/core"
	"transputer/internal/matrix"
	"transputer/internal/network"
	"transputer/internal/occam"
	"transputer/internal/raceflag"
	"transputer/internal/sim"
)

// ringProgram streams `rounds` words out of link 1 while a parallel
// process drains as many from link 0.
const ringProgram = `DEF rounds = %d:
CHAN in, out:
PLACE in AT LINK0IN:
PLACE out AT LINK1OUT:
PROC src(CHAN out, VALUE rounds) =
  SEQ i = [0 FOR rounds]
    out ! i + i
:
PROC sink(CHAN in, VALUE rounds) =
  VAR x:
  SEQ i = [0 FOR rounds]
    in ? x
:
PAR
  src(out, rounds)
  sink(in, rounds)
`

func ringImage(t testing.TB, rounds int) core.Image {
	t.Helper()
	r, err := occam.Compile(fmt.Sprintf(ringProgram, rounds), occam.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r.Image
}

// ringAlloc builds an 8-node ring — one shard a node when pinned, one
// shard in all when not — runs it to settlement and returns the bytes
// the build and the run allocated.
func ringAlloc(t *testing.T, img core.Image, rounds int, pinned bool) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := network.NewSystem()
	nodes := make([]*network.Node, 8)
	for i := range nodes {
		cfg := core.T424().WithMemory(16 * 1024)
		nodes[i] = s.MustAddTransputer(fmt.Sprintf("n%d", i), cfg)
		if err := nodes[i].Load(img); err != nil {
			t.Fatal(err)
		}
	}
	for i, n := range nodes {
		s.MustConnect(n, 1, nodes[(i+1)%len(nodes)], 0)
	}
	if pinned {
		if err := s.SetPlacement(matrix.PrivateShards(s)); err != nil {
			t.Fatal(err)
		}
	}
	rep := s.Run(sim.Second)
	runtime.ReadMemStats(&after)
	if !rep.Settled || len(rep.Blocked) > 0 {
		t.Fatalf("rounds=%d: ring did not settle cleanly: %+v", rounds, rep)
	}
	if got := s.TotalStats().BytesOut; got != uint64(8*4*rounds) {
		t.Fatalf("rounds=%d: %d bytes sent, want %d", rounds, got, 8*4*rounds)
	}
	if got, want := s.EngineStats().Shards, map[bool]int{true: 8, false: 1}[pinned]; got != want {
		t.Fatalf("pinned=%v: ring ran on %d shards, want %d", pinned, got, want)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// TestRingAllocGuard: an 8-node streaming ring allocates the same
// whether every link carries 256 words or 1024 — messages, frames,
// windows and barriers cost no allocation, only building the network
// does — on one shard a node (outboxes, the barrier merge) and on the
// one shard a sequential run gets by default (direct deliveries, the
// member loop).
func TestRingAllocGuard(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	short, long := ringImage(t, 256), ringImage(t, 1024)
	for _, pinned := range []bool{true, false} {
		ringAlloc(t, short, 256, pinned) // warm-up: one-time initialisation anywhere below
		a, b := ringAlloc(t, short, 256, pinned), ringAlloc(t, long, 1024, pinned)
		t.Logf("pinned=%v: 256 rounds: %d bytes, 1024 rounds: %d bytes", pinned, a, b)
		const slack = 8 << 10
		if b > a+slack {
			t.Errorf("pinned=%v: 1024 rounds allocate %d bytes, 256 rounds %d: allocation grows with traffic", pinned, b, a)
		}
	}
}
