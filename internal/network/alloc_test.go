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

// idleProgram waits for one word on link 0 that never comes: a loaded
// node of an array no query reaches.
const idleProgram = `CHAN in:
PLACE in AT LINK0IN:
VAR x:
in ? x
`

// idleArrayHeap builds a rows x cols array wired as the paper's search
// array is (link 1 to the right neighbour's link 0 along each row, and
// link 3 to link 2 down the first column), every node loaded with img,
// runs it until every node waits, and returns the heap the network
// holds then: live bytes after a collection, against before the build.
func idleArrayHeap(t *testing.T, img core.Image, rows, cols int) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := network.NewSystem()
	at := make([]*network.Node, rows*cols)
	for i := range at {
		at[i] = s.MustAddTransputer(fmt.Sprintf("n%d", i), core.T424().WithMemory(16*1024))
		if err := at[i].Load(img); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c+1 < cols; c++ {
			s.MustConnect(at[r*cols+c], 1, at[r*cols+c+1], 0)
		}
		if r+1 < rows {
			s.MustConnect(at[r*cols], 3, at[(r+1)*cols], 2)
		}
	}
	rep := s.Run(sim.Second)
	if !rep.Settled || len(rep.Blocked) != rows*cols {
		t.Fatalf("the idle array did not settle with every node waiting: %d of %d blocked", len(rep.Blocked), rows*cols)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	return after.HeapAlloc - before.HeapAlloc
}

// TestIdleNodeAllocGuard pins what a loaded node that carries no
// traffic costs the host: the heap a 128-node array of them holds once
// every node waits for input, a node.  It measured 4 170 bytes when the
// bound was last lowered, after the link halves stopped copying the
// engine's modes (4 254 before); the bound is that and 5 %.  A node of
// a large array mostly sits idle, so this figure is what multiplies by
// the array's size.
func TestIdleNodeAllocGuard(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	r, err := occam.Compile(idleProgram, occam.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const rows, cols = 16, 8
	idleArrayHeap(t, r.Image, rows, cols) // warm-up: one-time initialisation anywhere below
	per := idleArrayHeap(t, r.Image, rows, cols) / (rows * cols)
	t.Logf("%d bytes a loaded, idle node", per)
	if limit := uint64(4170 * 105 / 100); per > limit {
		t.Errorf("a loaded, idle node holds %d bytes, over %d", per, limit)
	}
}
