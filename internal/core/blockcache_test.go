package core_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"transputer/internal/core"
	"transputer/internal/isa"
	"transputer/internal/probe"
	"transputer/internal/raceflag"
	"transputer/internal/sim"
)

// runSrcCache assembles and runs a program with the block cache on or
// off, failing on faults or timeout.
func runSrcCache(t *testing.T, src string, cache bool) (*core.Machine, core.RunResult) {
	t.Helper()
	cfg := core.T424().WithMemory(64 * 1024)
	m := core.MustNew(cfg)
	m.SetBlockCache(cache)
	if err := m.Load(assemble(t, src)); err != nil {
		t.Fatalf("load: %v", err)
	}
	res := core.Run(m, 100*sim.Millisecond)
	if err := m.Fault(); err != nil {
		t.Fatalf("fault: %v", err)
	}
	if !res.Settled {
		t.Fatalf("program did not settle in %v", res.Time)
	}
	return m, res
}

// selfModifySource patches its own code: the first pass through
// `again` stores 1, then overwrites the already-executed `ldc 1`
// (0x41) with `ldc 9` (0x49 = 73) and jumps back.  The second pass
// must fetch the new byte even though the old instruction sits in a
// decoded block — both passes enter at `again` via a jump, so the
// stale block would be re-entered at its cached key if invalidation
// failed.
const selfModifySource = `
	ldc 0
	stl 2
	j again
again:
	ldc 1
	stl 1
	ldl 2
	cj first
	stopp
first:
	ldc 1
	stl 2
	ldc 73
	ldpi again
	sb
	j again
`

func TestSelfModifyingCodeSeesNewBytes(t *testing.T) {
	for _, cache := range []bool{true, false} {
		m, _ := runSrcCache(t, selfModifySource, cache)
		if got := m.Local(1); got != 9 {
			t.Errorf("cache=%v: x = %d, want 9 (stale instruction executed)", cache, got)
		}
	}
}

// loopSource mixes straight-line arithmetic, indirect operations and
// control flow so decoded blocks are built, re-entered and interleaved
// with interpreted instructions.
const loopSource = `
	ldc 10
	stl 1
	ldc 0
	stl 2
loop:
	ldl 1
	cj done
	ldl 2
	ldl 1
	add
	ldl 1
	ldl 1
	mul
	sum
	stl 2
	ldl 1
	adc -1
	stl 1
	j loop
done:
	stopp
`

// TestBlockCacheResultEquivalence pins the cache as a pure performance
// switch: identical results, identical statistics (including the
// per-function and per-operation histograms), identical cycle totals
// and identical final times with it on or off.
func TestBlockCacheResultEquivalence(t *testing.T) {
	for _, src := range []string{loopSource, selfModifySource} {
		mOn, resOn := runSrcCache(t, src, true)
		mOff, resOff := runSrcCache(t, src, false)
		if mOn.Local(1) != mOff.Local(1) || mOn.Local(2) != mOff.Local(2) {
			t.Errorf("results differ: %d/%d vs %d/%d",
				mOn.Local(1), mOn.Local(2), mOff.Local(1), mOff.Local(2))
		}
		if resOn.Time != resOff.Time {
			t.Errorf("final times differ: %v vs %v", resOn.Time, resOff.Time)
		}
		if !reflect.DeepEqual(mOn.Stats(), mOff.Stats()) {
			t.Errorf("stats differ:\non:  %+v\noff: %+v", mOn.Stats(), mOff.Stats())
		}
	}
}

// retSharedSource calls one function from two places, so the block
// that ends in its ret leaves by the same chain edge towards two
// different successors: an edge may be followed only to a block that
// starts at the instruction pointer.
const retSharedSource = `
	ldc 0
	stl 1
	call f
	ldl 1
	adc 10
	stl 1
	call f
	ldl 1
	adc 100
	stl 1
	stopp
f:
	ldl 5          -- the caller's local 1, seen from the call frame
	adc 1
	stl 5
	ret
`

// patchedSuccessorSource runs a loop three times whose head falls
// through to the block at site, and each pass rewrites site's first
// byte (ldc 1, then ldc 2, ldc 1, ldc 0) after the fall-through edge
// to it was made: x = 1 + 2 + 1 only if every pass decodes it afresh.
const patchedSuccessorSource = `
	ldc 0
	stl 1
	ldc 3
	stl 2
loop:
	ldl 2
	cj done
site:
	ldc 1
	ldl 1
	add
	stl 1
	ldl 2
	adc -1
	stl 2
	ldl 2
	ldc #40
	or
	ldpi site
	sb
	j loop
done:
	stopp
`

// TestChainEdgesAreOnlyHints: a successor rewritten after the edge to
// it was made is decoded again, and an edge is not followed to a block
// at another address.
func TestChainEdgesAreOnlyHints(t *testing.T) {
	for _, cache := range []bool{true, false} {
		if m, _ := runSrcCache(t, patchedSuccessorSource, cache); m.Local(1) != 4 {
			t.Errorf("cache=%v: patched successor: x = %d, want 4", cache, m.Local(1))
		}
		if m, _ := runSrcCache(t, retSharedSource, cache); m.Local(1) != 112 {
			t.Errorf("cache=%v: shared ret: x = %d, want 112", cache, m.Local(1))
		}
	}
}

// overflowSource runs twice over more one-instruction blocks than the
// cache may hold, so the cache is flushed wholesale while execution
// stands at the end of a chained block; between the passes it rewrites
// the instruction at site, whose block the flush dropped without
// marking.  Nothing decoded before a flush may run after it.
func overflowSource() string {
	return `
	ldc 0
	stl 3
top:
site:
	ldc 1
	stl 1
` + strings.Repeat("\tj 0\n", 4200) + `
	ldl 3
	cj first
	stopp
first:
	ldc 1
	stl 3
	ldc 73
	ldpi site
	sb
	j top
`
}

func TestBlockCacheOverflowFlush(t *testing.T) {
	mOn, resOn := runSrcCache(t, overflowSource(), true)
	mOff, resOff := runSrcCache(t, overflowSource(), false)
	if mOn.Local(1) != 9 || mOff.Local(1) != 9 {
		t.Errorf("x = %d (cache on), %d (off), want 9", mOn.Local(1), mOff.Local(1))
	}
	if resOn.Time != resOff.Time || !reflect.DeepEqual(mOn.Stats(), mOff.Stats()) {
		t.Errorf("runs differ: %v vs %v\non:  %+v\noff: %+v", resOn.Time, resOff.Time, mOn.Stats(), mOff.Stats())
	}
}

// TestSetBlockCacheMidLoop switches the cache off, and on again, while
// a loop is running out of chained blocks: the machine carries on from
// the same state by the other path.
func TestSetBlockCacheMidLoop(t *testing.T) {
	img := assemble(t, loopSource)
	ref := core.MustNew(core.T424().WithMemory(64 * 1024))
	ref.SetBlockCache(false)
	m := core.MustNew(core.T424().WithMemory(64 * 1024))
	for _, mc := range []*core.Machine{ref, m} {
		if err := mc.Load(img); err != nil {
			t.Fatal(err)
		}
	}
	for ref.Step() != 0 {
	}
	for batch := 0; !m.Idle(); batch++ {
		if batch%7 == 3 {
			m.SetBlockCache(batch%2 == 0)
		}
		if n, _ := m.StepRun(500); n == 0 && m.Step() == 0 {
			break
		}
	}
	compareMachines(t, 0, m, ref)
}

// spinSource runs two low-priority processes that only count down and
// jump, so every timeslice falls due at a j reached over a chain edge.
const spinSource = `
	ldc 2
	stl 1
	ldpi cont
	stl 0
	ldc child-after
	ldlp -40
	startp
after:
	ajw -20
	ldc 200
	stl 1
ploop:
	ldl 1
	adc -1
	stl 1
	ldl 1
	cj pdone
	j ploop
pdone:
	ldlp 20
	endp
child:
	ldc 200
	stl 1
cloop:
	ldl 1
	adc -1
	stl 1
	ldl 1
	cj cdone
	j cloop
cdone:
	ldlp 40
	endp
cont:
	stopp
`

// TestTimesliceAtChainedJump: StepRun executes a j only while no
// timeslice is due; the j that ends a slice goes through Step, so the
// switch happens at the same cycle and the same simulated instant as
// without the cache, and as before blocks were chained (the pinned
// numbers are the parent commit's).
func TestTimesliceAtChainedJump(t *testing.T) {
	type slice struct {
		at     sim.Time
		cycles uint64
		proc   uint64
	}
	run := func(cache bool) (core.Stats, sim.Time, []slice) {
		cfg := core.T424().WithMemory(64 * 1024)
		cfg.TimesliceCycles = 97
		m := core.MustNew(cfg)
		m.SetBlockCache(cache)
		if err := m.Load(assemble(t, spinSource)); err != nil {
			t.Fatal(err)
		}
		bus := probe.NewBus()
		var slices []slice
		bus.Subscribe(func(e probe.Event) {
			if e.Kind == probe.Timeslice {
				slices = append(slices, slice{e.Time, e.Cycles, e.Proc})
			}
		})
		m.AttachProbe(bus)
		res := core.Run(m, 100*sim.Millisecond)
		if !res.Settled || m.Fault() != nil {
			t.Fatalf("cache=%v: settled=%v fault=%v", cache, res.Settled, m.Fault())
		}
		return m.Stats(), res.Time, slices
	}
	stOn, endOn, slOn := run(true)
	stOff, endOff, slOff := run(false)
	if !reflect.DeepEqual(stOn, stOff) || endOn != endOff || !reflect.DeepEqual(slOn, slOff) {
		t.Errorf("cache on/off differ:\non:  %+v end %v %v\noff: %+v end %v %v",
			stOn, endOn, slOn, stOff, endOff, slOff)
	}
	first, last := slOn[0], slOn[len(slOn)-1]
	if stOn.Timeslices != 49 || stOn.Deschedules != 50 || endOn != 262900 ||
		first.at != 5150 || first.cycles != 103 || last.at != 254900 || last.cycles != 5098 {
		t.Errorf("timeslices=%d deschedules=%d end=%d first=%+v last=%+v, want 49, 50, 262900, {5150 103}, {254900 5098}",
			stOn.Timeslices, stOn.Deschedules, endOn, first, last)
	}
}

// TestUndefinedOperationCounted: operation codes beyond the dense
// table are still counted, each under its own key.
func TestUndefinedOperationCounted(t *testing.T) {
	for _, cache := range []bool{true, false} {
		cfg := core.T424().WithMemory(64 * 1024)
		m := core.MustNew(cfg)
		m.SetBlockCache(cache)
		// add; pfix 1, pfix 2, opr 3 = opr #123, which faults.
		if err := m.Load(assemble(t, "\tadd\n\tbyte #21, #22, #F3\n")); err != nil {
			t.Fatal(err)
		}
		core.Run(m, sim.Millisecond)
		want := map[uint16]uint64{uint16(isa.OpAdd): 1, 0x123: 1}
		if got := m.Stats().OpCounts; !reflect.DeepEqual(got, want) {
			t.Errorf("cache=%v: OpCounts = %v, want %v", cache, got, want)
		}
		if m.Fault() == nil {
			t.Errorf("cache=%v: undefined operation did not fault", cache)
		}
	}
}

// stepOne runs one instruction as the runner does: as a one-record
// StepRun batch, or through Step when no batch applies.
func stepOne(m *core.Machine) int {
	if n, _ := m.StepRun(1); n != 0 {
		return n
	}
	return m.Step()
}

// TestCodeWriteDropsOverlappingBlocks: a store into code invalidates
// exactly the blocks whose bytes it overlaps, and leaves the index
// sorted and holding valid blocks only.  The first program is a block
// near the start of a 256-byte page that jumps over unexecuted bytes to
// a block straddling the next page boundary, three bytes before it and
// three after; a write to a block's page that misses its bytes leaves
// it cached.  The second is a loop whose branch enters its first block
// mid-way, so two blocks overlap, followed by a tail block.  The third
// decodes its blocks out of address order.  Each write lands on a
// fresh run, and a reload (which flushes the cache) and a
// second run rebuild the index.
func TestCodeWriteDropsOverlappingBlocks(t *testing.T) {
	cfg := core.T424().WithMemory(64 * 1024)
	start := core.MustNew(cfg).CodeStart()
	if start%4 != 0 {
		t.Fatalf("code starts at %#x, off a word boundary", start)
	}
	boundary := start&^0xFF + 0x100
	// ldc 1, stl 1 and a prefixed j are 4 bytes; the second block,
	// ldc 2, stl 2, ldc 3, stl 3 and a prefixed stopp, is 6.
	pad := int(boundary-start) - 3 - 4
	first := [2]uint64{start, start + 4}
	straddler := [2]uint64{boundary - 3, boundary + 3}
	type program struct {
		img core.Image
		ran [][2]uint64 // the blocks a run leaves
	}
	jumpOver := program{assemble(t, fmt.Sprintf(
		"\tldc 1\n\tstl 1\n\tj b\n\tspace %d\nb:\tldc 2\n\tstl 2\n\tldc 3\n\tstl 3\n\tstopp\n", pad)),
		[][2]uint64{first, straddler}}
	// ldc 0 and stl 1 are 2 bytes, the loop body to its nfix-prefixed
	// cj 7 more, and the prefixed stopp 2.
	whole := [2]uint64{start, start + 9}
	entered := [2]uint64{start + 2, start + 9}
	tail := [2]uint64{start + 9, start + 11}
	loop := program{assemble(t, "\tldc 0\n\tstl 1\nmid:\tldl 1\n\tadc 1\n\tstl 1\n\tldl 1\n\teqc 2\n\tcj mid\n\tstopp\n"),
		[][2]uint64{whole, entered, tail}}
	// A 1-byte j forward over the 4-byte block it skips, then ldc 1,
	// stl 1 and an nfix-prefixed j back to it.
	jumpFwd, skipped, jumpBack := [2]uint64{start, start + 1}, [2]uint64{start + 1, start + 5}, [2]uint64{start + 5, start + 9}
	backward := program{assemble(t, "\tj fwd\nback:\tldc 2\n\tstl 2\n\tstopp\nfwd:\tldc 1\n\tstl 1\n\tj back\n"),
		[][2]uint64{jumpFwd, skipped, jumpBack}}
	for _, tc := range []struct {
		name  string
		prog  program
		write func(m *core.Machine)
		want  [][2]uint64
	}{
		{"gap byte on the first block's page", jumpOver, func(m *core.Machine) { m.SetByteAt(start+16, 0) },
			[][2]uint64{first, straddler}},
		{"first block's last byte", jumpOver, func(m *core.Machine) { m.SetByteAt(start+3, m.ByteAt(start+3)) },
			[][2]uint64{straddler}},
		{"straddler's byte below the boundary", jumpOver, func(m *core.Machine) { m.SetByteAt(boundary-1, m.ByteAt(boundary-1)) },
			[][2]uint64{first}},
		{"straddler's word above the boundary", jumpOver, func(m *core.Machine) { m.WriteWord(boundary, m.ReadWord(boundary)) },
			[][2]uint64{first}},
		{"word ending below the straddler", jumpOver, func(m *core.Machine) { m.WriteWord(boundary-8, m.ReadWord(boundary-8)) },
			[][2]uint64{first, straddler}},
		{"loop's first byte", loop, func(m *core.Machine) { m.SetByteAt(start, m.ByteAt(start)) },
			[][2]uint64{entered, tail}},
		{"byte where the loop is entered", loop, func(m *core.Machine) { m.SetByteAt(start+2, m.ByteAt(start+2)) },
			[][2]uint64{tail}},
		{"word spanning the loop's end and the tail", loop, func(m *core.Machine) { m.WriteWord(start+8, m.ReadWord(start+8)) },
			nil},
		{"tail's last byte", loop, func(m *core.Machine) { m.SetByteAt(start+10, m.ByteAt(start+10)) },
			[][2]uint64{whole, entered}},
		{"block decoded last", backward, func(m *core.Machine) { m.SetByteAt(start+2, m.ByteAt(start+2)) },
			[][2]uint64{jumpFwd, jumpBack}},
	} {
		m := core.MustNew(cfg)
		run := func(when string) {
			if err := m.Load(tc.prog.img); err != nil {
				t.Fatal(err)
			}
			if got := core.CachedRanges(m); got != nil {
				t.Fatalf("%s: blocks %x %s, before the run", tc.name, got, when)
			}
			for !m.Idle() {
				if stepOne(m) == 0 {
					t.Fatalf("%s: stopped: %v", tc.name, m.Fault())
				}
			}
			if got := core.CachedRanges(m); !reflect.DeepEqual(got, tc.prog.ran) {
				t.Fatalf("%s: blocks %x %s, want %x", tc.name, got, when, tc.prog.ran)
			}
		}
		run("after the run")
		tc.write(m)
		if got := core.CachedRanges(m); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: blocks %x after the write, want %x", tc.name, got, tc.want)
		}
		if err := core.CheckIndex(m); err != nil {
			t.Errorf("%s: after the write: %v", tc.name, err)
		}
		run("after a reload and a rerun")
		if err := core.CheckIndex(m); err != nil {
			t.Errorf("%s: after a reload and a rerun: %v", tc.name, err)
		}
	}
}

// TestCodeWriteAllocFree: a store that passes the cache's write filter
// walks and compacts the block index in place, allocating nothing,
// whether it drops a block or misses them all.
func TestCodeWriteAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	m := core.MustNew(core.T424().WithMemory(64 * 1024))
	start := m.CodeStart()
	if err := m.Load(assemble(t, "\tldc 0\n\tstl 1\nmid:\tldl 1\n\tadc 1\n\tstl 1\n\tldl 1\n\teqc 2\n\tcj mid\n\tstopp\n")); err != nil {
		t.Fatal(err)
	}
	for !m.Idle() {
		if stepOne(m) == 0 {
			t.Fatalf("stopped: %v", m.Fault())
		}
	}
	if blocks, _ := core.CachedCode(m); blocks != 3 {
		t.Fatalf("%d blocks cached, want 3", blocks)
	}
	// Drop the tail, the whole loop, the block entered mid-way, then
	// nothing: the filter still covers all three.
	for _, off := range []uint64{10, 1, 2, 5} {
		if n := testing.AllocsPerRun(100, func() { m.SetByteAt(start+off, m.ByteAt(start+off)) }); n != 0 {
			t.Errorf("a store at code offset %d allocates %.1f times", off, n)
		}
	}
	if blocks, _ := core.CachedCode(m); blocks != 0 {
		t.Errorf("%d blocks left, want 0", blocks)
	}
}

// pingPongSource is two blocks that each rewrite a byte of the other
// (with the value it already has) and jump to it, for ever.  Every
// block is entered over an edge from the block that is about to be
// invalidated by it, so the dead blocks form one chain, oldest first —
// and the opening jump, which never runs again, keeps an edge to the
// oldest.
const pingPongSource = `
	j r0
r0:	ldc 1
	stl 2
	ldc #41
	ldpi r1
	sb
	j r1
r1:	ldc 1
	stl 2
	ldc #41
	ldpi r0
	sb
	j r0
`

// TestInvalidatedBlocksAreReleased: a block that a store invalidates
// drops its chain edges, so a program that keeps rewriting itself keeps
// only its live blocks (and at most one dead one per stale edge), not
// every block it ever decoded.
func TestInvalidatedBlocksAreReleased(t *testing.T) {
	m := core.MustNew(core.T424().WithMemory(64 * 1024))
	if err := m.Load(assemble(t, pingPongSource)); err != nil {
		t.Fatal(err)
	}
	const rewrites = 4096
	for i := 0; i < 7*rewrites; i++ { // seven instructions a block
		if stepOne(m) == 0 {
			t.Fatalf("stopped after %d steps: %v", i, m.Fault())
		}
	}
	if n := core.ReachableBlocks(m); n > 8 {
		t.Errorf("%d blocks reachable after %d rewrites, want a handful", n, rewrites)
	}
}
