package core_test

import (
	"runtime"
	"testing"

	"transputer/internal/apps/dbsearch"
	"transputer/internal/core"
	"transputer/internal/raceflag"
	"transputer/internal/sim"
)

// stepAgainst runs one batch on m, through StepRun or Step, brings the
// stepwise reference up to the same cycle count and compares the two.
// It reports whether m ran anything.
func stepAgainst(t *testing.T, batch int, m, ref *core.Machine, maxNs int64) bool {
	t.Helper()
	ran := 0
	if batch%3 != 2 {
		ran, _ = m.StepRun(maxNs)
	}
	if ran == 0 {
		ran = m.Step()
	}
	if ran == 0 {
		ref.Step()
	}
	for ref.Cycles() < m.Cycles() && ref.Step() != 0 {
	}
	compareMachines(t, batch, m, ref)
	return ran != 0
}

// flaggedRewriteSource adds site's constant to x twenty times; with
// local 3 set it also rewrites site to ldc 2 on every pass, so x is 20
// with the flag clear and 1 + 19*2 = 39 with it set.
const flaggedRewriteSource = `
	ldc 0
	stl 1
	ldc 20
	stl 2
loop:
site:
	ldc 1
	ldl 1
	add
	stl 1
	ldl 3
	cj skip
	ldc #42
	ldpi site
	sb
skip:
	ldl 2
	adc -1
	stl 2
	ldl 2
	cj done
	j loop
done:
	stopp
`

// TestSharedCodeIsInvisible: two machines of one store load the same
// image and run in turns, a batch each.  One rewrites its own loop and
// decodes it again; the other keeps running the code they shared.
// Each matches its stepwise reference after every batch.
func TestSharedCodeIsInvisible(t *testing.T) {
	img := assemble(t, flaggedRewriteSource)
	cfg := core.T424().WithMemory(64 * 1024)
	st := core.NewCodeStore()
	var ms, refs [2]*core.Machine
	for i := range ms {
		var err error
		if ms[i], err = core.NewShared(cfg, st); err != nil {
			t.Fatal(err)
		}
		refs[i] = core.MustNew(cfg)
		refs[i].SetBlockCache(false)
		for _, m := range []*core.Machine{ms[i], refs[i]} {
			if err := m.Load(img); err != nil {
				t.Fatal(err)
			}
			m.WriteWord(m.EntryWptr()+3*4, uint64(i)) // machine 1 rewrites
		}
	}
	shared := false
	for batch := 0; batch < 400; batch++ {
		a := stepAgainst(t, batch, ms[0], refs[0], int64(50*(1+batch%13)))
		b := stepAgainst(t, batch, ms[1], refs[1], int64(50*(1+batch%7)))
		shared = shared || core.SharesCode(ms[0], ms[1])
		if !a && !b {
			break
		}
	}
	if !ms[0].Idle() || !ms[1].Idle() {
		t.Fatal("the machines did not finish")
	}
	if x0, x1 := ms[0].Local(1), ms[1].Local(1); x0 != 20 || x1 != 39 {
		t.Errorf("x = %d and %d, want 20 and 39", x0, x1)
	}
	if !shared {
		t.Error("the machines never held the same code")
	}
	if core.StoreOf(ms[0]) != st || core.StoreOf(ms[1]) != st {
		t.Error("a machine built with a store decodes into another")
	}
	// The rewriting machine's loop head is new code; the reader's is
	// the code both decoded first.
	codes, _ := core.StoreCounts(st)
	reader, _ := core.CachedCode(ms[0])
	if codes <= reader {
		t.Errorf("the store holds %d codes, no more than the reader's %d blocks", codes, reader)
	}
}

// TestCodeNotSharedAcrossModels: a T424 and a T222 loaded with the
// same bytes decode them differently, and never share code.
func TestCodeNotSharedAcrossModels(t *testing.T) {
	img := assemble(t, loopSource)
	st := core.NewCodeStore()
	var ms []*core.Machine
	blocks := 0
	for _, cfg := range []core.Config{core.T424().WithMemory(64 * 1024), core.T222().WithMemory(16 * 1024)} {
		m, err := core.NewShared(cfg, st)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Load(img); err != nil {
			t.Fatal(err)
		}
		if res := core.Run(m, 100*sim.Millisecond); !res.Settled || m.Fault() != nil {
			t.Fatalf("%s: settled=%v fault=%v", cfg.Name, res.Settled, m.Fault())
		}
		n, _ := core.CachedCode(m)
		blocks += n
		ms = append(ms, m)
	}
	for i := range ms {
		for j := i + 1; j < len(ms); j++ {
			if core.SharesCode(ms[i], ms[j]) {
				t.Errorf("machines %d and %d share code", i, j)
			}
		}
	}
	if codes, _ := core.StoreCounts(st); codes != blocks {
		t.Errorf("the store holds %d codes for %d blocks", codes, blocks)
	}
}

// counterRewriteSource stores a counter's low twelve bits into the
// prefix chain at site on every pass, 5 000 passes: more distinct runs
// of code than a store may hold.
const counterRewriteSource = `
	ldc 0
	stl 1
loop:
	ldl 1
	ldc 8
	shr
	ldc 15
	and
	ldc #20
	or
	ldpi site
	sb
	ldl 1
	ldc 4
	shr
	ldc 15
	and
	ldc #20
	or
	ldpi site
	adc 1
	sb
	ldl 1
	ldc 15
	and
	ldc #40
	or
	ldpi site
	adc 2
	sb
site:
	byte #20, #20, #40
	stl 2
	ldl 1
	adc 1
	stl 1
	ldl 1
	eqc 5000
	cj loop
	stopp
`

// TestCodeStoreBounded: a program that keeps rewriting its own ldc
// operand fills its store to the cap and no further, and decodes the
// rest privately to the same effect.
func TestCodeStoreBounded(t *testing.T) {
	img := assemble(t, counterRewriteSource)
	var x [2]uint64
	for i, cache := range []bool{true, false} {
		cfg := core.T424().WithMemory(64 * 1024)
		m := core.MustNew(cfg)
		m.SetBlockCache(cache)
		if err := m.Load(img); err != nil {
			t.Fatal(err)
		}
		if res := core.Run(m, 10*sim.Second); !res.Settled || m.Fault() != nil {
			t.Fatalf("cache=%v: settled=%v fault=%v", cache, res.Settled, m.Fault())
		}
		x[i] = m.Local(2)
		if cache {
			if codes, _ := core.StoreCounts(core.StoreOf(m)); codes != core.MaxCodes {
				t.Errorf("the store holds %d codes, want the cap, %d", codes, core.MaxCodes)
			}
		}
	}
	if x[0] != 4999%4096 || x[1] != x[0] {
		t.Errorf("last constant %d (cache on), %d (off), want %d", x[0], x[1], 4999%4096)
	}
}

// TestRewriteWithSameBytesAddsNoCode: pingPongSource invalidates a
// block on every pass, but rewrites it with the byte already there, so
// each decode finds the code it had.
func TestRewriteWithSameBytesAddsNoCode(t *testing.T) {
	m := core.MustNew(core.T424().WithMemory(64 * 1024))
	if err := m.Load(assemble(t, pingPongSource)); err != nil {
		t.Fatal(err)
	}
	var first int
	for i := 0; i < 7*4096; i++ {
		if stepOne(m) == 0 {
			t.Fatalf("stopped after %d steps: %v", i, m.Fault())
		}
		if i == 7*4 {
			first, _ = core.StoreCounts(core.StoreOf(m))
		}
	}
	if codes, _ := core.StoreCounts(core.StoreOf(m)); codes != first || codes > 4 {
		t.Errorf("the store holds %d codes after 4096 rewrites, %d after 4", codes, first)
	}
}

// TestSearchArraySharesCode pins what the 128-transputer search holds
// decoded after a run: every node's blocks, and the few distinct codes
// they are handles on, the nodes differing only in a constant and their
// link set.
func TestSearchArraySharesCode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the 128-node array")
	}
	p := dbsearch.Defaults128()
	s, err := dbsearch.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	keys := []int64{5, 17, 29, 41, 53, 65, 77, 89}
	got, rep := s.RunSearches(keys, 10*sim.Second)
	if !rep.Settled || len(got) != len(keys) {
		t.Fatalf("settled=%v answers=%d", rep.Settled, len(got))
	}
	var blocks, recs int
	var st *core.CodeStore
	for _, n := range s.Net.Nodes() {
		b, r := core.CachedCode(n.M)
		blocks += b
		recs += r
		if st == nil {
			st = core.StoreOf(n.M)
		} else if core.StoreOf(n.M) != st {
			t.Fatalf("node %s decodes into a store of its own", n.Name)
		}
	}
	codes, codeRecs := core.StoreCounts(st)
	t.Logf("%d blocks of %d records on %d nodes; %d codes of %d records", blocks, recs, len(s.Net.Nodes()), codes, codeRecs)
	if blocks != 3859 || recs != 21034 || codes != 294 || codeRecs != 1980 {
		t.Errorf("%d blocks of %d records, %d codes of %d records; want 3859, 21034, 294 and 1980",
			blocks, recs, codes, codeRecs)
	}
}

// TestSharedCodeAllocGuard: a machine that runs code its store already
// holds allocates a handle per block, and its index over them, but
// none of the code.  The guard compares one run of loopSource on a
// cold store, one on a warm store and one without the cache.
func TestSharedCodeAllocGuard(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	img := assemble(t, loopSource)
	st := core.NewCodeStore()
	run := func(cache bool) (bytes uint64, m *core.Machine) {
		cfg := core.T424().WithMemory(64 * 1024)
		m, err := core.NewShared(cfg, st)
		if err != nil {
			t.Fatal(err)
		}
		m.SetBlockCache(cache)
		if err := m.Load(img); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		core.Run(m, 100*sim.Millisecond)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, m
	}
	off, _ := run(false)
	cold, _ := run(true)
	codes, _ := core.StoreCounts(st)
	warm, m := run(true)
	blocks, _ := core.CachedCode(m)
	if again, _ := core.StoreCounts(st); again != codes {
		t.Errorf("the warm run added %d codes", again-codes)
	}
	t.Logf("run without the cache %d bytes, on a cold store %d, on a warm one %d (%d blocks)", off, cold, warm, blocks)
	if handles := uint64(blocks * core.BlockSize); warm-off > handles+1024 {
		t.Errorf("on a warm store the cache allocates %d bytes for %d blocks: more than their %d bytes of handles and 1 KiB of index",
			warm-off, blocks, handles)
	}
	if _, recs := core.StoreCounts(st); cold-warm < uint64(recs*32) {
		t.Errorf("a cold store's run allocates %d bytes, a warm one's %d: the warm run copied some of the %d records",
			cold, warm, recs)
	}
}
