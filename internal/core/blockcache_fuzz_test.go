package core_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"transputer/internal/asm"
	"transputer/internal/core"
	"transputer/internal/occam"
)

// The differential checker: one image, two machines — block cache on
// and off — driven in lock step, compared after every batch.  The
// cached machine runs through StepRun with random time bounds (falling
// back to Step when the fast path declines, and sometimes using Step
// outright so the two entry points hand the cursor to each other); the
// uncached machine steps one instruction at a time up to the same cycle
// total.  Whatever the program does — loops, calls, rewriting its own
// code, faulting — the two must be indistinguishable.  The cached
// machine's memory is backed lazily, as every machine's is, and the
// uncached one's fully, as New allocated it before (core.BackFully), so
// the same comparison holds growing the backing to nothing.

// diffWordBytes are the word sizes every input runs at: the 32-bit T424
// and the 16-bit T222, where operands wrap, and word displacements
// sign-extend, at 16 bits.
var diffWordBytes = []int{4, 2}

// diffConfig is small enough to compare whole memories per batch and
// slices time finely enough that a timeslice falls due every few
// batches.  With small set memory is 1 KiB, which a generated program
// nearly fills on the T222 (and overfills on the T424), while a raw
// image leaves most of it unbacked (see climbLoop).
func diffConfig(wordBytes int, small bool) core.Config {
	cfg := core.T424()
	if wordBytes == 2 {
		cfg = core.T222()
	}
	cfg = cfg.WithMemory(16 * 1024)
	if small {
		cfg = cfg.WithMemory(1024)
	}
	cfg.TimesliceCycles = 97
	return cfg
}

// logModel names the machine a failed run was on.
func logModel(t *testing.T, cfg core.Config) {
	if t.Failed() {
		t.Logf("on the %s", cfg.Name)
	}
}

// runDifferential drives the image on both machines until it stops or
// for 1500 batches (the seed programs finish inside a few hundred), with
// bounds drawn from seed.  The cached machine shares its code store
// with a twin given the same image and the same batches, the two taking
// turns to go first, so each decodes half its blocks and finds the
// other half decoded by its twin, and every invalidation leaves the
// other holding the code.  The twin is held to the interpreter too.  An
// image that does not load is no test.
func runDifferential(t *testing.T, img core.Image, wordBytes int, small bool, seed int64) {
	t.Helper()
	cfg := diffConfig(wordBytes, small)
	defer logModel(t, cfg)
	st := core.NewCodeStore()
	on, err := core.NewShared(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := core.NewShared(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	off := core.MustNew(cfg)
	off.SetBlockCache(false)
	core.BackFully(off)
	if err := on.Load(img); err != nil {
		return
	}
	if err := twin.Load(img); err != nil {
		t.Fatalf("image loads on one sharer but not the other: %v", err)
	}
	if err := off.Load(img); err != nil {
		t.Fatalf("image loads with the cache on but not off: %v", err)
	}
	rng := rand.New(rand.NewSource(seed))
	cyc := int64(core.CycleNs)
	for batch := 0; batch < 1500; batch++ {
		maxNs := int64(1+rng.Intn(48)) * cyc
		if rng.Intn(8) == 0 {
			maxNs *= 40
		}
		if total, last := off.StepRun(maxNs); total != 0 || last != 0 {
			t.Fatalf("batch %d: StepRun ran %d cycles with the cache off", batch, total)
		}
		stepRun := rng.Intn(5) != 0
		run := func(m *core.Machine) int {
			ran := 0
			if stepRun {
				total, last := m.StepRun(maxNs)
				if total > 0 && int64(total-last)*cyc >= maxNs {
					t.Fatalf("batch %d: StepRun(%d ns) started its last record at %d ns",
						batch, maxNs, int64(total-last)*cyc)
				}
				ran = total
			}
			if ran == 0 {
				ran = m.Step()
			}
			return ran
		}
		var ran int
		if batch%2 == 0 {
			ran = run(on)
			run(twin)
		} else {
			run(twin)
			ran = run(on)
		}
		if ran == 0 {
			off.Step() // a step that cost nothing: a fetch fault, or nothing to run
		}
		for off.Cycles() < on.Cycles() && off.Step() != 0 {
		}
		compareMachines(t, batch, on, off)
		compareMachines(t, batch, twin, off)
		if ran == 0 || on.Halted() || on.Idle() {
			break
		}
	}
}

// The run-ahead checker adds a link engine the test controls.  Both
// machines get a fakeLinks; the cached one is driven the way the runner
// drives it — StepRun or Step up to a random horizon or the next
// injection already known, whichever is first, then RunAhead past the
// horizon — and only afterwards learns of injections at or past that
// horizon, which may lie in what it has already executed.  The stepwise
// machine takes every injection at the first instruction boundary at or
// after its instant.  If RunAhead ever executes an instruction a
// delivery could have changed, or that changes a delivery, the two part.

// fakeLinks is a core.External whose transfers move only when told to.
type fakeLinks struct {
	m     *core.Machine
	xf    [core.NumLinks][2]fakeXfer // [link][0] input, [link][1] output
	armed [core.NumLinks]func()
	fired [core.NumLinks]bool
	sent  []byte // every byte read from an output buffer, in order
}

type fakeXfer struct {
	open         bool
	gen          int // which transfer of this direction: injections name it
	ptr          uint64
	count, moved int
	done         func()
}

func (f *fakeLinks) begin(link, dir int, ptr uint64, count int, done func()) {
	x := &f.xf[link][dir]
	switch {
	case x.open: // a channel end already in use never completes
	case count == 0:
		done()
	default:
		*x = fakeXfer{open: true, gen: x.gen + 1, ptr: ptr, count: count, done: done}
	}
}

func (f *fakeLinks) BeginOutput(c core.End, ptr uint64, count int, done func()) {
	f.begin(c.Link(), 1, ptr, count, done)
}

func (f *fakeLinks) BeginInput(c core.End, ptr uint64, count int, done func()) {
	f.begin(c.Link(), 0, ptr, count, done)
}

func (f *fakeLinks) EnableInput(c core.End, ready func()) bool {
	if f.fired[c.Link()] {
		return true
	}
	f.armed[c.Link()] = ready
	return false
}

func (f *fakeLinks) DisableInput(c core.End) bool {
	fired := f.fired[c.Link()]
	f.armed[c.Link()], f.fired[c.Link()] = nil, false
	return fired
}

func (f *fakeLinks) HandoffFlow(c core.End, flow uint64) {}
func (f *fakeLinks) TransferFlow(c core.End) uint64      { return 0 }

// injection is one thing the link engine does to the machine at time
// at: move the next byte of a transfer (completing it with the last),
// or signal an armed alternative.
type injection struct {
	at        int64 // in cycles
	link, dir int
	gen       int // 0: the alternative signal
	v         byte
}

func (f *fakeLinks) apply(in injection) {
	if in.gen == 0 {
		f.fired[in.link] = true
		if ready := f.armed[in.link]; ready != nil {
			f.armed[in.link] = nil
			ready()
		}
		return
	}
	x := &f.xf[in.link][in.dir]
	if !x.open || x.gen != in.gen {
		return
	}
	if in.dir == 0 {
		f.m.SetByteAt(x.ptr+uint64(x.moved), in.v)
	} else {
		f.sent = append(f.sent, f.m.ByteAt(x.ptr+uint64(x.moved)))
	}
	if x.moved++; x.moved == x.count {
		x.open = false
		x.done()
	}
}

// side is one machine of the pair with its link engine and the number
// of injections it has taken.
type side struct {
	m     *core.Machine
	links *fakeLinks
	taken int
}

// take applies the injections due at the machine's next instruction
// boundary.
func (s *side) take(pending []injection, skew int64) {
	for s.taken < len(pending) && pending[s.taken].at <= int64(s.m.Cycles())+skew {
		s.links.apply(pending[s.taken])
		s.taken++
	}
}

// runAheadDifferential drives the image on a cached machine that runs
// ahead of random horizons and on a stepwise one, both under the same
// injections, for at most 1500 batches.  As in runDifferential the
// stepwise machine's memory is fully backed.
func runAheadDifferential(t *testing.T, img core.Image, wordBytes int, small bool, seed int64) {
	t.Helper()
	cfg := diffConfig(wordBytes, small)
	defer logModel(t, cfg)
	var on, off side
	for _, s := range []*side{&on, &off} {
		s.m = core.MustNew(cfg)
		if s == &off {
			s.m.SetBlockCache(false)
			core.BackFully(s.m)
		}
		s.links = &fakeLinks{m: s.m}
		s.m.Attach(nil, s.links)
		if err := s.m.Load(img); err != nil {
			return // no test
		}
	}
	rng := rand.New(rand.NewSource(seed))
	cyc := int64(core.CycleNs)
	// pending holds every injection made, ordered by time; skew is the
	// time that passed with both machines idle.
	var pending []injection
	var skew int64
	inject := func(at int64) bool {
		// Something the engine could do now: the state is the cached
		// machine's, which opens and closes transfers only inside its
		// horizon, where the two agree.
		var can []injection
		for l := range on.links.xf {
			for d, x := range on.links.xf[l] {
				if x.open {
					can = append(can, injection{link: l, dir: d, gen: x.gen})
				}
			}
			if on.links.armed[l] != nil {
				can = append(can, injection{link: l})
			}
		}
		if len(can) == 0 {
			return false
		}
		in := can[rng.Intn(len(can))]
		in.at, in.v = at, byte(0x40|rng.Intn(16)) // a load constant, should it land in code
		i := len(pending)
		pending = append(pending, in)
		for ; i > on.taken && pending[i-1].at > at; i-- {
			pending[i-1], pending[i] = pending[i], pending[i-1]
		}
		return true
	}
	for batch := 0; batch < 1500; batch++ {
		now := int64(on.m.Cycles()) + skew
		on.take(pending, skew)
		off.take(pending, skew)
		known := int64(1) << 40
		if on.taken < len(pending) {
			known = pending[on.taken].at
		}
		horizon := now + int64(1+rng.Intn(48))
		bound := min(horizon, known)
		ran := 0
		if rng.Intn(5) != 0 {
			total, last := on.m.StepRun((bound - now) * cyc)
			if total > 0 && int64(total-last) >= bound-now {
				t.Fatalf("batch %d: StepRun started its last record %d cycles in, bound %d",
					batch, total-last, bound-now)
			}
			ran = total
		}
		if ran == 0 {
			ran = on.m.Step()
		}
		if ran == 0 {
			// Halted, or idle until the engine does something.
			off.m.Step()
			compareMachines(t, batch, on.m, off.m)
			if on.m.Halted() || (on.taken == len(pending) && !inject(now+int64(rng.Intn(64)))) {
				break
			}
			if at := pending[on.taken].at; at > now {
				skew += at - now
			}
			continue
		}
		if at := now + int64(ran); at >= horizon && at < known {
			// The horizon ended the batch: go on past it.
			limit := min(known, at+int64(1+rng.Intn(400)))
			total, last, _ := on.m.RunAhead((limit - at) * cyc)
			if total > 0 && int64(total-last) >= limit-at {
				t.Fatalf("batch %d: RunAhead started its last record %d cycles in, bound %d",
					batch, total-last, limit-at)
			}
		}
		// What the engine does next is at or past the horizon, but not
		// necessarily past what has run.
		for n := rng.Intn(3); n > 0; n-- {
			inject(horizon + int64(rng.Intn(96)))
		}
		on.take(pending, skew)
		for off.take(pending, skew); off.m.Cycles() < on.m.Cycles() && off.m.Step() != 0; off.take(pending, skew) {
		}
		compareMachines(t, batch, on.m, off.m)
		if !bytes.Equal(on.links.sent, off.links.sent) {
			t.Fatalf("batch %d: bytes sent differ\non:  %x\noff: %x", batch, on.links.sent, off.links.sent)
		}
		if on.taken != off.taken {
			t.Fatalf("batch %d: injections taken differ: %d and %d", batch, on.taken, off.taken)
		}
	}
}

// compareMachines fails unless the two machines are in the same state.
func compareMachines(t *testing.T, batch int, on, off *core.Machine) {
	t.Helper()
	type regs struct {
		Iptr, Wdesc, A, B, C, O uint64
		Fptr, Bptr              [2]uint64
		Halted, Error, Idle     bool
		Fault                   string
		Cycles                  uint64
	}
	snap := func(m *core.Machine) regs {
		r := regs{Iptr: m.Iptr, Wdesc: m.Wdesc, A: m.Areg, B: m.Breg, C: m.Creg, O: m.Oreg,
			Fptr: m.Fptr, Bptr: m.Bptr,
			Halted: m.Halted(), Error: m.ErrorFlag(), Idle: m.Idle(), Cycles: m.Cycles()}
		if err := m.Fault(); err != nil {
			r.Fault = err.Error()
		}
		return r
	}
	if a, b := snap(on), snap(off); a != b {
		t.Fatalf("batch %d: state differs\non:  %+v\noff: %+v", batch, a, b)
	}
	if a, b := on.Stats(), off.Stats(); !reflect.DeepEqual(a, b) {
		t.Fatalf("batch %d: stats differ\non:  %+v\noff: %+v", batch, a, b)
	}
	if a, b := core.MemOf(on), core.MemOf(off); !bytes.Equal(a, b) {
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("batch %d: memory differs at offset %#x: on %#02x, off %#02x", batch, i, a[i], b[i])
			}
		}
	}
}

// progGen turns fuzz bytes into a tasm program built from the shapes
// the block cache cares about: direct functions whose operands need
// prefix chains of every length, pure operations, counted cj/j and lend
// loops, forward branches, calls, and stores into code — a byte or a
// word of one of the program's patch sites, which may lie later in the
// block executing the store, in a block already decoded and chained
// (the store sits in a loop), or at a block's first byte (sites follow
// labels and branches).  Every patch writes load-constant bytes, so the
// program stays well formed; exhausted data reads as zero, so every
// input terminates.  With links set the program also starts up to three
// more processes, at either priority, each of which inputs and outputs
// on a link of its own a few times — into and out of its own workspace,
// the main process's locals, or a patch site — while the rest computes.
type progGen struct {
	links   bool
	procs   []string // the link processes' code, emitted after the main program
	data    []byte
	pos     int
	lines   []string
	labels  int
	depth   int
	sites   [2]int   // byte and word patch sites emitted so far
	funcs   []string // labels of the functions defined so far
	patches []patchRef
}

type patchRef struct{ line, word, pick int }

var (
	genOperands = []int64{0, 1, 7, 15, 16, 17, 255, 256, 4095, 65536, 0x7FFFFFFF,
		-1, -15, -16, -17, -256, -257, -0x80000000}
	genOps = []string{"add", "sub", "mul", "xor", "and", "or", "gt", "diff", "sum", "rev",
		"div", "rem", "shl", "shr", "prod", "bsub", "wsub", "not", "mint", "bcnt", "wcnt"}
)

func (g *progGen) next() int {
	if g.pos >= len(g.data) {
		return 0
	}
	g.pos++
	return int(g.data[g.pos-1])
}

func (g *progGen) emit(format string, args ...interface{}) {
	g.lines = append(g.lines, fmt.Sprintf(format, args...))
}

func (g *progGen) label() string {
	g.labels++
	return fmt.Sprintf("l%d", g.labels)
}

func (g *progGen) local() int     { return 1 + g.next()%12 }
func (g *progGen) operand() int64 { return genOperands[g.next()%len(genOperands)] }

// site emits a patch site: load-constant bytes a patch may rewrite,
// stored somewhere visible.  A word site is word aligned.
func (g *progGen) site(word int) {
	if word == 1 {
		g.emit("\talign")
		g.emit("w%d:\tldc 1", g.sites[1])
		g.emit("\tldc 2")
		g.emit("\tldc 3")
		g.emit("\tldc 4")
	} else {
		g.emit("p%d:\tldc 1", g.sites[0])
	}
	g.sites[word]++
	g.emit("\tstl %d", g.local())
}

// patch emits a store into a patch site: target when it is non-negative,
// else one chosen from the whole program once all sites are known.  The
// byte stored is a load constant of the low bits of local v.
func (g *progGen) patch(word, v, target int) {
	if word == 1 {
		g.emit("\tldc #4%x4%x4%x4%x", g.next()&15, g.next()&15, g.next()&15, g.next()&15)
	} else {
		g.emit("\tldl %d", v)
		g.emit("\tldc 15")
		g.emit("\tand")
		g.emit("\tldc #40")
		g.emit("\tor")
	}
	if target < 0 {
		g.patches = append(g.patches, patchRef{line: len(g.lines), word: word, pick: g.next()})
		g.emit("")
	} else {
		g.emit("\tldpi %c%d", "pw"[word], target)
	}
	if word == 1 {
		g.emit("\tstnl 0")
	} else {
		g.emit("\tsb")
	}
}

func (g *progGen) body() {
	g.depth++
	for n := 1 + g.next()%4; n > 0; n-- {
		g.stmt()
	}
	g.depth--
}

// childWs is the workspace of link process k, in words below the main
// process's: under its deepest call frame.
func childWs(k int) int { return 96 + 16*k }

// buffer emits a load of a message buffer's address for link process k:
// its own workspace, a main-process local, or a patch site.
func (g *progGen) buffer(k int) string {
	switch pick := g.next(); pick % 4 {
	case 0, 2:
		return fmt.Sprintf("\tldlp %d", childWs(k)+g.local())
	case 1:
		return fmt.Sprintf("\tldpi %c0", "pw"[pick/4%2])
	}
	return "\tldlp 1"
}

// spawn starts link process k: its code address goes into its
// workspace, and a run process on its descriptor queues it — or, at
// high priority, preempts.
func (g *progGen) spawn() {
	k := len(g.procs)
	if k == core.NumLinks-1 {
		return
	}
	g.emit("\tldpi c%d", k)
	g.emit("\tldlp %d", -childWs(k))
	g.emit("\tstnl -1")
	g.emit("\tldlp %d", -childWs(k))
	if g.next()%3 != 0 {
		g.emit("\tadc 1") // low priority
	}
	g.emit("\trunp")
	p := []string{
		fmt.Sprintf("c%d:\tldc %d", k, 1+g.next()%3), "\tstl 3",
		fmt.Sprintf("r%d:", k),
		g.buffer(k), "\tmint", fmt.Sprintf("\tldnlp %d", 4+k), fmt.Sprintf("\tldc %d", 1+g.next()%8), "\tin",
		g.buffer(k), "\tmint", fmt.Sprintf("\tldnlp %d", k), fmt.Sprintf("\tldc %d", 1+g.next()%8), "\tout",
		"\tldl 3", "\tadc -1", "\tstl 3", "\tldl 3", fmt.Sprintf("\tcj e%d", k), fmt.Sprintf("\tj r%d", k),
		fmt.Sprintf("e%d:\tstopp", k),
	}
	g.procs = append(g.procs, strings.Join(p, "\n"))
}

func (g *progGen) stmt() {
	kinds := 14
	if g.links {
		kinds = 15
	}
	kind := g.next() % kinds
	switch {
	case g.depth >= 3 && kind >= 6 && kind <= 8:
		kind -= 6
	case g.depth >= 3 && kind == 13:
		kind = 0
	}
	switch kind {
	case 0:
		g.emit("\tldc %d", g.operand())
		g.emit("\tstl %d", g.local())
	case 1:
		g.emit("\tldl %d", g.local())
		g.emit("\tldl %d", g.local())
		g.emit("\t%s", genOps[g.next()%len(genOps)])
		g.emit("\tstl %d", g.local())
	case 2:
		v := g.local()
		g.emit("\tldl %d", v)
		g.emit("\tadc %d", g.operand())
		g.emit("\tstl %d", v)
	case 3:
		g.emit("\tldl %d", g.local())
		g.emit("\teqc %d", g.operand())
		g.emit("\tstl %d", g.local())
	case 4:
		g.emit("\tldlp %d", g.local())
		g.emit("\tldnl %d", g.next()%4)
		g.emit("\tstl %d", g.local())
	case 5:
		g.emit("\tldl %d", g.local())
		g.emit("\tldlp %d", g.local())
		g.emit("\tstnl %d", g.next()%4)
	case 6: // counted loop
		ctr, head, done := 13+g.depth, g.label(), g.label()
		g.emit("\tldc %d", 1+g.next()%4)
		g.emit("\tstl %d", ctr)
		g.emit("%s:", head)
		// The loop head is a patch site the body's end rewrites with the
		// counter: each pass reaches, over a chain edge, a block whose
		// first byte has changed since the edge was made.
		mine := g.sites[0]
		g.site(0)
		g.body()
		g.patch(0, ctr, mine)
		g.emit("\tldl %d", ctr)
		g.emit("\tadc -1")
		g.emit("\tstl %d", ctr)
		g.emit("\tldl %d", ctr)
		g.emit("\tcj %s", done)
		g.emit("\tj %s", head)
		g.emit("%s:", done)
	case 7: // forward branch
		skip := g.label()
		g.emit("\tldl %d", g.local())
		g.emit("\tcj %s", skip)
		g.body()
		g.emit("%s:", skip)
	case 8: // call and return
		if pick := g.next(); pick%2 == 1 && len(g.funcs) > 0 {
			// A second call site: the function's ret now leaves its
			// block by an edge that last led somewhere else.
			g.emit("\tcall %s", g.funcs[pick/2%len(g.funcs)])
			break
		}
		fn, over := g.label(), g.label()
		g.emit("\tcall %s", fn)
		g.emit("\tj %s", over)
		g.emit("%s:", fn)
		g.emit("\tajw -24") // keep the body's locals clear of the caller's frame
		g.body()
		g.emit("\tajw 24")
		g.emit("\tret")
		g.emit("%s:", over)
		g.funcs = append(g.funcs, fn) // callable once complete: no recursion
	case 9:
		g.patch(0, g.local(), -1)
	case 10:
		g.site(g.next() % 2)
	case 11:
		g.patch(1, 0, -1)
	case 12: // a store into the block executing it: the site comes next
		g.patch(0, g.local(), g.sites[0])
		g.site(0)
	case 13: // replicated loop: a two-word control block and lend
		blk, head, end := 16+2*g.depth, g.label(), g.label()
		g.emit("\tldc 0")
		g.emit("\tstl %d", blk)
		g.emit("\tldc %d", 1+g.next()%4)
		g.emit("\tstl %d", blk+1)
		g.emit("%s:", head)
		g.body()
		g.emit("\tldlp %d", blk)
		g.emit("\tldc %s-%s", end, head)
		g.emit("\tlend")
		g.emit("%s:", end)
	case 14:
		g.spawn()
	}
}

func genProgram(data []byte, links bool) string {
	g := &progGen{data: data, links: links}
	g.emit("\tws 160 64")
	g.site(0)
	g.site(1)
	for g.pos < len(g.data) {
		g.stmt()
	}
	g.emit("\tstopp")
	g.lines = append(g.lines, g.procs...)
	for _, p := range g.patches {
		g.lines[p.line] = fmt.Sprintf("\tldpi %c%d", "pw"[p.word], p.pick%g.sites[p.word])
	}
	return strings.Join(g.lines, "\n") + "\n"
}

// benchmarkLoops returns the three tasm loops the benchmark's core
// drivers time, read out of benchmark/drivers.go (package main, so not
// importable) and sized down.
func benchmarkLoops(tb testing.TB) []string {
	tb.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), filepath.Join("..", "..", "benchmark", "drivers.go"), nil, 0)
	if err != nil {
		tb.Fatal(err)
	}
	var loops []string
	ast.Inspect(file, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok {
			return true
		}
		for i, name := range spec.Names {
			switch name.Name {
			case "aluLoop", "memLoop", "chanLoop":
				src, err := strconv.Unquote(spec.Values[i].(*ast.BasicLit).Value)
				if err != nil {
					tb.Fatal(err)
				}
				loops = append(loops, fmt.Sprintf(src, 40))
			}
		}
		return true
	})
	if len(loops) != 3 {
		tb.Fatalf("found %d of the 3 tasm loops in benchmark/drivers.go", len(loops))
	}
	return loops
}

// exampleImages compiles every shipped occam example at the given word
// size.
func exampleImages(tb testing.TB, wordBytes int) []core.Image {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "*.occ"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no occam examples found: %v", err)
	}
	var imgs []core.Image
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		c, err := occam.Compile(string(src), occam.Options{WordBytes: wordBytes})
		if err != nil {
			tb.Fatalf("%s: %v", p, err)
		}
		imgs = append(imgs, c.Image)
	}
	return imgs
}

// climbLoop reads, then writes, each word from its workspace up, and a
// byte of each, growing the memory backing until it reads past the end
// of memory and faults.
const climbLoop = `	ldlp 2
	stl 0
loop:
	ldl 0
	ldnl 0
	adc 1
	ldl 0
	stnl 0
	ldl 0
	ldnl 0
	ldl 0
	adc 1
	sb
	ldl 0
	ldnlp 1
	stl 0
	j loop
`

// diffSeeds adds the shared seed corpus: the benchmark's loops and the
// compiled examples as raw images, built for each word size (every
// image runs at both), a program that climbs off the end of 1 KiB of
// memory, and random generator input, some of it run in 1 KiB.
func diffSeeds(f *testing.F) {
	for _, wb := range diffWordBytes {
		for _, src := range benchmarkLoops(f) {
			a, err := asm.Assemble(src, wb)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(a.Image.Code, true, uint16(a.Image.Entry), false, int64(1))
		}
		for _, img := range exampleImages(f, wb) {
			f.Add(img.Code, true, uint16(img.Entry), false, int64(2))
		}
		a, err := asm.Assemble(climbLoop, wb)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(a.Image.Code, true, uint16(a.Image.Entry), true, int64(3))
	}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 8; i++ {
		data := make([]byte, 48+16*i)
		rng.Read(data)
		f.Add(data, false, uint16(0), false, int64(i))
		if i%2 == 1 {
			f.Add(data, false, uint16(0), true, int64(i))
		}
	}
}

// diffImage turns fuzz input into a program for a machine of the given
// word size: with raw unset, data is fed to progGen and assembled at
// that size; with it set, data is a code image entered at entry, which
// is how the corpus carries real programs — and their images mutate
// into arbitrary byte streams, every one of which is a valid I1 program
// at either size.  A raw image reserves less in small memory, leaving
// most of it above the image for the program to read and write.
func diffImage(t *testing.T, data []byte, raw bool, entry uint16, links, small bool, wordBytes int) core.Image {
	if raw {
		if len(data) == 0 {
			t.Skip()
		}
		dataBytes, ws := 1024, 256
		if small {
			dataBytes, ws = 64, 16
		}
		return core.Image{Code: data, Entry: int(entry) % len(data),
			DataBytes: dataBytes, WsBelow: ws, WsAbove: ws}
	}
	src := genProgram(data, links)
	a, err := asm.Assemble(src, wordBytes)
	if err != nil {
		t.Fatalf("generated program does not assemble at %d bytes a word: %v\n%s", wordBytes, err, src)
	}
	return a.Image
}

// FuzzBlockCacheDifferential checks the cached machine against the
// interpreter with no link engine attached: the real programs' link
// traffic faults at once, identically on both machines.
func FuzzBlockCacheDifferential(f *testing.F) {
	diffSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, raw bool, entry uint16, small bool, seed int64) {
		for _, wb := range diffWordBytes {
			runDifferential(t, diffImage(t, data, raw, entry, false, small, wb), wb, small, seed)
		}
	})
}

// FuzzRunAheadDifferential is the same check with the cached machine
// running ahead of its horizon while a link engine the test controls
// writes into open buffers and wakes their processes: here the real
// programs' link traffic goes through, a byte at a time.
func FuzzRunAheadDifferential(f *testing.F) {
	diffSeeds(f)
	// Generator input that starts its link processes first — one to
	// three, low priority or high, with buffers of every kind — and then
	// computes in loops.
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 48; i++ {
		data := []byte{1, 2} // the two leading sites' locals
		for k := 0; k <= i%3; k++ {
			data = append(data, 14, byte(i%4), 2) // spawn, priority, rounds
			for buf := 0; buf < 2; buf++ {
				pick := byte(rng.Intn(8))
				if data = append(data, pick); pick%2 == 0 {
					data = append(data, byte(rng.Intn(12)))
				}
				data = append(data, byte(rng.Intn(8)))
			}
		}
		rest := make([]byte, 64+8*i)
		rng.Read(rest)
		for j := 0; j < len(rest); j += 9 {
			rest[j] = []byte{6, 13}[j%2] // a counted loop, a replicated one
		}
		data = append(data, rest...)
		f.Add(data, false, uint16(0), false, int64(i))
		if i%4 == 3 {
			f.Add(data, false, uint16(0), true, int64(i))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, raw bool, entry uint16, small bool, seed int64) {
		for _, wb := range diffWordBytes {
			runAheadDifferential(t, diffImage(t, data, raw, entry, true, small, wb), wb, small, seed)
		}
	})
}
