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
// code, faulting — the two must be indistinguishable.

// diffConfig is small enough to compare whole memories per batch and
// slices time finely enough that a timeslice falls due every few
// batches.
func diffConfig() core.Config {
	cfg := core.T424().WithMemory(16 * 1024)
	cfg.TimesliceCycles = 97
	return cfg
}

// runDifferential drives the image on both machines until it stops or
// for 1500 batches (the seed programs finish inside a few hundred), with
// bounds drawn from seed.
func runDifferential(t *testing.T, img core.Image, seed int64) {
	t.Helper()
	cfg := diffConfig()
	on := core.MustNew(cfg)
	cfg.NoBlockCache = true
	off := core.MustNew(cfg)
	if err := on.Load(img); err != nil {
		t.Skipf("image does not load: %v", err)
	}
	if err := off.Load(img); err != nil {
		t.Fatalf("image loads with the cache on but not off: %v", err)
	}
	rng := rand.New(rand.NewSource(seed))
	cyc := int64(cfg.CycleNs)
	for batch := 0; batch < 1500; batch++ {
		maxNs := int64(1+rng.Intn(48)) * cyc
		if rng.Intn(8) == 0 {
			maxNs *= 40
		}
		if total, last := off.StepRun(maxNs); total != 0 || last != 0 {
			t.Fatalf("batch %d: StepRun ran %d cycles with the cache off", batch, total)
		}
		ran := 0
		if rng.Intn(5) != 0 {
			total, last := on.StepRun(maxNs)
			if total > 0 && int64(total-last)*cyc >= maxNs {
				t.Fatalf("batch %d: StepRun(%d ns) started its last record at %d ns",
					batch, maxNs, int64(total-last)*cyc)
			}
			ran = total
		}
		if ran == 0 {
			ran = on.Step()
		}
		if ran == 0 {
			off.Step() // a step that cost nothing: a fetch fault, or nothing to run
		}
		for off.Cycles() < on.Cycles() && off.Step() != 0 {
		}
		compareMachines(t, batch, on, off)
		if ran == 0 || on.Halted() || on.Idle() {
			break
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
// prefix chains of every length, pure operations, counted cj/j loops,
// forward branches, calls, and stores into code — a byte or a word of
// one of the program's patch sites, which may lie later in the block
// executing the store, in a block already decoded and chained (the
// store sits in a loop), or at a block's first byte (sites follow
// labels and branches).  Every patch writes load-constant bytes, so the
// program stays well formed; exhausted data reads as zero, so every
// input terminates.
type progGen struct {
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

func (g *progGen) stmt() {
	kind := g.next() % 13
	if g.depth >= 3 && kind >= 6 && kind <= 8 {
		kind -= 6
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
		g.emit("\tajw -16") // keep the body's locals clear of the caller's frame
		g.body()
		g.emit("\tajw 16")
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
	}
}

func genProgram(data []byte) string {
	g := &progGen{data: data}
	g.emit("\tws 96 64")
	g.site(0)
	g.site(1)
	for g.pos < len(g.data) {
		g.stmt()
	}
	g.emit("\tstopp")
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

// exampleImages compiles every shipped occam example.
func exampleImages(tb testing.TB) []core.Image {
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
		c, err := occam.Compile(string(src), occam.Options{})
		if err != nil {
			tb.Fatalf("%s: %v", p, err)
		}
		imgs = append(imgs, c.Image)
	}
	return imgs
}

// FuzzBlockCacheDifferential: with raw unset, data is fed to progGen;
// with it set, data is a code image entered at entry, which is how the
// corpus carries real programs (the benchmark's loops and the compiled
// examples — their link traffic faults at once with no link engine
// attached, identically on both machines, but their images also mutate
// into arbitrary byte streams, every one of which is a valid I1
// program).
func FuzzBlockCacheDifferential(f *testing.F) {
	for _, src := range benchmarkLoops(f) {
		a, err := asm.Assemble(src, 4)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(a.Image.Code, true, uint16(a.Image.Entry), int64(1))
	}
	for _, img := range exampleImages(f) {
		f.Add(img.Code, true, uint16(img.Entry), int64(2))
	}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 8; i++ {
		data := make([]byte, 48+16*i)
		rng.Read(data)
		f.Add(data, false, uint16(0), int64(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, raw bool, entry uint16, seed int64) {
		var img core.Image
		if raw {
			if len(data) == 0 {
				t.Skip()
			}
			img = core.Image{Code: data, Entry: int(entry) % len(data),
				DataBytes: 1024, WsBelow: 256, WsAbove: 256}
		} else {
			a, err := asm.Assemble(genProgram(data), 4)
			if err != nil {
				t.Fatalf("generated program does not assemble: %v\n%s", err, genProgram(data))
			}
			img = a.Image
		}
		runDifferential(t, img, seed)
	})
}
