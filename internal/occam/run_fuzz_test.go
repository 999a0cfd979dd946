package occam_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"

	"transputer/internal/apps/dbsearch"
	"transputer/internal/core"
	"transputer/internal/occam"
	"transputer/internal/sim"
)

// occamFuzzCycles caps one run: long enough for the seed programs to
// get deep into their loops and through a few hundred link transfers.
const occamFuzzCycles = 200000

// openLinks is a link engine with nothing at the far end of any wire
// but a source and a sink that never keep a transfer waiting long: an
// output completes a microsecond a byte after it begins, an input
// likewise, filled with the next bytes of a counter, and an alternative
// always finds input ready.  Compiled programs talk to their links, and
// with no engine attached the first transfer faults; with this one they
// run on, through descheduling, wakes and alternatives, the same way on
// both runs.
type openLinks struct {
	port *sim.Port
	m    *core.Machine
	next byte
}

func (l *openLinks) BeginOutput(link int, ptr uint64, count int, done func()) {
	l.port.After(sim.Time(count)*sim.Microsecond, done)
}

func (l *openLinks) BeginInput(link int, ptr uint64, count int, done func()) {
	l.port.After(sim.Time(count)*sim.Microsecond, func() {
		for i := 0; i < count; i++ {
			l.next++
			l.m.SetByteAt(ptr+uint64(i), l.next)
		}
		done()
	})
}

func (l *openLinks) EnableInput(link int, ready func()) bool { return true }
func (l *openLinks) DisableInput(link int) bool              { return true }

// ranOccam is what a machine shows once its run has stopped.
type ranOccam struct {
	Iptr, Wdesc, A, B, C uint64
	Fptr, Bptr           [2]uint64
	Halted, Error, Idle  bool
	Fault                string
	Stats                core.Stats
	Mem                  []byte
}

// runCompiled loads an image into a 64 KiB T424 and runs it standalone,
// its links on openLinks, for occamFuzzCycles; ok is false when the
// image does not load.
func runCompiled(img core.Image, cache bool) (r ranOccam, ok bool) {
	cfg := core.T424().WithMemory(64 * 1024)
	cfg.NoBlockCache = !cache
	m := core.MustNew(cfg)
	if err := m.Load(img); err != nil {
		return ranOccam{}, false
	}
	c := sim.NewCoordinator(1)
	p := c.NewShard().Port()
	core.NewRunner(p, m, &openLinks{port: p, m: m}).Start()
	c.RunUntil(sim.Time(occamFuzzCycles * cfg.CycleNs))
	r = ranOccam{Iptr: m.Iptr, Wdesc: m.Wdesc, A: m.Areg, B: m.Breg, C: m.Creg, Fptr: m.Fptr, Bptr: m.Bptr,
		Halted: m.Halted(), Error: m.ErrorFlag(), Idle: m.Idle(), Stats: m.Stats(),
		Mem: m.ReadBytes(m.LinkOutAddr(0), cfg.MemBytes)}
	if err := m.Fault(); err != nil {
		r.Fault = err.Error()
	}
	return r, true
}

// occamSeeds is the seed corpus: every shipped occam program, the
// workloads internal/bench builds (its raw string literals), and the
// database search's node programs at a corner, an edge and the middle
// of a 4x4 array.
func occamSeeds(tb testing.TB) []string {
	tb.Helper()
	var srcs []string
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "*.occ"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no occam examples found: %v", err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		srcs = append(srcs, string(b))
	}
	file, err := parser.ParseFile(token.NewFileSet(), filepath.Join("..", "bench", "bench.go"), nil, 0)
	if err != nil {
		tb.Fatal(err)
	}
	ast.Inspect(file, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING && lit.Value[0] == '`' {
			src, err := strconv.Unquote(lit.Value)
			if err != nil {
				tb.Fatal(err)
			}
			srcs = append(srcs, src)
		}
		return true
	})
	p := dbsearch.Params{Rows: 4, Cols: 4, RecordsPerNode: 60, KeySpace: 16, MemBytes: 64 * 1024}
	for _, rc := range [][2]int{{0, 0}, {0, 1}, {1, 0}, {2, 2}, {3, 3}} {
		srcs = append(srcs, dbsearch.NodeSource(p, rc[0], rc[1]))
	}
	return srcs
}

// FuzzOccamDifferential runs what compiles (ROADMAP item 5: "fuzzed
// occam that compiles must run under a cycle cap with cache on and off
// agreeing").  Compiled occam is the traffic the block cache serves, so
// any source the compiler accepts runs standalone for occamFuzzCycles
// with the block cache on and again with it off, and the two must end
// in the same registers, queues, flags, fault, statistics and memory.
// A source the compiler refuses is no test; a Go panic is the fuzzer's
// to report, and an input that spins the host fails here, by the clock.
func FuzzOccamDifferential(f *testing.F) {
	for _, src := range occamSeeds(f) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		type outcome struct {
			on, off     ranOccam
			onOK, offOK bool
		}
		done := make(chan outcome, 1)
		go func() {
			var o outcome
			if c, err := occam.Compile(src, occam.Options{}); err == nil {
				o.on, o.onOK = runCompiled(c.Image, true)
				o.off, o.offOK = runCompiled(c.Image, false)
			}
			done <- o
		}()
		var o outcome
		select {
		case o = <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("compiling and running %d simulated cycles twice took over ten seconds", occamFuzzCycles)
		}
		if o.onOK != o.offOK {
			t.Fatalf("the image loads with the block cache on: %v, off: %v", o.onOK, o.offOK)
		}
		if !bytes.Equal(o.on.Mem, o.off.Mem) {
			for i := range o.on.Mem {
				if o.on.Mem[i] != o.off.Mem[i] {
					t.Fatalf("memory differs at offset %#x: cache on %#02x, off %#02x", i, o.on.Mem[i], o.off.Mem[i])
				}
			}
		}
		o.on.Mem, o.off.Mem = nil, nil
		if !reflect.DeepEqual(o.on, o.off) {
			t.Fatalf("the run ends differently\ncache on:  %+v\ncache off: %+v", o.on, o.off)
		}
	})
}
