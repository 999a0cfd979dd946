package asm

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"

	"transputer/internal/core"
	"transputer/internal/sim"
)

// tasmSources is the seed corpus: every raw string literal in the
// files that carry tasm — this package's tests, internal/core's, and
// the determinism matrix's run-ahead scenarios.  A few are occam or
// formats with verbs in them; those seed the error path.
func tasmSources(tb testing.TB) []string {
	tb.Helper()
	var files []string
	for _, pattern := range []string{"asm_test.go", "../core/*_test.go", "../matrix/ahead.go"} {
		m, err := filepath.Glob(pattern)
		if err != nil || len(m) == 0 {
			tb.Fatalf("no file matches %s: %v", pattern, err)
		}
		files = append(files, m...)
	}
	var srcs []string
	for _, path := range files {
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
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
	}
	return srcs
}

// fuzzCycles is how long an assembled input runs: long enough for the
// seed programs to finish or settle into their loops.
const fuzzCycles = 20000

// ended is what a machine shows once its run has stopped.
type ended struct {
	Iptr, Wdesc, A, B, C uint64
	Fptr, Bptr           [2]uint64
	Halted, Error, Idle  bool
	Fault                string
	Stats                core.Stats
	Mem                  []byte
}

// runToEnd loads the image into a 64 KiB T424 and runs it for
// fuzzCycles; ok is false when the image does not load.
func runToEnd(img core.Image, cache bool) (e ended, ok bool) {
	cfg := core.T424().WithMemory(64 * 1024)
	m := core.MustNew(cfg)
	m.SetBlockCache(cache)
	if err := m.Load(img); err != nil {
		return ended{}, false
	}
	core.Run(m, sim.Time(fuzzCycles*cfg.CycleNs))
	e = ended{Iptr: m.Iptr, Wdesc: m.Wdesc, A: m.Areg, B: m.Breg, C: m.Creg, Fptr: m.Fptr, Bptr: m.Bptr,
		Halted: m.Halted(), Error: m.ErrorFlag(), Idle: m.Idle(), Stats: m.Stats(),
		Mem: m.ReadBytes(m.LinkOutAddr(0), cfg.MemBytes)}
	if err := m.Fault(); err != nil {
		e.Fault = err.Error()
	}
	return e, true
}

// FuzzAssemble runs what assembles (a cache-on-and-off differential
// like those DESIGN.md §10 describes).  Any input is either refused
// with an error — by the assembler or by the loader — or yields an
// image that runs for fuzzCycles with the block cache on and again with
// it off and ends in the same registers, flags, statistics and memory.
// A Go panic is the fuzzer's to report; an input that spins the host
// fails here, by the clock.
func FuzzAssemble(f *testing.F) {
	for _, src := range tasmSources(f) {
		f.Add(src)
	}
	// Directives that size something, which the sources above use only
	// sensibly (see maxSpace).
	f.Add("ws -5 -7\ndata -100\nldc 1\n")
	f.Add("data 999999999999\nspace 99999999999999\n")
	f.Fuzz(func(t *testing.T, src string) {
		type outcome struct {
			on, off     ended
			onOK, offOK bool
		}
		done := make(chan outcome, 1)
		go func() {
			var o outcome
			if a, err := Assemble(src, 4); err == nil {
				o.on, o.onOK = runToEnd(a.Image, true)
				o.off, o.offOK = runToEnd(a.Image, false)
			}
			done <- o
		}()
		var o outcome
		select {
		case o = <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("assembling and running %d simulated cycles twice took over ten seconds", fuzzCycles)
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
