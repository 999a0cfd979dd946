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
	"transputer/internal/network"
	"transputer/internal/occam"
	"transputer/internal/sim"
	"transputer/internal/tool"
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

func (l *openLinks) BeginOutput(c core.End, ptr uint64, count int, done func()) {
	l.port.After(sim.Time(count)*sim.Microsecond, done)
}

func (l *openLinks) BeginInput(c core.End, ptr uint64, count int, done func()) {
	l.port.After(sim.Time(count)*sim.Microsecond, func() {
		for i := 0; i < count; i++ {
			l.next++
			l.m.SetByteAt(ptr+uint64(i), l.next)
		}
		done()
	})
}

func (l *openLinks) EnableInput(c core.End, ready func()) bool { return true }
func (l *openLinks) DisableInput(c core.End) bool              { return true }
func (l *openLinks) HandoffFlow(c core.End, flow uint64)       {}
func (l *openLinks) TransferFlow(c core.End) uint64            { return 0 }

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
func runCompiled(img core.Image, cache bool) (ranOccam, bool) {
	cfg := core.T424().WithMemory(64 * 1024)
	m := core.MustNew(cfg)
	m.SetBlockCache(cache)
	if err := m.Load(img); err != nil {
		return ranOccam{}, false
	}
	c := sim.NewCoordinator(1)
	p := c.NewShard().Port()
	core.NewRunner(p, m, &openLinks{port: p, m: m}).Start()
	c.RunUntil(sim.Time(occamFuzzCycles * core.CycleNs))
	return ranOf(m), true
}

// ranOf snapshots a machine whose run has stopped.
func ranOf(m *core.Machine) ranOccam {
	r := ranOccam{Iptr: m.Iptr, Wdesc: m.Wdesc, A: m.Areg, B: m.Breg, C: m.Creg, Fptr: m.Fptr, Bptr: m.Bptr,
		Halted: m.Halted(), Error: m.ErrorFlag(), Idle: m.Idle(), Stats: m.Stats(),
		Mem: m.ReadBytes(m.LinkOutAddr(0), m.Config().MemBytes)}
	if err := m.Fault(); err != nil {
		r.Fault = err.Error()
	}
	return r
}

// hostedOccam is what a run on trun's topology shows: the machine,
// what the host printed and took, and the watchdog's verdict.
type hostedOccam struct {
	ranOccam
	Out      string
	Values   []int64
	Done     bool
	Report   network.Report
	Watchdog string
}

// runHosted runs an image on trun's topology (tool.OneNode: one node,
// "main", a 64 KiB T424 with a host on link 0), its host holding a few
// input words, built and run by the tools' own tool.BuildNetwork and
// tool.RunToQuiescence, for occamFuzzCycles; ok is false when the image
// does not load.
func runHosted(img core.Image, cache bool) (r hostedOccam, ok bool) {
	topo := tool.OneNode("t424", 64*1024, "")
	topo.Inputs = map[string][]int64{"main": {3, -1, 1 << 20}}
	topo.RunLimit = sim.Time(occamFuzzCycles * core.CycleNs)
	var out bytes.Buffer
	net, err := tool.BuildNetwork(topo, "", &out)
	if err != nil {
		panic(err)
	}
	net.System.SetBlockCache(cache)
	n, _ := net.System.Node("main")
	if err := n.Load(img); err != nil {
		return hostedOccam{}, false
	}
	r.Report = tool.RunToQuiescence(net)
	if wd := net.System.Watchdog(); r.Report.Settled && wd != nil {
		r.Watchdog = wd.String()
	}
	host := net.Hosts[0]
	r.ranOccam = ranOf(n.M)
	r.Out, r.Values, r.Done = out.String(), host.Values, host.Done
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

// replicatedSeeds are configured programs for FuzzOccamDifferential: a
// replicated PLACED PAR whose configuration IF gives its processors
// different links, and some that the compiler refuses (a count that is
// not constant, two values of i on one processor, a nested PLACED PAR,
// a guard that does not fold, no branch taken).
var replicatedSeeds = []string{
	`DEF n = 3:
PROC pass(CHAN in, CHAN out) =
  VAR v:
  SEQ
    in ? v
    out ! v + 1
:
PLACED PAR i = [0 FOR n]
  PROCESSOR i
    DEF seed = (i * 7) + 1:
    IF
      i = 0
        CHAN out:
        PLACE out AT LINK1OUT:
        out ! seed
      i < (n - 1)
        CHAN in, out:
        PLACE in AT LINK0IN:
        PLACE out AT LINK1OUT:
        pass(in, out)
      TRUE
        CHAN in, screen:
        PLACE in AT LINK0IN:
        PLACE screen AT LINK1OUT:
        VAR v:
        SEQ
          in ? v
          screen ! 2; v + seed
          screen ! 4
`,
	"CHAN out, in:\nPLACED PAR i = [2 FOR 2]\n  PROCESSOR 4 - i\n    CHAN out:\n    PLACE out AT LINK0OUT:\n    VAR x:\n    SEQ\n      x := i\n      IF\n        x = 2\n          out ! 2; x\n        TRUE\n          out ! 2; 0\n      out ! 4\n",
	"VAR n:\nPLACED PAR i = [0 FOR n]\n  PROCESSOR i\n    SKIP\n",
	"PLACED PAR i = [0 FOR 4]\n  PROCESSOR i \\ 2\n    SKIP\n",
	"PLACED PAR i = [0 FOR 2]\n  PROCESSOR i\n    PLACED PAR\n      PROCESSOR 0\n        SKIP\n",
	"PLACED PAR i = [0 FOR 2]\n  PROCESSOR i\n    VAR x:\n    IF\n      x = i\n        SKIP\n",
	"PLACED PAR i = [0 FOR 2]\n  PROCESSOR i\n    IF\n      i = 0\n        SKIP\n",
}

// fuzzProcessors is how many of a configured program's processors
// FuzzOccamDifferential runs.
const fuzzProcessors = 3

// fuzzImages is what FuzzOccamDifferential runs of a source: its image,
// or, for a configured program, its first fuzzProcessors processors'.
func fuzzImages(src string) []core.Image {
	if c, err := occam.Compile(src, occam.Options{}); err == nil {
		return []core.Image{c.Image}
	}
	procs, err := occam.CompileConfigured(src, occam.Options{})
	if err != nil {
		return nil
	}
	var imgs []core.Image
	for _, p := range procs[:min(len(procs), fuzzProcessors)] {
		imgs = append(imgs, p.Compiled.Image)
	}
	return imgs
}

// FuzzOccamDifferential runs what compiles (DESIGN.md §13 describes it
// beside the block cache's own differential fuzzer).  Compiled occam is
// the traffic the block cache serves, so any source the compiler
// accepts — alone, or configured, processor by processor — runs for
// occamFuzzCycles with the block cache on and again with it off, on two
// legs: standalone, its links on openLinks, and on trun's one-node
// topology, with a real host on link 0.  The two runs of a leg must end
// in the same registers, queues, flags, fault, statistics and memory,
// and the hosted ones in the same host output, report and watchdog
// verdict.  A source the compiler refuses is no test; a Go panic is the
// fuzzer's to report, and an input that spins the host fails here, by
// the clock.
func FuzzOccamDifferential(f *testing.F) {
	for _, src := range occamSeeds(f) {
		f.Add(src)
	}
	for _, src := range replicatedSeeds {
		f.Add(src)
	}
	// TestConstantOperands's cases, an operator a source.
	for _, wb := range []int{4, 2} {
		cases := operandCases(wb)
		for len(cases) > 0 {
			n := 1
			for n < len(cases) && cases[n].op == cases[0].op {
				n++
			}
			f.Add(operandSource(cases[:n]))
			cases = cases[n:]
		}
	}
	// Asks the host for a word twice and reads neither answer.
	f.Add("CHAN out, in:\nPLACE out AT LINK0OUT:\nPLACE in AT LINK0IN:\nSEQ\n  out ! 5\n  out ! 5\n")
	f.Fuzz(func(t *testing.T, src string) {
		type outcome struct {
			on, off             ranOccam
			hostOn, hostOff     hostedOccam
			onOK, offOK, hostOK bool
		}
		// Ten seconds for each image run, the compile counted in them.
		start, limit := time.Now(), 10*time.Second
		counted, done := make(chan int, 1), make(chan []outcome, 1)
		go func() {
			imgs := fuzzImages(src)
			counted <- len(imgs)
			var outs []outcome
			for _, img := range imgs {
				var o outcome
				o.on, o.onOK = runCompiled(img, true)
				o.off, o.offOK = runCompiled(img, false)
				if o.onOK {
					o.hostOn, o.hostOK = runHosted(img, true)
					o.hostOff, _ = runHosted(img, false)
				}
				outs = append(outs, o)
			}
			done <- outs
		}()
		select {
		case n := <-counted:
			limit *= time.Duration(max(1, n))
		case <-time.After(limit):
			t.Fatalf("compiling took over %v", limit)
		}
		var outs []outcome
		select {
		case outs = <-done:
		case <-time.After(time.Until(start.Add(limit))):
			t.Fatalf("compiling and running %d simulated cycles four times on each image took over %v", occamFuzzCycles, limit)
		}
		for _, o := range outs {
			if o.onOK != o.offOK {
				t.Fatalf("the image loads with the block cache on: %v, off: %v", o.onOK, o.offOK)
			}
			sameRun(t, "standalone", o.on, o.off)
			if o.hostOK {
				sameRun(t, "with a host", o.hostOn.ranOccam, o.hostOff.ranOccam)
				o.hostOn.ranOccam, o.hostOff.ranOccam = ranOccam{}, ranOccam{}
				if !reflect.DeepEqual(o.hostOn, o.hostOff) {
					t.Fatalf("the run with a host shows differently\ncache on:  %+v\ncache off: %+v", o.hostOn, o.hostOff)
				}
			}
		}
	})
}

// sameRun fails the test unless two runs of one leg ended alike.
func sameRun(t *testing.T, leg string, on, off ranOccam) {
	t.Helper()
	if !bytes.Equal(on.Mem, off.Mem) {
		for i := range on.Mem {
			if on.Mem[i] != off.Mem[i] {
				t.Fatalf("%s: memory differs at offset %#x: cache on %#02x, off %#02x", leg, i, on.Mem[i], off.Mem[i])
			}
		}
	}
	on.Mem, off.Mem = nil, nil
	if !reflect.DeepEqual(on, off) {
		t.Fatalf("%s: the run ends differently\ncache on:  %+v\ncache off: %+v", leg, on, off)
	}
}
