package network_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"transputer/internal/asm"
	"transputer/internal/core"
	"transputer/internal/link"
	"transputer/internal/network"
	"transputer/internal/occam"
	"transputer/internal/sim"
)

// Running ahead of the window (core/ahead.go) must be invisible.  Each
// scenario here is built to make an instant show in memory — how far a
// loop had counted when a byte landed, when a process was preempted,
// when a timeslice ended — and is run at workers {1, 4} × block cache
// {on, off} × placement {derived from the worker count, one shard a
// node, all on one shard}.  Every run must leave the machines exactly
// as the stepwise reference does (one worker, no cache, one shard a
// node: nothing batches, nothing runs ahead): registers, queues, whole
// memories, statistics, wire counters, the report.

// aheadScenario is a ring of nodes (link 1 of each to link 0 of the
// next) run to a limit, and optionally continued to a second.
type aheadScenario struct {
	name  string
	nodes []string // tasm, or occam when it starts with "--occam"
	cfg   func(*core.Config)
	limit sim.Time
	then  sim.Time
	// check looks at the diagnostics of a cached run on private shards:
	// the scenario has to have exercised what it is named for.
	check func(t *testing.T, a core.AheadStats)
}

type aheadConfig struct {
	workers int
	cache   bool
	place   string // "derived", "private" (pinned one shard a node) or "fused"
}

func (c aheadConfig) String() string {
	return fmt.Sprintf("workers=%d cache=%v placement=%s", c.workers, c.cache, c.place)
}

// nodeState is everything a node shows once the run has stopped.
type nodeState struct {
	Iptr, Wdesc, A, B, C uint64
	Fptr, Bptr           [2]uint64
	Halted, Idle, Error  bool
	Waiting              int
	Stats                core.Stats
	Wires                [core.NumLinks]link.WireStats
	Mem                  []byte
}

type aheadOutcome struct {
	Report network.Report
	Nodes  []nodeState
}

func (sc aheadScenario) images(t *testing.T) []core.Image {
	t.Helper()
	imgs := make([]core.Image, len(sc.nodes))
	for i, src := range sc.nodes {
		if len(src) > 7 && src[:7] == "--occam" {
			c, err := occam.Compile(src, occam.Options{})
			if err != nil {
				t.Fatalf("node %d: %v", i, err)
			}
			imgs[i] = c.Image
			continue
		}
		a, err := asm.Assemble(src, 4)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		imgs[i] = a.Image
	}
	return imgs
}

func (sc aheadScenario) build(t *testing.T, imgs []core.Image, c aheadConfig) *network.System {
	t.Helper()
	s := network.NewSystem()
	names := make([]string, len(imgs))
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i)
	}
	if c.place == "fused" {
		if err := s.SetPlacement([][]string{names}); err != nil {
			t.Fatal(err)
		}
	}
	nc := core.T424().WithMemory(16 * 1024)
	if sc.cfg != nil {
		sc.cfg(&nc)
	}
	for i, img := range imgs {
		if err := s.MustAddTransputer(names[i], nc).Load(img); err != nil {
			t.Fatal(err)
		}
	}
	if ns := s.Nodes(); len(ns) > 1 {
		for i, n := range ns {
			s.MustConnect(n, 1, ns[(i+1)%len(ns)], 0)
		}
	}
	if c.place == "private" {
		pinPrivate(t, s)
	}
	s.SetWorkers(c.workers)
	s.SetBlockCache(c.cache)
	return s
}

func snapshot(s *network.System, rep network.Report) aheadOutcome {
	out := aheadOutcome{Report: rep}
	for _, n := range s.Nodes() {
		m := n.M
		st := nodeState{Iptr: m.Iptr, Wdesc: m.Wdesc, A: m.Areg, B: m.Breg, C: m.Creg,
			Fptr: m.Fptr, Bptr: m.Bptr, Halted: m.Halted(), Idle: m.Idle(), Error: m.ErrorFlag(),
			Waiting: m.WaitingProcesses(), Stats: m.Stats(),
			Mem: m.ReadBytes(m.LinkOutAddr(0), m.Config().MemBytes)}
		for l := range st.Wires {
			st.Wires[l] = n.Engine.WireStats(l)
		}
		out.Nodes = append(out.Nodes, st)
	}
	return out
}

func diffOutcome(t *testing.T, what string, got, want aheadOutcome) {
	t.Helper()
	if !reflect.DeepEqual(got.Report, want.Report) {
		t.Errorf("%s: report %+v, want %+v", what, got.Report, want.Report)
	}
	for i := range want.Nodes {
		g, w := got.Nodes[i], want.Nodes[i]
		if !bytes.Equal(g.Mem, w.Mem) {
			for off := range w.Mem {
				if g.Mem[off] != w.Mem[off] {
					t.Errorf("%s: node %d memory differs at offset %#x: %#02x, want %#02x",
						what, i, off, g.Mem[off], w.Mem[off])
					break
				}
			}
		}
		g.Mem, w.Mem = nil, nil
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: node %d differs\ngot:  %+v\nwant: %+v", what, i, g, w)
		}
	}
}

func (sc aheadScenario) run(t *testing.T) {
	imgs := sc.images(t)
	exec := func(c aheadConfig) (first, second aheadOutcome, ahead core.AheadStats) {
		s := sc.build(t, imgs, c)
		first = snapshot(s, s.Run(sc.limit))
		if sc.then > 0 {
			rep := s.Continue(sc.then)
			// Continue reports less than Run: fill in the rest the same way.
			second = snapshot(s, network.Report{Time: rep.Time, Settled: rep.Settled})
		}
		return first, second, s.AheadStats()
	}
	ref1, ref2, none := exec(aheadConfig{workers: 1, place: "private"})
	if none.Batches != 0 || none.Exits != [core.NumAheadExits]uint64{} {
		t.Errorf("the stepwise reference ran ahead: %+v", none)
	}
	for _, workers := range []int{1, 4} {
		for _, cache := range []bool{true, false} {
			for _, place := range []string{"derived", "private", "fused"} {
				if place == "derived" && !cache {
					continue // the same two partitions again, and nothing runs ahead uncached
				}
				c := aheadConfig{workers, cache, place}
				got1, got2, ahead := exec(c)
				diffOutcome(t, c.String(), got1, ref1)
				if sc.then > 0 {
					diffOutcome(t, c.String()+" continued", got2, ref2)
				}
				if cache && place == "private" && workers == 1 && sc.check != nil {
					sc.check(t, ahead)
				}
			}
		}
	}
}

// delayThenSend counts down from n, then outputs word on link 1.
func delayThenSend(n int, word uint32) string {
	return fmt.Sprintf(`
	ldc %d
	stl 1
loop:	ldl 1
	adc -1
	stl 1
	ldl 1
	cj done
	j loop
done:	ldc #%X
	mint
	ldnlp 1
	outword
	stopp
`, n, word)
}

// computeRingNode is the benchmark's compute node: trial division with
// the input from the previous node open from the start.
const computeRingNode = `--occam
DEF limit = 700:
CHAN in, out:
PLACE in AT LINK0IN:
PLACE out AT LINK1OUT:
PROC work(VAR count, VALUE limit) =
  VAR n, d, prime:
  SEQ
    count := 0
    n := 2
    WHILE n <= limit
      SEQ
        prime := TRUE
        d := 2
        WHILE ((d * d) <= n) AND prime
          SEQ
            IF
              (n \ d) = 0
                prime := FALSE
              TRUE
                d := d + 1
        IF
          prime
            count := count + 1
          TRUE
            SKIP
        n := n + 1
:
PROC send(CHAN out, VALUE limit) =
  VAR count:
  SEQ
    work(count, limit)
    out ! count
:
PROC recv(CHAN in) =
  VAR x:
  in ? x
:
PAR
  send(out, limit)
  recv(in)
`

// pollOwnBuffer inputs a word into local 5 and, from a second process
// 40 words down, counts in a pure loop until that word is no longer
// zero: local 41 (its local 1) is how many times it looked before the
// first byte landed.
const pollOwnBuffer = `
	ws 96 16
	ldc 0
	stl 5
	ldc poller-after
	ldlp -40
	startp
after:	ldlp 5
	mint
	ldnlp 4
	ldc 4
	in
	stopp
poller:	ldc 0
	stl 1
poll:	ldl 1
	adc 1
	stl 1
	ldl 45
	cj poll
	stopp
`

// highReceiver starts a high-priority process that inputs a word and,
// the moment it is back, copies the low-priority loop's counter and the
// clock: locals -38 and -37 of the main process hold the preemption
// instant both ways.
const highReceiver = `
	ws 96 16
	ldc 0
	stl 1
	ldpi high
	ldlp -40
	stnl -1
	ldlp -40
	runp
loop:	ldl 1
	adc 1
	stl 1
	ldl 1
	eqc 20000
	cj loop
	stopp
high:	ldlp 1
	mint
	ldnlp 4
	ldc 4
	in
	ldl 41
	stl 2
	ldtimer
	stl 3
	stopp
`

// slicedLoops runs two low-priority processes through the same
// replicated loop with a receiver waiting on link 0.  Each notes the
// other's count when it finishes, and the receiver both counts when it
// is woken — which a delivery decides, and its place in the queue with
// it.
const slicedLoops = `
	ws 160 16
	ldc 0
	stl 1
	ldc 0
	stl -39
	ldc second-a1
	ldlp -40
	startp
a1:	ldc receiver-a2
	ldlp -80
	startp
a2:	ldc 0
	stl 10
	ldc 4000
	stl 11
h1:	ldl 1
	adc 1
	stl 1
	ldlp 10
	ldc e1-h1
	lend
e1:	ldl -39
	stl 2
	stopp
second:	ldc 0
	stl 10
	ldc 4000
	stl 11
h2:	ldl 1
	adc 1
	stl 1
	ldlp 10
	ldc e2-h2
	lend
e2:	ldl 41
	stl 2
	stopp
receiver:
	ldlp 1
	mint
	ldnlp 4
	ldc 4
	in
	ldl 81
	stl 2
	ldl 41
	stl 3
	stopp
`

// timerOverLoop has a high-priority process wait 3 ms on its timer and
// then copy the low-priority loop's counter, with a receiver waiting on
// link 0 as well: the expiry is an event of the node's own, and the
// preemption must happen at it.
const timerOverLoop = `
	ws 160 16
	ldc 0
	stl 1
	ldpi high
	ldlp -40
	stnl -1
	ldlp -40
	runp
	ldc receiver-after
	ldlp -80
	startp
after:
loop:	ldl 1
	adc 1
	stl 1
	ldl 1
	eqc 30000
	cj next
	stopp
next:	j loop
high:	ldtimer
	adc 3000
	tin
	ldl 41
	stl 2
	stopp
receiver:
	ldlp 1
	mint
	ldnlp 4
	ldc 4
	in
	ldl 81
	stl 2
	stopp
`

// overflowLoop inputs a word on link 0 while a second process counts up
// from just under the top of the range, arming error halting first
// (armed) or only in the iteration that overflows.
func overflowLoop(armed bool) string {
	first, late := "", "\tsethalterr\n"
	if armed {
		first, late = late, first
	}
	return `
	ws 96 16
` + first + `	ldc counter-after
	ldlp -40
	startp
after:	ldlp 1
	mint
	ldnlp 4
	ldc 4
	in
	stopp
counter:
	ldc #7FFFF000
	stl 1
loop:	ldl 1
	adc 1
	stl 1
	ldl 1
	eqc #7FFFFFFF
	cj loop
` + late + `	ldl 1
	adc 1
	stl 1
	stopp
`
}

var aheadScenarios = []aheadScenario{
	{
		name:  "compute ring with every receiver's input open",
		nodes: []string{computeRingNode, computeRingNode, computeRingNode, computeRingNode},
		limit: sim.Second,
		check: func(t *testing.T, a core.AheadStats) {
			if a.Cycles < 100000 || a.Exits[core.AheadSliceDue] == 0 {
				t.Errorf("compute phase did not run ahead: %+v", a)
			}
		},
	},
	{
		name:  "run limit in the middle of the compute phase",
		nodes: []string{computeRingNode, computeRingNode, computeRingNode},
		limit: 1234567, then: sim.Second,
		check: func(t *testing.T, a core.AheadStats) {
			if a.Exits[core.AheadLimit] == 0 {
				t.Errorf("the run limit never bounded a run-ahead: %+v", a)
			}
		},
	},
	{
		name:  "process polling its own open input buffer",
		nodes: []string{delayThenSend(3000, 0x01020300), pollOwnBuffer},
		limit: sim.Second,
		check: func(t *testing.T, a core.AheadStats) {
			if a.Exits[core.AheadHazard] == 0 {
				t.Errorf("the poll never hit the hazard: %+v", a)
			}
		},
	},
	{
		name:  "high-priority receiver over a low-priority loop",
		nodes: []string{delayThenSend(5000, 0xCAFE), highReceiver},
		limit: sim.Second,
		check: func(t *testing.T, a core.AheadStats) {
			if a.Exits[core.AheadWait] == 0 {
				t.Errorf("the high-priority wait never refused a run-ahead: %+v", a)
			}
		},
	},
	{
		name:  "replicated loops timesliced while a delivery joins the queue",
		nodes: []string{delayThenSend(2500, 0xBEEF), slicedLoops},
		cfg:   func(c *core.Config) { c.TimesliceCycles = 700 },
		limit: sim.Second,
		check: func(t *testing.T, a core.AheadStats) {
			if a.Exits[core.AheadSliceDue] < 10 || a.Batches == 0 {
				t.Errorf("no loop end met a due timeslice past the horizon: %+v", a)
			}
		},
	},
	{
		name:  "timer expiring over a low-priority loop",
		nodes: []string{delayThenSend(9000, 0xD1CE), timerOverLoop},
		cfg:   func(c *core.Config) { c.TimesliceCycles = 700 },
		limit: sim.Second,
		check: func(t *testing.T, a core.AheadStats) {
			if a.Exits[core.AheadOwnEvent] == 0 || a.Batches == 0 {
				t.Errorf("no event of the node's own bounded a run-ahead: %+v", a)
			}
		},
	},
	{
		name:  "overflow with error halting configured",
		nodes: []string{delayThenSend(1500, 0xF00D), overflowLoop(false)},
		cfg:   func(c *core.Config) { c.HaltOnError = true },
		limit: sim.Second,
		check: func(t *testing.T, a core.AheadStats) {
			if a.Exits[core.AheadImpure] == 0 {
				t.Errorf("error halting never refused a run-ahead: %+v", a)
			}
		},
	},
	{
		name:  "overflow with error halting armed by the program",
		nodes: []string{delayThenSend(1500, 0xF00D), overflowLoop(true)},
		limit: sim.Second,
	},
	{
		name:  "overflow in the batch that arms error halting",
		nodes: []string{delayThenSend(6000, 0xF00D), overflowLoop(false)},
		limit: sim.Second,
		check: func(t *testing.T, a core.AheadStats) {
			if a.Batches == 0 {
				t.Errorf("nothing ran ahead: %+v", a)
			}
		},
	},
}

func TestRunAheadInvisible(t *testing.T) {
	for _, sc := range aheadScenarios {
		t.Run(sc.name, sc.run)
	}
}

// TestRunAheadLengthensWindows: with the compute phase running ahead,
// a compute ring synchronises when messages move, not every basic
// block.
func TestRunAheadLengthensWindows(t *testing.T) {
	sc := aheadScenarios[0]
	s := sc.build(t, sc.images(t), aheadConfig{workers: 1, cache: true, place: "private"})
	if rep := s.Run(sc.limit); !rep.Settled || len(rep.Blocked)+len(rep.Halted) > 0 {
		t.Fatalf("bad finish: %+v", rep)
	}
	instr, barriers := s.TotalStats().Instructions, s.EngineStats().Barriers
	if barriers >= instr/500 {
		t.Errorf("%d barriers for %d instructions, want fewer than one per 500", barriers, instr)
	}
}
