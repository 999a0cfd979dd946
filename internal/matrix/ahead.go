package matrix

import (
	"fmt"
	"sync"

	"transputer/internal/asm"
	"transputer/internal/core"
	"transputer/internal/network"
	"transputer/internal/occam"
	"transputer/internal/sim"
)

// The run-ahead scenarios.  Running ahead of the window (core/ahead.go)
// must be invisible, and each program here is built to make an instant
// show in memory — how far a loop had counted when a byte landed, when
// a process was preempted, when a timeslice ended — so a batch that
// runs past something it should have stopped for leaves the machines
// different from the stepwise reference: registers, queues, whole
// memories.  Only a detached, cached leg can run ahead; each scenario's
// Ahead hook checks that it did, and left the batch by the exit the
// scenario is named for.

// aheadRing is a ring of nodes (link 1 of each to link 0 of the next),
// each running one of the sources — tasm, or occam when it starts with
// "--occam" — to a limit, and optionally continued to a second.
func aheadRing(name string, sources []string, cfg func(*core.Config), limit, then sim.Time, check func(a core.AheadStats) bool) Scenario {
	images := nodeImages(sources, 4)
	sc := Scenario{Name: name, Build: func() (*Running, error) {
		imgs, err := images()
		if err != nil {
			return nil, err
		}
		s := network.NewSystem()
		nc := core.T424().WithMemory(16 * 1024)
		if cfg != nil {
			cfg(&nc)
		}
		for i, img := range imgs {
			if err := s.MustAddTransputer(fmt.Sprintf("n%d", i), nc).Load(img); err != nil {
				return nil, err
			}
		}
		if ns := s.Nodes(); len(ns) > 1 {
			ring(s, ns)
		}
		r := &Running{Net: s, Run: func() (network.Report, string) { return s.Run(limit), "" }}
		if then > 0 {
			r.Then = func() (network.Report, string) { return s.Continue(then), "" }
		}
		return r, nil
	}}
	if check != nil {
		sc.Ahead = func(a core.AheadStats) error {
			if !check(a) {
				return fmt.Errorf("the run never left a batch the way %q is there to show: %+v", name, a)
			}
			return nil
		}
	}
	return sc
}

// nodeImages builds each node's program for the given word size, once
// however many legs run it: tasm, or occam when the source starts with
// "--occam".
func nodeImages(sources []string, wordBytes int) func() ([]core.Image, error) {
	return sync.OnceValues(func() ([]core.Image, error) {
		imgs := make([]core.Image, len(sources))
		for i, src := range sources {
			if len(src) > 7 && src[:7] == "--occam" {
				c, err := occam.Compile(src, occam.Options{WordBytes: wordBytes})
				if err != nil {
					return nil, fmt.Errorf("node %d: %v", i, err)
				}
				imgs[i] = c.Image
				continue
			}
			a, err := asm.Assemble(src, wordBytes)
			if err != nil {
				return nil, fmt.Errorf("node %d: %v", i, err)
			}
			imgs[i] = a.Image
		}
		return imgs, nil
	})
}

var aheadScenarios = []Scenario{
	aheadRing("compute ring with every receiver's input open",
		[]string{computeRingNode, computeRingNode, computeRingNode, computeRingNode}, nil, sim.Second, 0,
		func(a core.AheadStats) bool { return a.Cycles >= 100000 && a.Exits[core.AheadSliceDue] > 0 }),
	aheadRing("run limit in the middle of the compute phase",
		[]string{computeRingNode, computeRingNode, computeRingNode}, nil, 1234567, sim.Second,
		func(a core.AheadStats) bool { return a.Exits[core.AheadLimit] > 0 }),
	aheadRing("process polling its own open input buffer",
		[]string{delayThenSend(3000, 0x01020300), pollOwnBuffer}, nil, sim.Second, 0,
		func(a core.AheadStats) bool { return a.Exits[core.AheadHazard] > 0 }),
	aheadRing("high-priority receiver over a low-priority loop",
		[]string{delayThenSend(5000, 0xCAFE), highReceiver}, nil, sim.Second, 0,
		func(a core.AheadStats) bool { return a.Exits[core.AheadWait] > 0 }),
	aheadRing("replicated loops timesliced while a delivery joins the queue",
		[]string{delayThenSend(2500, 0xBEEF), slicedLoops},
		func(c *core.Config) { c.TimesliceCycles = 700 }, sim.Second, 0,
		func(a core.AheadStats) bool { return a.Exits[core.AheadSliceDue] >= 10 && a.Batches > 0 }),
	aheadRing("timer expiring over a low-priority loop",
		[]string{delayThenSend(9000, 0xD1CE), timerOverLoop},
		func(c *core.Config) { c.TimesliceCycles = 700 }, sim.Second, 0,
		func(a core.AheadStats) bool { return a.Exits[core.AheadOwnEvent] > 0 && a.Batches > 0 }),
	aheadRing("overflow with error halting configured",
		[]string{delayThenSend(1500, 0xF00D), overflowLoop(false)},
		func(c *core.Config) { c.HaltOnError = true }, sim.Second, 0,
		func(a core.AheadStats) bool { return a.Exits[core.AheadImpure] > 0 }),
	aheadRing("overflow with error halting armed by the program",
		[]string{delayThenSend(1500, 0xF00D), overflowLoop(true)}, nil, sim.Second, 0, nil),
	aheadRing("overflow in the batch that arms error halting",
		[]string{delayThenSend(6000, 0xF00D), overflowLoop(false)}, nil, sim.Second, 0,
		func(a core.AheadStats) bool { return a.Batches > 0 }),
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
