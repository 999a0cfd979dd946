package main

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"transputer/internal/asm"
	"transputer/internal/core"
	"transputer/internal/link"
	"transputer/internal/network"
	"transputer/internal/occam"
	"transputer/internal/probe"
	"transputer/internal/sim"
)

// The layer drivers.  Each drives one package through its narrowest
// exported seam for a fixed number of operations and reports the host
// time (and, where it is exact, the allocations) of one operation.
// The counts are constants sized for about a fifth of a second each on
// the reference host; div shrinks them for the smoke test.

// clock runs fn and returns its wall time in nanoseconds and the
// number of heap allocations it made.
func clock(fn func()) (ns, mallocs float64) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	fn()
	d := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(d.Nanoseconds()), float64(m1.Mallocs - m0.Mallocs)
}

// kernelDriver measures the event queue alone: 64 timers that each
// reschedule themselves, then schedule-cancel pairs reaped by a run.
func kernelDriver(out map[string]metric, div int) {
	events := 2_000_000 / div
	k := sim.NewKernel()
	fired := 0
	for i := 0; i < 64; i++ {
		period := sim.Time(100 + 7*i)
		var tick func()
		tick = func() {
			fired++
			if fired+63 < events {
				k.After(period, tick)
			}
		}
		k.After(period, tick)
	}
	ns, mallocs := clock(func() { k.Run() })
	out["sim.kernel.ns_per_event"] = metric{ns / float64(fired), "ns"}
	out["sim.kernel.allocs_per_event"] = metric{mallocs / float64(fired), "count"}

	cancels := 1_000_000 / div
	k = sim.NewKernel()
	noop := func() {}
	ids := make([]sim.EventID, 1024)
	ns, _ = clock(func() {
		for done := 0; done < cancels; done += len(ids) {
			for i := range ids {
				ids[i] = k.After(sim.Time(1+i), noop)
			}
			for _, id := range ids {
				k.Cancel(id)
			}
			k.Run()
		}
	})
	out["sim.kernel.cancel_ns"] = metric{ns / float64(cancels), "ns"}
}

// coordDriver measures the window coordinator alone: shards wired in a
// ring as a network of transputers would be, each holding one event
// that reschedules itself, advanced by one worker.  It returns the
// host time of one barrier and of one shard-window.
func coordDriver(shards, eventsPerShard int) (nsPerBarrier, nsPerShardWindow float64) {
	const lookahead = sim.Time(link.AckBits * link.BitNs)
	c := sim.NewCoordinator(lookahead)
	ss := make([]*sim.Shard, shards)
	for i := range ss {
		ss[i] = c.NewShard()
	}
	for i, s := range ss {
		next := ss[(i+1)%shards]
		c.Wire(s.ID(), next.ID(), lookahead)
		c.Wire(next.ID(), s.ID(), lookahead)
		s := s
		left := eventsPerShard
		var tick func()
		tick = func() {
			if left--; left > 0 {
				s.After(2*lookahead, tick)
			}
		}
		s.After(sim.Time(1+i%7), tick)
	}
	ns, _ := clock(func() { c.Run() })
	st := c.EngineStats()
	return ns / float64(st.Barriers), ns / float64(st.ShardWindows)
}

// The three instruction mixes core.Run executes, as tasm: arithmetic,
// workspace and array traffic, and two processes passing a word back
// and forth over internal channels.  %d is the loop count.
const (
	aluLoop = `	ws 64 64
	ldc %d
	stl 1
	ldc 1
	stl 2
loop:
	ldl 2
	ldc 75
	mul
	adc 74
	ldc 65537
	rem
	stl 2
	ldl 2
	ldc 3
	shl
	ldl 2
	xor
	stl 3
	ldl 3
	ldl 2
	gt
	stl 4
	ldl 1
	adc -1
	stl 1
	ldl 1
	cj done
	j loop
done:
	stopp
`
	memLoop = `	ws 64 160
	ldc %d
	stl 1
loop:
	ldl 1
	ldc 63
	and
	ldlp 16
	wsub
	stl 4
	ldl 4
	ldnl 0
	adc 1
	ldl 4
	stnl 0
	ldl 4
	ldnl 0
	stl 5
	ldl 5
	stl 6
	ldlp 5
	ldnl 1
	stl 7
	ldl 1
	adc -1
	stl 1
	ldl 1
	cj done
	j loop
done:
	stopp
`
	chanLoop = `	mint
	stl 3
	mint
	stl 4
	ldc 2
	stl 1
	ldpi cont
	stl 0
	ldc child-after
	ldlp -40
	startp
after:
	ajw -20
	ldc %[1]d
	stl 1
ploop:
	ldl 1
	ldlp 23
	outword
	ldlp 2
	ldlp 24
	ldc 4
	in
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
	ldc %[1]d
	stl 1
cloop:
	ldlp 2
	ldlp 43
	ldc 4
	in
	ldl 2
	ldlp 44
	outword
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
)

var tasmLoops = []struct {
	name, src string
	loops     int
}{
	{"alu", aluLoop, 300_000},
	{"mem", memLoop, 300_000},
	{"chan", chanLoop, 100_000},
}

// coreDriver runs one tasm loop on a standalone machine and returns
// the host time of one instruction and the machine's counters.
func coreDriver(src string, blockCache bool) (nsPerInstr float64, st core.Stats, err error) {
	a, err := asm.Assemble(src, 4)
	if err != nil {
		return 0, st, err
	}
	m, err := core.New(core.T424().WithMemory(16 * 1024))
	if err != nil {
		return 0, st, err
	}
	m.SetBlockCache(blockCache)
	if err := m.Load(a.Image); err != nil {
		return 0, st, err
	}
	var res core.RunResult
	ns, _ := clock(func() { res = core.Run(m, 0) })
	if !res.Settled || m.Fault() != nil || m.ErrorFlag() {
		return 0, st, fmt.Errorf("tasm loop failed: settled=%v fault=%v error flag=%v", res.Settled, m.Fault(), m.ErrorFlag())
	}
	st = m.Stats()
	return ns / float64(st.Instructions), st, nil
}

// linkDriver streams n bytes between two host link ends on one kernel
// and returns the host time of one byte and the simulated rate.
func linkDriver(n int, stopAndWait, reliable bool) (nsPerByte, simMBytePerS float64, err error) {
	k := sim.NewKernel()
	a, b := link.NewHostEnd(k), link.NewHostEnd(k)
	link.ConnectHosts(a, b)
	b.SetStopAndWait(stopAndWait)
	if reliable {
		a.SetReliable(true, 0, 0)
		b.SetReliable(true, 0, 0)
	}
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i)
	}
	var got []byte
	var done sim.Time
	b.Recv(n, func(d []byte) { got, done = d, k.Now() })
	a.Send(data, nil)
	ns, _ := clock(func() { k.Run() })
	if string(got) != string(data) {
		return 0, 0, fmt.Errorf("link delivered %d of %d bytes intact", len(got), n)
	}
	return ns / float64(n), float64(n) / (float64(done) * 1e-9) / 1e6, nil
}

// The two sides of the virtual-channel fan: eight occam streams that
// all cross ONE wire, each on its own virtual channel.
func vchanSource(rounds int, out bool) string {
	dir, proc, body := "IN", "sink", `PROC sink(CHAN in, VALUE rounds) =
  VAR x, sum:
  SEQ
    sum := 0
    SEQ i = [0 FOR rounds]
      SEQ
        in ? x
        sum := sum + x
:
`
	if out {
		dir, proc, body = "OUT", "src", `PROC src(CHAN out, VALUE rounds) =
  SEQ i = [0 FOR rounds]
    out ! i + i
:
`
	}
	var b strings.Builder
	fmt.Fprintf(&b, "DEF rounds = %d:\nCHAN c0, c1, c2, c3, c4, c5, c6, c7:\n", rounds)
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&b, "PLACE c%d AT LINK1VC%d%s:\n", i, i, dir)
	}
	b.WriteString(body + "PAR\n")
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&b, "  %s(c%d, rounds)\n", proc, i)
	}
	return b.String()
}

// vchanDriver runs the fan on a two-node system and returns the host
// time of one payload byte.
func vchanDriver(rounds int) (float64, error) {
	s := network.NewSystem()
	var ns [2]*network.Node
	for i, out := range []bool{true, false} {
		c, err := occam.Compile(vchanSource(rounds, out), occam.Options{})
		if err != nil {
			return 0, err
		}
		if ns[i], err = s.AddTransputer(fmt.Sprintf("n%d", i), nodeConfig()); err != nil {
			return 0, err
		}
		if err := ns[i].Load(c.Image); err != nil {
			return 0, err
		}
	}
	if err := s.Connect(ns[0], 1, ns[1], 1); err != nil {
		return 0, err
	}
	if err := s.EnableVChans(ns[0], 1, 8); err != nil {
		return 0, err
	}
	var rep network.Report
	wall, _ := clock(func() { rep = s.Run(10 * sim.Second) })
	payload := uint64(8 * rounds * 4)
	if st := s.TotalStats(); !rep.Settled || len(rep.Blocked) > 0 || st.BytesIn != payload {
		return 0, fmt.Errorf("vchan fan: settled=%v blocked=%v, %d of %d bytes delivered", rep.Settled, rep.Blocked, st.BytesIn, payload)
	}
	return wall / float64(payload), nil
}

// probeDriver replays the events of a real observed ring onto fresh
// buses — bare, with one subscriber, and with everything tnet can
// subscribe — and renders the timeline.
func probeDriver(out map[string]metric, div int) error {
	w := workload{name: "probe-capture", shape: ring, nodes: 8, size: 512, workers: 1}
	in := w.inputs(1)
	imgs, err := w.compile(in)
	if err != nil {
		return err
	}
	s, _, err := w.build(imgs, engine{workers: 1, blockCache: true})
	if err != nil {
		return err
	}
	events := observe(s).timeline
	if rep := s.Run(10 * sim.Second); !rep.Settled {
		return fmt.Errorf("probe capture run did not settle")
	}
	evs := events.Events()
	replays := max(16/div, 1)
	replay := func(bus *probe.Bus) float64 {
		ns, _ := clock(func() {
			for _, e := range evs {
				// A publisher checks for a bus before it builds an
				// event; so does this one.
				if bus != nil {
					bus.Publish(e)
				}
			}
		})
		return ns
	}
	var sub0, sub1, full, render float64
	for r := 0; r < replays; r++ {
		sub0 += replay(probe.NewBus())
		bus := probe.NewBus()
		bus.Subscribe(func(probe.Event) {})
		sub1 += replay(bus)
		bus = probe.NewBus()
		tl := probe.NewTimeline(bus)
		probe.NewMetrics(bus)
		probe.NewFlowTable(bus)
		full += replay(bus)
		ns, _ := clock(func() { err = tl.WriteChromeTrace(io.Discard) })
		if err != nil {
			return err
		}
		render += ns
	}
	n := float64(replays * len(evs))
	out["probe.publish.ns_per_event.sub0"] = metric{sub0 / n, "ns"}
	out["probe.publish.ns_per_event.sub1"] = metric{sub1 / n, "ns"}
	out["probe.publish.ns_per_event.full"] = metric{full / n, "ns"}
	out["probe.timeline.render_ns_per_event"] = metric{render / n, "ns"}
	return nil
}

// frontDriver measures what runs before a network does: the occam
// compiler and the assembler on the benchmark's own sources, and
// network construction from compiled images.
func frontDriver(out map[string]metric, div int) error {
	occamSrcs := []string{
		fmt.Sprintf(ringSource, 8192, 1),
		fmt.Sprintf(gridSource, 4096, 1),
		fmt.Sprintf(computeSource, 4000),
		vchanSource(1024, true),
		vchanSource(1024, false),
	}
	reps := max(40/div, 1)
	var lines int
	var err error
	ns, mallocs := clock(func() {
		for r := 0; r < reps && err == nil; r++ {
			for _, src := range occamSrcs {
				if _, err = occam.Compile(src, occam.Options{}); err != nil {
					return
				}
				lines += strings.Count(src, "\n")
			}
		}
	})
	if err != nil {
		return err
	}
	out["occam.compile.us_per_line"] = metric{ns / 1e3 / float64(lines), "us"}
	out["occam.compile.allocs_per_line"] = metric{mallocs / float64(lines), "count"}

	reps = max(400/div, 1)
	lines = 0
	ns, _ = clock(func() {
		for r := 0; r < reps && err == nil; r++ {
			for _, l := range tasmLoops {
				src := fmt.Sprintf(l.src, l.loops)
				if _, err = asm.Assemble(src, 4); err != nil {
					return
				}
				lines += strings.Count(src, "\n")
			}
		}
	})
	if err != nil {
		return err
	}
	out["asm.assemble.us_per_line"] = metric{ns / 1e3 / float64(lines), "us"}

	w := workload{name: "build", shape: ring, nodes: 8, size: 64, workers: 1}
	imgs, err := w.compile(w.inputs(1))
	if err != nil {
		return err
	}
	reps = max(400/div, 1)
	ns, _ = clock(func() {
		for r := 0; r < reps && err == nil; r++ {
			_, _, err = w.build(imgs, w.engine())
		}
	})
	if err != nil {
		return err
	}
	out["network.build.us_per_node"] = metric{ns / 1e3 / float64(reps*w.nodes), "us"}
	return nil
}

// drivers runs every layer driver.  chanInstr is how many instructions
// the chan loop executes for each message it passes; the budget
// estimate prices a workload's messages with it.
func drivers(div int) (out map[string]metric, chanInstr float64, err error) {
	out = make(map[string]metric)
	kernelDriver(out, div)

	nb8, _ := coordDriver(8, 40_000/div)
	nb128, nsw := coordDriver(128, 4_000/div)
	out["sim.coord.ns_per_barrier.k8"] = metric{nb8, "ns"}
	out["sim.coord.ns_per_barrier.k128"] = metric{nb128, "ns"}
	out["sim.coord.ns_per_shard_window"] = metric{nsw, "ns"}

	for _, l := range tasmLoops {
		src := fmt.Sprintf(l.src, max(l.loops/div, 1))
		step, slow, err := coreDriver(src, false)
		if err != nil {
			return nil, 0, fmt.Errorf("core %s: %w", l.name, err)
		}
		steprun, fast, err := coreDriver(src, true)
		if err != nil {
			return nil, 0, fmt.Errorf("core %s: %w", l.name, err)
		}
		if slow.Instructions != fast.Instructions || slow.Cycles != fast.Cycles {
			return nil, 0, fmt.Errorf("core %s: block cache changed the count: %d instructions in %d cycles off, %d in %d on",
				l.name, slow.Instructions, slow.Cycles, fast.Instructions, fast.Cycles)
		}
		out["core.step.ns_per_instr."+l.name] = metric{step, "ns"}
		out["core.steprun.ns_per_instr."+l.name] = metric{steprun, "ns"}
		if l.name == "chan" {
			chanInstr = float64(fast.Instructions) / float64(fast.MessagesIn+fast.MessagesOut)
		}
	}

	bytes := (1 << 20) / div
	for _, mode := range []struct {
		name                  string
		stopAndWait, reliable bool
	}{{"plain", false, false}, {"stopwait", true, false}, {"reliable", false, true}} {
		ns, rate, err := linkDriver(bytes, mode.stopAndWait, mode.reliable)
		if err != nil {
			return nil, 0, fmt.Errorf("link %s: %w", mode.name, err)
		}
		out["link."+mode.name+".ns_per_byte"] = metric{ns, "ns"}
		if mode.name == "plain" {
			// Paper 2.3.1: 11 bit times a byte at 10 Mbit/s.
			if rate < 0.909*0.98 || rate > 0.909*1.02 {
				return nil, 0, fmt.Errorf("simulated link rate %.4f Mbyte/s, the paper's is 0.909", rate)
			}
			out["model.link_mbyte_per_s"] = metric{rate, "MB/s"}
		}
	}
	vns, err := vchanDriver(max(4096/div, 1))
	if err != nil {
		return nil, 0, err
	}
	out["link.vchan8.ns_per_byte"] = metric{vns, "ns"}

	if err := probeDriver(out, div); err != nil {
		return nil, 0, err
	}
	if err := frontDriver(out, div); err != nil {
		return nil, 0, err
	}
	return out, chanInstr, nil
}
