// Trun runs a program on one simulated transputer with a host device
// on link 0, printing the program's host output and, optionally,
// execution statistics, a Chrome-trace timeline, probe metrics and a
// sampling profile.
//
// Usage:
//
//	trun [-model t424|t222] [-mem bytes] [-limit dur] [-stats]
//	     [-timeline out.json] [-metrics] [-flows out.json] [-prof out.prof]
//	     [-profperiod us] [-in w,w,...] [-blockcache=false] [-enginestats]
//	     program.{occ,tasm,tix}
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"transputer/internal/core"
	"transputer/internal/network"
	"transputer/internal/sim"
	"transputer/internal/tool"
)

func main() {
	model := flag.String("model", "t424", "transputer model (t424 or t222)")
	mem := flag.Int("mem", 64*1024, "memory size in bytes")
	limitMs := flag.Int("limit", 1000, "simulated time limit in milliseconds (0 = no limit)")
	stats := flag.Bool("stats", false, "print execution statistics")
	trace := flag.Bool("trace", false, "trace every instruction to standard error")
	timeline := flag.String("timeline", "", "write a Chrome trace-event timeline to this file")
	metrics := flag.Bool("metrics", false, "print probe metrics (utilization, run queues, links)")
	flows := flag.String("flows", "", "trace message flows and write the flow document (spans, latency histograms, critical path) to this file")
	prof := flag.String("prof", "", "sample the instruction pointer and write a profile to this file")
	profPeriod := flag.Int("profperiod", 10, "profiler sampling period in simulated microseconds")
	input := flag.String("in", "", "comma-separated words queued for host input")
	blockcache := flag.Bool("blockcache", true, "use the predecoded block cache (purely a simulator speed switch; output is identical either way)")
	engineStats := flag.Bool("enginestats", false, "print windowed-engine diagnostics (windows, barriers, fused vs mailbox deliveries, acknowledges booked on credit instead of sent, batches run ahead of their window)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: trun [flags] program.{occ,tasm,tix}")
		os.Exit(2)
	}

	cfg, err := tool.ModelConfig(*model, *mem)
	if err != nil {
		fatal(err)
	}
	img, err := tool.LoadAny(flag.Arg(0), cfg.WordBits/8)
	if err != nil {
		fatal(err)
	}

	s := network.NewSystem()
	s.SetBlockCache(*blockcache)
	n, err := s.AddTransputer("main", cfg)
	if err != nil {
		fatal(err)
	}
	host, err := s.AttachHost(n, 0, os.Stdout)
	if err != nil {
		fatal(err)
	}
	if *input != "" {
		for _, f := range strings.Split(*input, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
			if err != nil {
				fatal(fmt.Errorf("bad input word %q", f))
			}
			host.QueueInput(v)
		}
	}
	if err := n.Load(img); err != nil {
		fatal(err)
	}
	var flushTrace func() error
	if *trace {
		tw, flush := core.TraceWriter(os.Stderr)
		n.M.SetTrace(tw)
		flushTrace = flush
	}

	obs := tool.NewObserver(s)
	if *timeline != "" {
		obs.EnableTimeline(*timeline)
	}
	if *metrics {
		obs.EnableMetrics()
	}
	if *flows != "" {
		progs := []tool.Program{{Node: n, Image: img, Path: flag.Arg(0)}}
		obs.EnableFlows(*flows, tool.LineResolver(progs))
	}
	if *prof != "" {
		obs.EnableProfile(*prof, sim.Time(*profPeriod)*sim.Microsecond)
		obs.AddProfileTarget(n, img, flag.Arg(0))
	}
	obs.Start()

	rep := s.Run(sim.Time(*limitMs) * sim.Millisecond)
	if flushTrace != nil {
		flushTrace()
	}
	if err := n.M.Fault(); err != nil {
		fatal(err)
	}
	if !rep.Settled {
		fmt.Fprintf(os.Stderr, "trun: time limit reached at %v\n", rep.Time)
	}
	if rep.Settled {
		if wd := s.Watchdog(); wd != nil {
			progs := []tool.Program{{Node: n, Image: img, Path: flag.Arg(0)}}
			tool.PrintWatchdog(os.Stderr, wd, tool.LineResolver(progs))
		}
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "simulated time: %v (host exit: %v)\n", rep.Time, host.Done)
		tool.PrintStats(os.Stderr, n.Name, n.M.Stats(), n.M.Config().CycleNs)
	}
	if obs.Active() {
		if err := obs.Finish(rep.Time, os.Stderr); err != nil {
			fatal(err)
		}
	}
	if *engineStats {
		tool.PrintEngineStats(os.Stderr, s.EngineStats(), tool.PartitionOrigin("", s.Workers()))
		tool.PrintCreditStats(os.Stderr, s.CreditStats())
		tool.PrintAheadStats(os.Stderr, s.AheadStats())
	}
	if n.M.ErrorFlag() {
		fmt.Fprintln(os.Stderr, "trun: machine error flag set")
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "trun:", err)
	os.Exit(1)
}
