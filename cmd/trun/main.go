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
//
// The run is tnet's on a network of one (tool.OneNode): the same
// output, observers and exit codes (tool.Verdict).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"transputer/internal/sim"
	"transputer/internal/tool"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is trun on the command-line arguments args; it returns the exit
// code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("trun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	model := fs.String("model", "t424", "transputer model (t424 or t222)")
	mem := fs.Int("mem", 64*1024, "memory size in bytes")
	limitMs := fs.Int("limit", 1000, "simulated time limit in milliseconds (0 = no limit)")
	stats := fs.Bool("stats", false, "print execution statistics")
	trace := fs.Bool("trace", false, "trace every instruction to standard error")
	timeline := fs.String("timeline", "", "write a Chrome trace-event timeline to this file")
	metrics := fs.Bool("metrics", false, "print probe metrics (utilization, run queues, links)")
	flows := fs.String("flows", "", "trace message flows and write the flow document (spans, latency histograms, critical path) to this file")
	prof := fs.String("prof", "", "sample the instruction pointer and write a profile to this file")
	profPeriod := fs.Int("profperiod", 10, "profiler sampling period in simulated microseconds")
	input := fs.String("in", "", "comma-separated words queued for host input")
	blockcache := fs.Bool("blockcache", true, "use the predecoded block cache (purely a simulator speed switch; output is identical either way)")
	engineStats := fs.Bool("enginestats", false, "print windowed-engine diagnostics (windows, barriers, fused vs mailbox deliveries, acknowledges booked on credit instead of sent, batches run ahead of their window)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: trun [flags] program.{occ,tasm,tix}")
		return 2
	}

	topo := tool.OneNode(*model, *mem, fs.Arg(0))
	topo.RunLimit = sim.Time(*limitMs) * sim.Millisecond
	if *input != "" {
		var words []int64
		for _, w := range strings.Split(*input, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(w), 10, 64)
			if err != nil {
				fmt.Fprintf(stderr, "trun: bad input word %q\n", w)
				return 1
			}
			words = append(words, v)
		}
		topo.Inputs = map[string][]int64{"main": words}
	}
	f := tool.NetFlags{Tool: "trun", Stats: *stats, Metrics: *metrics, EngineStats: *engineStats, Trace: *trace,
		Workers: 1, Timeline: *timeline, Flows: *flows, Prof: *prof, ProfPeriod: *profPeriod, BlockCache: *blockcache, Fuse: "topo"}
	return tool.RunNet(f, topo, "", stdout, stderr)
}
