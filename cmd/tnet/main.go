// Tnet runs a network of transputers described by a topology file (see
// internal/network.ParseTopology for the format).  Program paths in
// the file are resolved relative to the file's directory.
//
// Usage:
//
//	tnet [-stats] [-timeline out.json] [-metrics] [-flows out.json]
//	     [-prof out.prof] [-profperiod us] [-seed n] [-workers n]
//	     [-blockcache=false] [-fuse off|topo] [-enginestats]
//	     network.tnet
//
// -seed overrides the topology file's seed directive, so one fault
// campaign file can be replayed under many seeds.  -fuse selects the
// shard partition, which is fixed when the run starts (results are
// byte-identical at either mode, only simulator speed changes): topo,
// the default, takes the file's shard directives, and with none the
// partition follows -workers — one worker (the default) runs every node
// on one shard, more than one gives each node its own; off asks for one
// shard a node at any worker count, the stepwise reference.
// -enginestats reports what the windowed engine did, starting with
// where the partition came from, and what the link layer did on
// acknowledge credit (the one line of it no partition changes).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"transputer/internal/network"
	"transputer/internal/tool"
)

func main() {
	stats := flag.Bool("stats", false, "print per-node statistics")
	workers := flag.Int("workers", 1, "worker threads for the parallel engine (1 = sequential, and with no explicit -fuse placement one shard for the whole network; more than one = a shard a node, which streaming networks lose by and only compute-bound ones gain from; output is identical at any count)")
	timeline := flag.String("timeline", "", "write a Chrome trace-event timeline to this file")
	metrics := flag.Bool("metrics", false, "print probe metrics (utilization, run queues, links)")
	flows := flag.String("flows", "", "trace message flows and write the flow document (spans, latency histograms, critical path) to this file")
	prof := flag.String("prof", "", "sample every node's instruction pointer and write a profile to this file")
	profPeriod := flag.Int("profperiod", 10, "profiler sampling period in simulated microseconds")
	seed := flag.Uint64("seed", 0, "override the topology's fault-plan seed")
	blockcache := flag.Bool("blockcache", true, "use the predecoded block cache (purely a simulator speed switch; output is identical either way)")
	fuse := flag.String("fuse", "topo", "shard partition: "+tool.FuseModes+" (topo: the file's shard directives, and with none the partition follows -workers; off: one shard a node even at one worker; purely a simulator speed switch, output is identical at every partition)")
	engineStats := flag.Bool("enginestats", false, "print windowed-engine diagnostics (where the partition came from, windows, barriers, fused vs mailbox deliveries, acknowledges booked on credit instead of sent, batches run ahead of their window); all but the credit line vary with -fuse/-workers, unlike all other output")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tnet [flags] network.tnet")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	var topo *network.Topology
	if err == nil {
		topo, err = network.ParseTopology(string(src))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tnet:", err)
		os.Exit(1)
	}
	flag.Visit(func(fl *flag.Flag) {
		if fl.Name == "seed" {
			topo.Seed = *seed
		}
	})
	f := tool.NetFlags{Tool: "tnet", Stats: *stats, Metrics: *metrics, EngineStats: *engineStats, Workers: *workers,
		Timeline: *timeline, Flows: *flows, Prof: *prof, ProfPeriod: *profPeriod, BlockCache: *blockcache, Fuse: *fuse}
	os.Exit(tool.RunNet(f, topo, filepath.Dir(flag.Arg(0)), os.Stdout, os.Stderr))
}
