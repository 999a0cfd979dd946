// Tnet runs a network of transputers described by a topology file (see
// internal/network.ParseTopology for the format).  Program paths in
// the file are resolved relative to the file's directory.
//
// Usage:
//
//	tnet [-stats] [-timeline out.json] [-metrics] [-flows out.json]
//	     [-prof out.prof] [-profperiod us] [-seed n] [-workers n]
//	     [-enginestats] network.tnet
//
// -seed overrides the topology file's seed directive, so one fault
// campaign file can be replayed under many seeds.  The shard partition
// follows -workers: one worker (the default) runs every node on one
// shard, more than one gives each node its own.  Results are
// byte-identical at any worker count; only simulator speed changes.
// -enginestats reports what the windowed engine did, starting with the
// partition, and what the link layer did on acknowledge credit (the one
// line of it no partition changes).
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
	workers := flag.Int("workers", 1, "worker threads for the parallel engine (1 = sequential, one shard for the whole network; more than one = a shard a node, which streaming networks lose by and only compute-bound ones gain from; output is identical at any count)")
	timeline := flag.String("timeline", "", "write a Chrome trace-event timeline to this file")
	metrics := flag.Bool("metrics", false, "print probe metrics (utilization, run queues, links)")
	flows := flag.String("flows", "", "trace message flows and write the flow document (spans, latency histograms, critical path) to this file")
	prof := flag.String("prof", "", "sample every node's instruction pointer and write a profile to this file")
	profPeriod := flag.Int("profperiod", 10, "profiler sampling period in simulated microseconds")
	seed := flag.Uint64("seed", 0, "override the topology's fault-plan seed")
	engineStats := flag.Bool("enginestats", false, "print windowed-engine diagnostics (the partition, windows, barriers, fused vs mailbox deliveries, acknowledges booked on credit instead of sent, batches run ahead of their window); all but the credit line vary with -workers, unlike all other output")
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
		Timeline: *timeline, Flows: *flows, Prof: *prof, ProfPeriod: *profPeriod}
	os.Exit(tool.RunNet(f, topo, filepath.Dir(flag.Arg(0)), os.Stdout, os.Stderr))
}
