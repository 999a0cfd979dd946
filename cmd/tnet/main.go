// Tnet runs a network of transputers described by a topology file (see
// internal/network.ParseTopology for the format).  Program paths in
// the file are resolved relative to the file's directory.
//
// Usage:
//
//	tnet [-stats] [-timeline out.json] [-metrics] [-flows out.json]
//	     [-prof out.prof] [-seed n] [-workers n] [-enginestats]
//	     network.tnet
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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"transputer/internal/network"
	"transputer/internal/tool"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is tnet on the command-line arguments args; it returns the exit
// code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tnet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	stats := fs.Bool("stats", false, "print per-node statistics")
	workers := fs.Int("workers", 1, "worker threads for the parallel engine (1 = sequential, one shard for the whole network; more than one = a shard a node, which streaming networks lose by and only compute-bound ones gain from; output is identical at any count)")
	timeline := fs.String("timeline", "", "write a Chrome trace-event timeline to this file")
	metrics := fs.Bool("metrics", false, "print probe metrics (utilization, run queues, links)")
	flows := fs.String("flows", "", "trace message flows and write the flow document (spans, latency histograms, critical path) to this file")
	prof := fs.String("prof", "", "sample every node's instruction pointer every 10 simulated µs and write a profile to this file")
	seed := fs.Uint64("seed", 0, "override the topology's fault-plan seed")
	engineStats := fs.Bool("enginestats", false, "print windowed-engine diagnostics (the partition, windows, barriers, fused vs mailbox deliveries, acknowledges booked on credit instead of sent, batches run ahead of their window); all but the credit line vary with -workers, unlike all other output")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: tnet [flags] network.tnet")
		return 2
	}
	src, err := os.ReadFile(fs.Arg(0))
	var topo *network.Topology
	if err == nil {
		topo, err = network.ParseTopology(string(src))
	}
	if err != nil {
		fmt.Fprintln(stderr, "tnet:", err)
		return 1
	}
	fs.Visit(func(fl *flag.Flag) {
		if fl.Name == "seed" {
			topo.Seed = *seed
		}
	})
	f := tool.NetFlags{Tool: "tnet", Stats: *stats, Metrics: *metrics, EngineStats: *engineStats, Workers: *workers,
		Timeline: *timeline, Flows: *flows, Prof: *prof}
	return tool.RunNet(f, topo, filepath.Dir(fs.Arg(0)), stdout, stderr)
}
