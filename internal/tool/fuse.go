package tool

import (
	"fmt"
	"io"

	"transputer/internal/core"
	"transputer/internal/network"
	"transputer/internal/sim"
)

// Fusion mode resolution shared by the network tools: how a `-fuse`
// flag and a topology's own `shard` directives combine into the
// placement BuildNetwork applies.  Whatever the mode, results are
// byte-identical; fusion only changes how fast the simulator gets
// there.

// FuseModes documents the accepted -fuse values.
const FuseModes = "off|topo|auto|full"

// ResolveFusion turns a -fuse mode into the topology's final Shards
// placement.  Modes:
//
//	topo    the file's `shard` directives as written (the default); a
//	        file with none leaves the placement to the worker count:
//	        one worker runs everything on one shard, more than one
//	        gives every node its own (network.System.SetPlacement)
//	off     ignore any `shard` directives; one node per shard, at any
//	        worker count — the mailbox-and-barrier path, kept sayable
//	        as the sequential reference
//	full    every node on one shard
//	auto    profile a pre-run of the topology, then contract the
//	        observed traffic graph to at most maxParts shards,
//	        ignoring edges too quiet to be worth a shard
//
// Every mode but a directive-free topo leaves an explicit placement
// that names every node, so the worker count no longer has a say.  For
// auto, baseDir resolves the topology's program paths (the pre-run
// loads and runs the real programs; its host output is discarded).
func ResolveFusion(topo *network.Topology, mode, baseDir string, maxParts int) error {
	switch mode {
	case "topo", "":
		return nil
	case "off":
		topo.Shards = make([][]string, len(topo.Transputers))
		for i, t := range topo.Transputers {
			topo.Shards[i] = []string{t.Name}
		}
		return nil
	case "full":
		topo.Shards = [][]string{nodeNames(topo)}
		return nil
	case "auto":
		groups, err := AutoFuseGroups(topo, baseDir, maxParts)
		if err != nil {
			return err
		}
		topo.Shards = groups
		return nil
	default:
		return fmt.Errorf("unknown fuse mode %q (want %s)", mode, FuseModes)
	}
}

func nodeNames(topo *network.Topology) []string {
	names := make([]string, len(topo.Transputers))
	for i, t := range topo.Transputers {
		names[i] = t.Name
	}
	return names
}

// AutoFuseGroups profiles the topology and partitions it by observed
// wire traffic: a fresh copy of the network, without the file's own
// placement, runs to quiescence with host output discarded, each
// connection is weighted by its wire activity, edges below a density
// floor are dropped (quiet wires are not worth losing a parallel shard
// over), and the rest are greedily contracted to at most maxParts
// groups.  The pre-run is deterministic and its traffic is the same at
// any partition, so the resulting placement — and with it the measured
// run's wall-clock, though never its results — is reproducible.
func AutoFuseGroups(topo *network.Topology, baseDir string, maxParts int) ([][]string, error) {
	pre := *topo
	pre.Shards = nil
	net, err := BuildNetwork(&pre, baseDir, io.Discard)
	if err != nil {
		return nil, fmt.Errorf("autofuse pre-run: %w", err)
	}
	rep := RunToQuiescence(net)
	edges := net.System.TrafficEdges()
	floor := network.FuseTrafficFloor(rep.Time)
	return network.GreedyFuse(nodeNames(topo), edges, maxParts, floor), nil
}

// PartitionOrigin says where a run's partition came from, for
// PrintEngineStats: fuse is the -fuse mode when the placement it
// resolved to is explicit (a topology's Shards are non-empty), and
// empty when the placement was left to the worker count.
func PartitionOrigin(fuse string, workers int) string {
	switch {
	case fuse != "":
		return "explicit: " + fuse
	case workers == 1:
		return "derived: 1 worker"
	default:
		return fmt.Sprintf("derived: %d workers", workers)
	}
}

// PrintEngineStats reports windowed-engine diagnostics for a finished
// run: the partition and where it came from (see PartitionOrigin),
// window and barrier counts, mean window span, and how deliveries split
// between the barrier mailbox and the fused intra-kernel fast path.
// These numbers describe the simulator, not the simulated system —
// they vary with -fuse and -workers, unlike every other output.
func PrintEngineStats(w io.Writer, es sim.EngineStats, origin string) {
	fmt.Fprintf(w, "engine: %d nodes on %d shards (%s), %d windows (%d barriers, %d shard-windows)\n",
		es.Ports, es.Shards, origin, es.Windows, es.Barriers, es.ShardWindows)
	if es.Windows > 0 {
		fmt.Fprintf(w, "engine: mean window span %v, mean active shards %.2f\n",
			es.SpanSum/sim.Time(es.Windows), float64(es.ShardWindows)/float64(es.Windows))
	}
	fmt.Fprintf(w, "engine: %d cross-shard deliveries via barrier mailbox, %d fused intra-kernel\n",
		es.Cross, es.Fused)
	if es.BarrierWaitNs > 0 {
		fmt.Fprintf(w, "engine: %v wall-clock waiting at window barriers\n",
			(sim.Time)(es.BarrierWaitNs))
	}
}

// PrintAheadStats reports, beside PrintEngineStats, what the runners
// executed past their windows' horizons and what stopped each attempt
// (core.AheadStats).  Engine diagnostics too: they vary with -fuse and
// -blockcache, and say nothing about the simulated system.
func PrintAheadStats(w io.Writer, a core.AheadStats) {
	fmt.Fprintf(w, "engine: %d batches ran ahead of their window, %d cycles in all; stopped by",
		a.Batches, a.Cycles)
	for e, n := range a.Exits {
		sep := ","
		if e == 0 {
			sep = ""
		}
		fmt.Fprintf(w, "%s %s %d", sep, core.AheadExit(e), n)
	}
	fmt.Fprintln(w)
}
