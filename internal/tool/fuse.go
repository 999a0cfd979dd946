package tool

import (
	"fmt"
	"io"

	"transputer/internal/core"
	"transputer/internal/link"
	"transputer/internal/network"
	"transputer/internal/sim"
)

// How a `-fuse` flag and a topology's own `shard` directives combine
// into the placement BuildNetwork applies.  Whatever the mode, results
// are byte-identical; the partition only changes how fast the simulator
// gets there.

// FuseModes documents the accepted -fuse values.
const FuseModes = "off|topo"

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
//
// off leaves an explicit placement that names every node, so the worker
// count no longer has a say.
func ResolveFusion(topo *network.Topology, mode string) error {
	switch mode {
	case "topo", "":
		return nil
	case "off":
		topo.Shards = make([][]string, len(topo.Transputers))
		for i, t := range topo.Transputers {
			topo.Shards[i] = []string{t.Name}
		}
		return nil
	default:
		return fmt.Errorf("unknown fuse mode %q (want %s)", mode, FuseModes)
	}
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

// PrintCreditStats reports, beside PrintEngineStats, what the link layer
// did not have to simulate: acknowledges booked on credit instead of
// sent (link.CreditStats), and how often a promise ended early.  An
// engine diagnostic, but one no -fuse or -workers setting moves; a run
// with a probe bus attached (-timeline, -metrics, -flows) shows zeros.
func PrintCreditStats(w io.Writer, c link.CreditStats) {
	fmt.Fprintf(w, "engine: credit %d grants, %d acknowledges credited, %d revoked (%d bytes un-acknowledged), %d bytes un-acknowledged by cuts, %d late completions\n",
		c.Granted, c.Credited, c.Revoked, c.UnackedAtRevoke, c.UnackedAtCut, c.LateCompletions)
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
