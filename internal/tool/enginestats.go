package tool

import (
	"fmt"
	"io"

	"transputer/internal/core"
	"transputer/internal/link"
	"transputer/internal/sim"
)

// PrintEngineStats reports windowed-engine diagnostics for a finished
// run: the partition, window and barrier counts, mean window span, and
// how deliveries split between the barrier mailbox and the fused
// intra-kernel fast path.  These numbers describe the simulator, not
// the simulated system — they vary with -workers, unlike every other
// output.
func PrintEngineStats(w io.Writer, es sim.EngineStats) {
	fmt.Fprintf(w, "engine: %d nodes on %d shards, %d windows (%d barriers, %d shard-windows)\n",
		es.Ports, es.Shards, es.Windows, es.Barriers, es.ShardWindows)
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
// engine diagnostic, but one no partition or -workers setting moves; a run
// with a probe bus attached (-timeline, -metrics, -flows) shows zeros.
func PrintCreditStats(w io.Writer, c link.CreditStats) {
	fmt.Fprintf(w, "engine: credit %d grants, %d acknowledges credited, %d revoked (%d bytes un-acknowledged), %d bytes un-acknowledged by cuts, %d late completions\n",
		c.Granted, c.Credited, c.Revoked, c.UnackedAtRevoke, c.UnackedAtCut, c.LateCompletions)
}

// PrintAheadStats reports, beside PrintEngineStats, what the runners
// executed past their windows' horizons and what stopped each attempt
// (core.AheadStats).  Engine diagnostics too: they vary with the
// partition and the block cache, and say nothing about the simulated
// system.
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

// PrintFusedStats reports how many idioms the block cache ran as one
// step and how many idiom heads it ran record by record, the whole
// idiom not fitting the batch (core.FusedStats).  Engine diagnostics:
// they vary with the partition and the block cache.
func PrintFusedStats(w io.Writer, f core.FusedStats) {
	fmt.Fprintf(w, "engine: %d idioms ran as one step, %d idiom heads split\n", f.Steps, f.Splits)
}
