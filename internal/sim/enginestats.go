package sim

// EngineStats is a snapshot of what the windowed engine actually did —
// partition- and worker-dependent diagnostics, deliberately kept out
// of the partition-invariant observable outputs (traces, stats, flow
// tables).  BarrierWaitNs is wall-clock and meaningful only with more
// than one worker; everything else is deterministic for a fixed
// partition and workload.
type EngineStats struct {
	// Shards and Ports describe the partition: Ports simulation
	// participants mapped onto Shards coordinator units.
	Shards int
	Ports  int
	// Barriers counts coordinator loop iterations; Windows those that
	// had at least one shard with work, and ShardWindows the total
	// shard-window executions (ShardWindows/Windows is the mean number
	// of shards active per window).
	Barriers     uint64
	Windows      uint64
	ShardWindows uint64
	// LocalWindows counts the barrier-free micro-windows fused shards
	// ran to interleave their member ports (zero with no fusion), and
	// Passes the scans of every member that fused shards made to bound
	// them.
	LocalWindows uint64
	Passes       uint64
	// Cross counts deliveries that crossed shards through the barrier
	// merge; Fused counts port-to-port deliveries that stayed inside
	// one shard (the fusion fast path).
	Cross uint64
	Fused uint64
	// SpanSum is the total simulated time the barrier low-water mark
	// advanced over the run; SpanSum/Windows is the mean window span.
	SpanSum Time
	// BarrierWaitNs is wall-clock time the coordinator spent waiting at
	// window barriers for helpers to finish.
	BarrierWaitNs int64
}

// EngineStats returns the engine diagnostics accumulated so far.  Call
// between runs, not from inside a window.
func (c *Coordinator) EngineStats() EngineStats {
	var local, passes, fused uint64
	for _, s := range c.shards {
		local += s.stLocal
		passes += s.stPasses
	}
	for _, p := range c.ports {
		fused += p.stFused
	}
	return EngineStats{
		Shards:        len(c.shards),
		Ports:         len(c.ports),
		Barriers:      c.stBarriers,
		Windows:       c.stWindows,
		ShardWindows:  c.stShardWindows,
		LocalWindows:  local,
		Passes:        passes,
		Cross:         c.stCross,
		Fused:         fused,
		SpanSum:       c.stSpanSum,
		BarrierWaitNs: c.stBarrierWait,
	}
}
