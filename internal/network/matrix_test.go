package network_test

import (
	"testing"

	"transputer/internal/matrix"
)

// The engine's rows of the determinism matrix (internal/matrix), under
// the names these properties have been tested by since each knob
// landed.  Every one of these used to be its own loop over some of the
// matrix's columns; now each names its scenarios and the matrix runs
// them on every leg — workers, block cache, placement and probe bus
// crossed — against the stepwise reference and the golden digest.  A
// scenario named by two tests runs once.

// The same build twice is the same run: the reference's digest is
// checked in.
func TestDeterministicDatabaseSearch(t *testing.T) { matrix.Run(t, "dbsearch 3x3") }
func TestDeterministicSieve(t *testing.T)          { matrix.Run(t, "sieve 30/10") }

// Worker count and block cache are invisible, down to the merged probe
// timeline and the per-opcode counts.
func TestDeterministicAcrossWorkers(t *testing.T)           { matrix.Run(t, "dbsearch 3x3") }
func TestBlockCacheInvisibleInTimeline(t *testing.T)        { matrix.Run(t, "sieve 30/10") }
func TestBlockCacheDeterministicAcrossWorkers(t *testing.T) { matrix.Run(t, "sieve 30/10") }

// Windows extended by quiet promises and topology distances, and
// deliveries that land on the instant of the destination's own events.
func TestSparseTrafficDeterministicAcrossWorkers(t *testing.T) { matrix.Run(t, "compute ring") }
func TestVChanBlockCacheInvisible(t *testing.T)                { matrix.Run(t, "vchan pair") }

// The partition — derived from the worker count or set — is invisible.
func TestDerivedPartitionInvisible(t *testing.T) {
	matrix.Run(t, "ring", "grid", "vchan pair", "dbsearch 16", "severed and restored ring")
}

// Running ahead of the window is invisible, and each program left its
// batches the way it was written to.
func TestRunAheadInvisible(t *testing.T) {
	matrix.Run(t,
		"compute ring with every receiver's input open",
		"run limit in the middle of the compute phase",
		"process polling its own open input buffer",
		"high-priority receiver over a low-priority loop",
		"replicated loops timesliced while a delivery joins the queue",
		"timer expiring over a low-priority loop",
		"overflow with error halting configured",
		"overflow with error halting armed by the program",
		"overflow in the batch that arms error halting",
		"search ring with every receiver's input open")
}

// Acknowledge credit is invisible: a detached run promises the
// acknowledges an attached run transmits, through revocations in both
// directions and through grants that outlive the sender's transfers.
func TestAckCreditInvisible(t *testing.T) {
	matrix.Run(t, "credit revoked both ways", "credit across transfers")
}

// Every protocol stack delivers the bytes sent, at one instant.
func TestProtocolStackConformance(t *testing.T) {
	matrix.Run(t, "raw", "stopwait", "reliable", "vchan8")
}
