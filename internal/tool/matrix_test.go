package tool_test

import (
	"testing"

	"transputer/internal/matrix"
)

// The tools' rows of the determinism matrix (internal/matrix): shipped
// topology files run through RunNet — what tnet and trun run — on every leg
// (-workers, -blockcache, -fuse off|topo|full|auto, with and without
// -timeline -flows -metrics), stdout, stderr, exit code, timeline and
// flow document compared with the -fuse off, -blockcache=false
// reference.  The names are the ones the worker-count and fusion sweeps
// had; a file named by both runs once.

func TestParallelDeterminismLossyLink(t *testing.T)   { matrix.Run(t, "lossy-link.tnet") }
func TestParallelDeterminismSeveredRing(t *testing.T) { matrix.Run(t, "severed-ring.tnet") }
func TestParallelDeterminismPipeline(t *testing.T)    { matrix.Run(t, "sieve pipeline") }

func TestFusionInvariantLossyLink(t *testing.T)   { matrix.Run(t, "lossy-link.tnet") }
func TestFusionInvariantSeveredRing(t *testing.T) { matrix.Run(t, "severed-ring.tnet") }
func TestFusionInvariantVChanSieve(t *testing.T)  { matrix.Run(t, "sieve.tnet") }
func TestFusionInvariantRing(t *testing.T)        { matrix.Run(t, "ring.tnet") }
