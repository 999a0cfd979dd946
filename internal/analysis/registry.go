// Package analysis assembles the tvet suite: analyzers over go/ast and
// go/types that mechanize the simulator's determinism and protocol
// invariants (see DESIGN.md §15).
//
// The suite runs as a vet tool:
//
//	go build -o tvet ./cmd/tvet
//	go vet -vettool=$PWD/tvet ./...
//
// Each analyzer encodes a rule this repo already relies on — byte-
// identical outputs across workers/partitions/block cache, the
// nil-bus zero-overhead contract, cycle-stamp-free link events — so the
// rules hold at compile time instead of by convention.
package analysis

import (
	"transputer/internal/analysis/cyclefree"
	"transputer/internal/analysis/detrange"
	"transputer/internal/analysis/ignorecheck"
	"transputer/internal/analysis/nondetsource"
	"transputer/internal/analysis/probeguard"
	"transputer/internal/analysis/tvetutil"
)

// All is every analyzer of the tvet suite, in name order.
var All = []*tvetutil.Analyzer{
	cyclefree.Analyzer,
	detrange.Analyzer,
	ignorecheck.Analyzer,
	nondetsource.Analyzer,
	probeguard.Analyzer,
}
