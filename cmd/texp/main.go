// Texp regenerates every quantitative table and figure of "The
// Transputer" (ISCA 1985) on the simulator and prints paper-vs-measured
// tables.  See DESIGN.md for the experiment index and EXPERIMENTS.md
// for a recorded run.
//
// Usage:
//
//	texp            run everything
//	texp E4 E9 A1   run selected experiments
package main

import (
	"os"
	"strings"

	"transputer/internal/exp"
)

func main() {
	want := map[string]bool{}
	for _, arg := range os.Args[1:] {
		want[strings.ToUpper(arg)] = true
	}
	var results []exp.Result
	for _, r := range exp.All() {
		if len(want) == 0 || want[r.ID] {
			results = append(results, r)
		}
	}
	if exp.Report(os.Stdout, results) > 0 {
		os.Exit(1)
	}
}
