// Package exp regenerates every quantitative table and figure of "The
// Transputer" (ISCA 1985) on the simulator, pairing each paper figure
// with a measured value.  The texp command prints the results;
// the repository's benchmarks wrap the same functions.
//
// The experiment identifiers (E1..E14, A1..A4) follow the
// per-experiment index in DESIGN.md.
package exp

import (
	"fmt"
	"io"
	"strings"
)

// Row is one line of an experiment's table.
type Row struct {
	Label    string
	Paper    string // what the paper states (or implies)
	Measured string // what the simulator produced
	OK       bool   // measured agrees with the paper (within the stated tolerance)
}

// Result is one reproduced table or figure.
type Result struct {
	ID    string
	Title string
	Notes string
	Rows  []Row
}

// Pass reports whether every row matched.
func (r Result) Pass() bool {
	for _, row := range r.Rows {
		if !row.OK {
			return false
		}
	}
	return true
}

// Fprint renders the result as a table.
func (r Result) Fprint(w io.Writer) {
	fmt.Fprintf(w, "%s: %s\n", r.ID, r.Title)
	labelW, paperW := len("workload"), len("paper")
	for _, row := range r.Rows {
		if len(row.Label) > labelW {
			labelW = len(row.Label)
		}
		if len(row.Paper) > paperW {
			paperW = len(row.Paper)
		}
	}
	fmt.Fprintf(w, "  %-*s  %-*s  %s\n", labelW, "workload", paperW, "paper", "measured")
	fmt.Fprintf(w, "  %s  %s  %s\n", strings.Repeat("-", labelW), strings.Repeat("-", paperW), strings.Repeat("-", 24))
	for _, row := range r.Rows {
		mark := ""
		if !row.OK {
			mark = "   <-- MISMATCH"
		}
		fmt.Fprintf(w, "  %-*s  %-*s  %s%s\n", labelW, row.Label, paperW, row.Paper, row.Measured, mark)
	}
	if r.Notes != "" {
		fmt.Fprintf(w, "  note: %s\n", r.Notes)
	}
	fmt.Fprintln(w)
}

// Report writes what texp prints for a run of the given results: a
// heading, each result's table, and a verdict line.  It returns how
// many results had a mismatching row.
func Report(w io.Writer, results []Result) (failures int) {
	fmt.Fprintln(w, "Reproduction of \"The Transputer\" (Whitby-Strevens, ISCA 1985)")
	fmt.Fprintln(w, "==============================================================")
	fmt.Fprintln(w)
	for _, r := range results {
		r.Fprint(w)
		if !r.Pass() {
			failures++
		}
	}
	if failures > 0 {
		fmt.Fprintf(w, "%d experiment(s) had mismatching rows\n", failures)
	} else {
		fmt.Fprintln(w, "all experiments reproduce the paper's figures")
	}
	return failures
}

// All runs every experiment in DESIGN.md order.
func All() []Result {
	return []Result{
		E1DirectFunctions(),
		E2Prefix754(),
		E3ExpressionEvaluation(),
		E4CommunicationCycles(),
		E5PrioritySwitch(),
		E6LinkThroughput(),
		E7MessageLatency(),
		E8DatabaseSearch16(),
		E9DatabaseSearch128(),
		E10Workstation(),
		E11MIPSRate(),
		E12SingleByteFraction(),
		E13SearchPipelining(),
		E14AggregateBandwidth(),
		E15InterruptLatency(),
		E16ConfigurationTradeoff(),
		A1StopAndWaitLink(),
		A2FixedWidthEncoding(),
		A3FetchBuffer(),
		A4WordLength(),
	}
}

// within reports |got-want| <= tol.
func within(got, want, tol float64) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d <= tol
}
