package exp

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Each experiment must reproduce the paper's figures.  These tests are
// the repository's headline claims; a failure means the reproduction
// has drifted.

func check(t *testing.T, r Result) {
	t.Helper()
	for _, row := range r.Rows {
		if !row.OK {
			t.Errorf("%s %q: paper %q, measured %q", r.ID, row.Label, row.Paper, row.Measured)
		}
	}
}

func TestE1DirectFunctions(t *testing.T)     { check(t, E1DirectFunctions()) }
func TestE2Prefix754(t *testing.T)           { check(t, E2Prefix754()) }
func TestE3ExpressionEval(t *testing.T)      { check(t, E3ExpressionEvaluation()) }
func TestE4CommunicationCycles(t *testing.T) { check(t, E4CommunicationCycles()) }
func TestE5PrioritySwitch(t *testing.T)      { check(t, E5PrioritySwitch()) }
func TestE6LinkThroughput(t *testing.T)      { check(t, E6LinkThroughput()) }
func TestE7MessageLatency(t *testing.T)      { check(t, E7MessageLatency()) }
func TestE10Workstation(t *testing.T)        { check(t, E10Workstation()) }
func TestE11MIPSRate(t *testing.T)           { check(t, E11MIPSRate()) }
func TestE12SingleByte(t *testing.T)         { check(t, E12SingleByteFraction()) }
func TestE14AggregateBandwidth(t *testing.T) { check(t, E14AggregateBandwidth()) }
func TestA1StopAndWait(t *testing.T)         { check(t, A1StopAndWaitLink()) }
func TestA2FixedWidth(t *testing.T)          { check(t, A2FixedWidthEncoding()) }
func TestA3FetchBuffer(t *testing.T)         { check(t, A3FetchBuffer()) }
func TestA4WordLength(t *testing.T)          { check(t, A4WordLength()) }

func TestE8DatabaseSearch16(t *testing.T) {
	if testing.Short() {
		t.Skip("array build is slow under -short")
	}
	check(t, E8DatabaseSearch16())
}

func TestE9DatabaseSearch128(t *testing.T) {
	if testing.Short() {
		t.Skip("128-node board is slow under -short")
	}
	check(t, E9DatabaseSearch128())
}

func TestE13SearchPipelining(t *testing.T) {
	if testing.Short() {
		t.Skip("pipelining sweep is slow under -short")
	}
	check(t, E13SearchPipelining())
}

func TestE15InterruptLatency(t *testing.T) { check(t, E15InterruptLatency()) }

func TestE16ConfigurationTradeoff(t *testing.T) {
	if testing.Short() {
		t.Skip("prime sweep is slow under -short")
	}
	check(t, E16ConfigurationTradeoff())
}

func TestResultFormatting(t *testing.T) {
	r := Result{
		ID:    "EX",
		Title: "demo",
		Notes: "a note",
		Rows: []Row{
			{Label: "good", Paper: "p", Measured: "m", OK: true},
			{Label: "bad", Paper: "p", Measured: "m", OK: false},
		},
	}
	if r.Pass() {
		t.Error("result with a failing row must not pass")
	}
	var sb strings.Builder
	r.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"EX: demo", "MISMATCH", "a note", "workload"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if !(Result{Rows: []Row{{OK: true}}}).Pass() {
		t.Error("all-OK result must pass")
	}
	if !within(1.0, 1.05, 0.1) || within(1.0, 2.0, 0.1) {
		t.Error("within helper wrong")
	}
}

// TestRenderingsByteEqual: texp's whole output — every table, rendered
// as cmd/texp renders it — is the same bytes from one run to the next,
// so CI can cmp it unsorted.  E12 used to range over a map of its two
// programs and print them in either order; it is cheap, so it is
// rendered a few more times than the rest to make a coin flip show.
func TestRenderingsByteEqual(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every experiment twice")
	}
	render := func(results []Result) string {
		var sb strings.Builder
		for _, r := range results {
			r.Fprint(&sb)
		}
		return sb.String()
	}
	if a, b := render(All()), render(All()); a != b {
		t.Errorf("two renderings of every table differ:\n%s\n---\n%s", a, b)
	}
	want := render([]Result{E12SingleByteFraction()})
	for i := 0; i < 8; i++ {
		if got := render([]Result{E12SingleByteFraction()}); got != want {
			t.Fatalf("E12 rendering %d differs:\n%s\n---\n%s", i, got, want)
		}
	}
}

// texpGolden is what texp prints for a run of every experiment.
const texpGolden = "testdata/texp.golden"

// TestTexpGolden holds texp's whole output to texpGolden, so that a
// change which moves a figure shows it as a diff of the tables.  A
// change meant to move them regenerates the file:
//
//	go run ./cmd/texp > internal/exp/testdata/texp.golden
func TestTexpGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	want, err := os.ReadFile(filepath.FromSlash(texpGolden))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	Report(&sb, All())
	if got := sb.String(); got != string(want) {
		t.Errorf("texp's output differs from %s (- golden, + now):\n%s", texpGolden,
			lineDiff(strings.SplitAfter(string(want), "\n"), strings.SplitAfter(got, "\n")))
	}
}

// lineDiff lists the lines to delete from a and to insert to make b,
// each marked with the line of a it deletes or comes before, by a
// longest common subsequence.
func lineDiff(a, b []string) string {
	// lcs[i][j] is the longest common subsequence of a[i:] and b[j:].
	lcs := make([][]int, len(a)+1)
	for i := range lcs {
		lcs[i] = make([]int, len(b)+1)
	}
	for i := len(a) - 1; i >= 0; i-- {
		for j := len(b) - 1; j >= 0; j-- {
			if a[i] == b[j] {
				lcs[i][j] = lcs[i+1][j+1] + 1
			} else {
				lcs[i][j] = max(lcs[i+1][j], lcs[i][j+1])
			}
		}
	}
	var sb strings.Builder
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case i < len(a) && j < len(b) && a[i] == b[j]:
			i, j = i+1, j+1
		case i < len(a) && (j == len(b) || lcs[i+1][j] >= lcs[i][j+1]):
			fmt.Fprintf(&sb, "%4d - %s", i+1, strings.TrimSuffix(a[i], "\n")+"\n")
			i++
		default:
			fmt.Fprintf(&sb, "%4d + %s", i+1, strings.TrimSuffix(b[j], "\n")+"\n")
			j++
		}
	}
	return sb.String()
}
