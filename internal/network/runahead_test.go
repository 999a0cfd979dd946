package network_test

import (
	"testing"

	"transputer/internal/matrix"
)

// TestRunAheadLengthensWindows: with the compute phase running ahead,
// a compute ring synchronises when messages move, not every basic
// block.  (That running ahead is invisible is TestRunAheadInvisible's
// to check, on the same program.)
func TestRunAheadLengthensWindows(t *testing.T) {
	r, err := matrix.Lookup("compute ring with every receiver's input open").Build()
	if err != nil {
		t.Fatal(err)
	}
	s := r.Net
	if err := s.SetPlacement(matrix.PrivateShards(s)); err != nil {
		t.Fatal(err)
	}
	if rep, _ := r.Run(); !rep.Settled || len(rep.Blocked)+len(rep.Halted) > 0 {
		t.Fatalf("bad finish: %+v", rep)
	}
	instr, barriers := s.TotalStats().Instructions, s.EngineStats().Barriers
	if barriers >= instr/500 {
		t.Errorf("%d barriers for %d instructions, want fewer than one per 500", barriers, instr)
	}
}
