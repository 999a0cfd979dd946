package occam_test

import (
	"testing"

	"transputer/internal/apps/dbsearch"
	"transputer/internal/occam"
)

// TestConfiguredGroups pins how many processors of a replicated PLACED
// PAR are checked: one for each configuration branch taken when what
// derives from i is only an operand, and every processor when a value
// derived from i decides a shape.  A processor that errors after its
// branch has been checked once reports the error it reports alone.
func TestConfiguredGroups(t *testing.T) {
	for _, tc := range []struct {
		name   string
		src    string
		checks int
		err    string
	}{
		{"figure-7 array", dbsearch.ArraySource(dbsearch.Defaults128()), 4, ""},
		{"i an operand", "PLACED PAR i = [0 FOR 5]\n  PROCESSOR i\n    CHAN out:\n    PLACE out AT LINK0OUT:\n    DEF d = i * 3:\n    out ! d - 1\n", 1, ""},
		{"i an array size", "PLACED PAR i = [0 FOR 5]\n  PROCESSOR i\n    VAR v[i + 1]:\n    v[0] := 1\n", 5, ""},
		{"i a subscript", "PLACED PAR i = [0 FOR 3]\n  PROCESSOR i\n    VAR v[4]:\n    v[i] := 1\n", 3, ""},
		{"i a loop count", "PLACED PAR i = [0 FOR 3]\n  PROCESSOR i\n    VAR x:\n    SEQ j = [0 FOR i]\n      x := j\n", 3, ""},
		{"i a folded guard", "PLACED PAR i = [0 FOR 3]\n  PROCESSOR i\n    VAR x:\n    IF\n      TRUE\n        IF\n          i = 1\n            x := 1\n          TRUE\n            SKIP\n", 3, ""},
		{"i subtracted", "PLACED PAR i = [0 FOR 3]\n  PROCESSOR i\n    VAR x:\n    x := x - i\n", 3, ""},
		{"division by zero", "PLACED PAR i = [0 FOR 6]\n  PROCESSOR i\n    IF\n      i < 4\n        DEF q = 12 / (2 - i):\n        CHAN out:\n        PLACE out AT LINK0OUT:\n        out ! q\n      TRUE\n        SKIP\n",
			2, "occam:5:20: expression is not a compile-time constant"},
		{"no branch taken", "PLACED PAR i = [0 FOR 4]\n  PROCESSOR i\n    IF\n      i < 2\n        SKIP\n      i = 2\n        STOP\n",
			3, "occam:3:5: no branch of the configuration IF is true for PROCESSOR 3"},
		{"processor twice", "PLACED PAR i = [0 FOR 4]\n  PROCESSOR i / 2\n    SKIP\n",
			1, "occam:2:3: PROCESSOR 0 configured twice: for i = 0 and i = 1"},
	} {
		for _, wb := range []int{4, 2} {
			checks, err := occam.ConfiguredChecks(tc.src, occam.Options{WordBytes: wb})
			got := ""
			if err != nil {
				got = err.Error()
			}
			if got != tc.err || checks != tc.checks {
				t.Errorf("%s, %d-byte words: %d checks, error %q; want %d, %q", tc.name, wb, checks, got, tc.checks, tc.err)
			}
		}
	}
}
