package analysis

import (
	"os"
	"path/filepath"
	"testing"

	"transputer/internal/analysis/tvetutil"
)

// TestRegistry asserts the suite's own hygiene: every registered
// analyzer has a non-empty Doc, a name registered with tvetutil (so
// ignorecheck accepts suppressions naming it), and fixtures for atest
// under <name>/testdata/src.
func TestRegistry(t *testing.T) {
	if len(All) < 5 {
		t.Fatalf("tvet suite has %d analyzers, want at least 5", len(All))
	}
	seen := map[string]bool{}
	for _, a := range All {
		if a.Name == "" {
			t.Fatalf("analyzer with empty name: %v", a)
		}
		if seen[a.Name] {
			t.Errorf("analyzer %q registered twice", a.Name)
		}
		seen[a.Name] = true
		if a.Doc == "" {
			t.Errorf("analyzer %q has an empty Doc", a.Name)
		}
		if !tvetutil.KnownAnalyzer(a.Name) {
			t.Errorf("analyzer %q missing from tvetutil.AnalyzerNames (ignorecheck would reject its suppressions)", a.Name)
		}
		fixtures := filepath.Join(a.Name, "testdata", "src")
		st, err := os.Stat(fixtures)
		if err != nil || !st.IsDir() {
			t.Errorf("analyzer %q has no fixture tree at internal/analysis/%s", a.Name, fixtures)
			continue
		}
		entries, err := os.ReadDir(fixtures)
		if err != nil || len(entries) == 0 {
			t.Errorf("analyzer %q has an empty fixture tree at internal/analysis/%s", a.Name, fixtures)
		}
	}
	for _, n := range tvetutil.AnalyzerNames {
		if !seen[n] {
			t.Errorf("tvetutil.AnalyzerNames lists %q but the registry does not include it", n)
		}
	}
}
