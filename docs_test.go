package transputer_test

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// designRef finds a reference to a numbered section of DESIGN.md.  The
// text it runs on has comment continuations joined, so a reference
// wrapped across comment lines is found too.
var designRef = regexp.MustCompile(`DESIGN\.md,?\s+§(\d+)`)

// commentWrap is a line break inside a // comment.
var commentWrap = regexp.MustCompile(`\n\s*//\s*`)

// TestDesignReferencesResolve: every "DESIGN.md §N" in the Go sources,
// README.md, EXPERIMENTS.md and the verify skill names a "## N."
// heading of DESIGN.md.
func TestDesignReferencesResolve(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^## (\d+)\. `).FindAllSubmatch(design, -1) {
		sections[string(m[1])] = true
	}
	files := []string{"README.md", "EXPERIMENTS.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	refs := 0
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		text := commentWrap.ReplaceAllString(string(b), " ")
		for _, m := range designRef.FindAllStringSubmatch(text, -1) {
			refs++
			if !sections[m[1]] {
				t.Errorf("%s: %q names no section of DESIGN.md", f, m[0])
			}
		}
	}
	if refs == 0 {
		t.Error("no DESIGN.md section reference found: the pattern no longer matches what the sources write")
	}
}

// TestExperimentsRecordedRun: EXPERIMENTS.md's recorded run is the
// golden texp output, byte for byte (TestTexpGolden holds texp to the
// golden file).
func TestExperimentsRecordedRun(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("internal", "exp", "testdata", "texp.golden"))
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := bytes.Cut(doc, []byte("Recorded run"))
	if ok {
		_, rest, ok = bytes.Cut(rest, []byte("```\n"))
	}
	var block []byte
	if ok {
		block, _, ok = bytes.Cut(rest, []byte("```"))
	}
	if !ok {
		t.Fatal("EXPERIMENTS.md has no fenced block after \"Recorded run\"")
	}
	if !bytes.Equal(block, golden) {
		t.Error("EXPERIMENTS.md's recorded run differs from internal/exp/testdata/texp.golden; paste the golden file into it")
	}
}
