package transputer_test

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
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

// summaryNumber is a number written in EXPERIMENTS.md's summary table:
// digits, thousands commas and decimals, standing alone — not part of
// a name such as E9, T424 or figure-7.
var summaryNumber = regexp.MustCompile(`(?:^|[^\w.,-])(\d{1,3}(?:,\d{3})+|\d+)(\.\d+)?`)

// goldenNumber is any run of digits, with its decimals, in texp's output.
var goldenNumber = regexp.MustCompile(`\d+(?:\.\d+)?`)

// TestExperimentsSummary: every number in the "Measured" cell of
// EXPERIMENTS.md's summary table appears, at the precision written, in
// that experiment's section of texp.golden.  "108 us" matches 107.800
// µs, since 107.800 written without decimals is 108.
func TestExperimentsSummary(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("internal", "exp", "testdata", "texp.golden"))
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]string{}
	header := regexp.MustCompile(`^([EA]\d+): `)
	var id string
	for _, line := range strings.Split(string(golden), "\n") {
		if m := header.FindStringSubmatch(line); m != nil {
			id = m[1]
		}
		if id != "" {
			sections[id] += line + "\n"
		}
	}
	row := regexp.MustCompile(`(?m)^\| ([EA]\d+) \|[^|]*\|([^|]*)\|`)
	rows := row.FindAllStringSubmatch(string(doc), -1)
	if len(rows) == 0 {
		t.Fatal("EXPERIMENTS.md has no summary rows")
	}
	for _, r := range rows {
		id, measured := r[1], strings.ReplaceAll(r[2], "..", " .. ")
		section, ok := sections[id]
		if !ok {
			t.Errorf("%s: no section of texp.golden", id)
			continue
		}
		for _, m := range summaryNumber.FindAllStringSubmatch(measured, -1) {
			written := strings.ReplaceAll(m[1], ",", "") + m[2]
			decimals := max(len(m[2])-1, 0)
			found := false
			for _, g := range goldenNumber.FindAllString(section, -1) {
				v, err := strconv.ParseFloat(g, 64)
				if err == nil && strconv.FormatFloat(v, 'f', decimals, 64) == written {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: %q in the summary's Measured cell is not in texp.golden's %s section", id, strings.TrimSpace(m[0]), id)
			}
		}
	}
}
