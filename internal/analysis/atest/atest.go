// Package atest is the fixture harness of the tvet analyzers: it loads
// GOPATH-style fixture packages from an analyzer's testdata/src tree,
// type-checks them with the stdlib source importer (no network, no
// export data), runs the analyzer, and matches diagnostics against
// "// want" comments.
//
// Fixture layout:
//
//	<analyzer>/testdata/src/<import/path>/*.go
//
// A fixture line expecting a diagnostic carries a comment of the form
//
//	code() // want `regexp`
//
// Several backquoted regexps may follow one want.  Every diagnostic
// must be matched by a want on its line and every want must match a
// diagnostic; mismatches fail the test with positions.
//
// Fixture imports resolve inside the same testdata tree first (so a
// fixture can stub transputer/internal/probe with just the declarations
// the analyzer reasons about), then fall back to the standard library
// compiled from GOROOT source.
package atest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"transputer/internal/analysis/tvetutil"
)

// TestData returns the absolute path of the calling test's testdata
// directory.
func TestData(t *testing.T) string {
	t.Helper()
	abs, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

// Run loads each fixture package, applies the analyzer, and checks the
// diagnostics against the fixtures' want comments.
func Run(t *testing.T, testdata string, a *tvetutil.Analyzer, pkgpaths ...string) {
	t.Helper()
	ld := newLoader(testdata)
	for _, path := range pkgpaths {
		t.Run(path, func(t *testing.T) {
			pkg, err := ld.load(path)
			if err != nil {
				t.Fatalf("loading fixture %s: %v", path, err)
			}
			checkWants(t, ld.fset, pkg, tvetutil.Run(a, ld.fset, pkg.files, pkg.types, pkg.info))
		})
	}
}

// want is one expected diagnostic.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// wantRE matches "// want `re`..." and the "// want-1" form, which
// expects the diagnostic on the previous line (for diagnostics whose
// position is itself a full-line comment).
var wantRE = regexp.MustCompile("// want(-1)?((?: `[^`]*`)+)")
var backquoted = regexp.MustCompile("`([^`]*)`")

func checkWants(t *testing.T, fset *token.FileSet, pkg *fixturePkg, diags []tvetutil.Diagnostic) {
	t.Helper()
	var wants []*want
	for fname, src := range pkg.sources {
		for i, line := range strings.Split(src, "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			wline := i + 1
			if m[1] == "-1" {
				wline--
			}
			for _, q := range backquoted.FindAllStringSubmatch(m[2], -1) {
				re, err := regexp.Compile(q[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", fname, i+1, q[1], err)
				}
				wants = append(wants, &want{file: fname, line: wline, re: re, raw: q[1]})
			}
		}
	}

	for _, d := range diags {
		p := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.matched && w.file == p.Filename && w.line == p.Line && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic: %s", p.Filename, p.Line, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: want %q: no matching diagnostic", w.file, w.line, w.raw)
		}
	}
}

// fixturePkg is one loaded fixture package.
type fixturePkg struct {
	types   *types.Package
	files   []*ast.File
	info    *types.Info
	sources map[string]string // file name -> raw source, for want scanning
}

// loader resolves fixture import paths inside one testdata/src tree,
// falling back to the stdlib source importer.
type loader struct {
	root  string // testdata/src
	fset  *token.FileSet
	cache map[string]*fixturePkg
	std   types.ImporterFrom
}

func newLoader(testdata string) *loader {
	fset := token.NewFileSet()
	return &loader{
		root:  filepath.Join(testdata, "src"),
		fset:  fset,
		cache: map[string]*fixturePkg{},
		std:   importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
	}
}

// Import implements types.Importer for fixture type-checking.
func (ld *loader) Import(path string) (*types.Package, error) {
	if dir := filepath.Join(ld.root, filepath.FromSlash(path)); dirExists(dir) {
		pkg, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.types, nil
	}
	return ld.std.Import(path)
}

func dirExists(dir string) bool {
	st, err := os.Stat(dir)
	return err == nil && st.IsDir()
}

func (ld *loader) load(path string) (*fixturePkg, error) {
	if pkg, ok := ld.cache[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(ld.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}

	pkg := &fixturePkg{sources: map[string]string{}}
	for _, name := range names {
		fname := filepath.Join(dir, name)
		src, err := os.ReadFile(fname)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(ld.fset, fname, src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkg.files = append(pkg.files, f)
		pkg.sources[fname] = string(src)
	}

	pkg.info = tvetutil.NewInfo()
	conf := types.Config{Importer: ld}
	tpkg, err := conf.Check(path, ld.fset, pkg.files, pkg.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	pkg.types = tpkg
	ld.cache[path] = pkg
	return pkg, nil
}
