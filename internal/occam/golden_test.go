package occam_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"go/ast"
	"go/parser"
	"go/token"
	"hash"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"transputer/internal/apps/dbsearch"
	"transputer/internal/core"
	"transputer/internal/occam"
)

// goldenDigestFile holds the sha256 of everything the compiler makes
// of goldenSources: a change to the compiler that moves one byte of
// one image, one workspace figure, one source mark or one word of one
// diagnostic changes it.
const goldenDigestFile = "testdata/images.sha256"

// goldenOrdering are sources with errors of two kinds, where which one
// is reported depends on the order the front end finds them in: a lex
// error anywhere wins over a parse error before it, and a parse error
// wins over a check or usage error.
var goldenOrdering = []string{
	"SEQ\n  x :=\n  y := 'ab'\n",
	"x +\nSEQ\n   SKIP\n",
	"PAR\n  SKIP\n\tSKIP\n",
	"VAR x:\nPAR\n  x := 1\n  x := 2\nSEQ\n  y := #\n",
	"VAR x:\nPAR\n  x := 1\n  x := 2\n  x :=\n",
	"SEQ\n  z := 1\n  SKIP SKIP\n  \"open\n",
	"CHAN c:\nPAR\n  c ! 1\n  c ! 2\n  c ? ANY\n",
	"VAR a[4]:\nPAR\n  a[1] := 1\n  a[2] := 2\n  a[1] := 3\n",
	// Two entities conflict; the one named is first by declaration
	// line, then column, then the whole array before its elements.
	"VAR x:\nVAR y:\nPAR\n  SEQ\n    y := 1\n    x := 1\n  SEQ\n    y := 2\n    x := 2\n",
	"VAR b, a:\nPAR\n  SEQ\n    a := 1\n    b := 1\n  SEQ\n    a := 2\n    b := 2\n",
	"CHAN d, c:\nVAR v:\nPAR\n  SEQ\n    c ? v\n    d ? v\n  SEQ\n    c ? ANY\n    d ? ANY\n",
	"VAR i, a[4]:\nPAR\n  SEQ\n    a[1] := 1\n    a[i] := 2\n  a[1] := 3\n",
}

// goldenSources is the corpus the digest covers: occamSeeds, every
// node program of the 128-transputer search, every string literal of
// the package's parser, checker, usage and execution tests (their
// error cases among them), and goldenOrdering.
func goldenSources(tb testing.TB) []string {
	tb.Helper()
	srcs := occamSeeds(tb)
	p := dbsearch.Defaults128()
	for r := 0; r < p.Rows; r++ {
		for c := 0; c < p.Cols; c++ {
			srcs = append(srcs, dbsearch.NodeSource(p, r, c))
		}
	}
	for _, name := range []string{"lexer_test.go", "parser_test.go", "check_test.go", "usage_test.go", "exec_test.go"} {
		file, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			tb.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				src, err := strconv.Unquote(lit.Value)
				if err != nil {
					tb.Fatal(err)
				}
				srcs = append(srcs, src)
			}
			return true
		})
	}
	return append(srcs, goldenOrdering...)
}

// digestWriter frames every value it hashes, so that no two different
// sequences of values hash alike.
type digestWriter struct{ h hash.Hash }

func (d digestWriter) int(v int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
	d.h.Write(b[:])
}

func (d digestWriter) bytes(b []byte) {
	d.int(len(b))
	d.h.Write(b)
}

func (d digestWriter) err(err error) {
	d.int(-1)
	d.bytes([]byte(err.Error()))
}

func (d digestWriter) image(img core.Image) {
	d.bytes(img.Code)
	d.int(img.Entry)
	d.int(img.DataBytes)
	d.int(img.WsBelow)
	d.int(img.WsAbove)
	d.int(len(img.Marks))
	for _, m := range img.Marks {
		d.int(m.Offset)
		d.int(m.Line)
	}
}

func (d digestWriter) compiled(c *occam.Compiled) {
	d.image(c.Image)
	d.int(c.Above)
	d.int(c.Below)
}

// compiledImagesDigest compiles every golden source at both word
// lengths, alone and as a configured program, and hashes the outcome.
func compiledImagesDigest(tb testing.TB) (string, int) {
	srcs := goldenSources(tb)
	d := digestWriter{sha256.New()}
	for _, src := range srcs {
		d.bytes([]byte(src))
		for _, wb := range []int{4, 2} {
			opt := occam.Options{WordBytes: wb}
			if c, err := occam.Compile(src, opt); err != nil {
				d.err(err)
			} else {
				d.compiled(c)
			}
			procs, err := occam.CompileConfigured(src, opt)
			if err != nil {
				d.err(err)
				continue
			}
			d.int(len(procs))
			for _, p := range procs {
				d.int(int(p.ID))
				d.compiled(p.Compiled)
			}
		}
	}
	return hex.EncodeToString(d.h.Sum(nil)), len(srcs)
}

// TestCompiledImagesGolden pins what the compiler makes of a fixed
// corpus: code, entry, workspace requirements, source marks and the
// text of every diagnostic, at word lengths 4 and 2.  A compiler
// change that is meant to keep every image byte-identical must leave
// the digest alone; one that is meant to change output prints the line
// that would replace the checked-in one.
func TestCompiledImagesGolden(t *testing.T) {
	got, n := compiledImagesDigest(t)
	want, err := os.ReadFile(filepath.FromSlash(goldenDigestFile))
	if err != nil {
		t.Fatal(err)
	}
	if line := got + "\n"; line != string(want) {
		t.Fatalf("the compiler's output for %d sources changed:\n  %s holds %s  now %s",
			n, goldenDigestFile, strings.TrimSpace(string(want)), got)
	}
}
