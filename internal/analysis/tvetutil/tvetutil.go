// Package tvetutil carries the machinery shared by the tvet analyzers:
// the Analyzer and Pass types they are written against, the set of
// deterministic packages, the //tvet:ignore suppression convention, and
// small AST helpers.
//
// Deterministic packages are the ones whose observable outputs (traces,
// stats, flow tables, tool output) are pinned byte-identical across
// worker counts, partitions and the block cache.  Code in them must not
// consult any order or clock the simulation does not own: map iteration
// order, wall clocks, the process environment, or the global random
// source.  The analyzers in the sibling packages mechanize those rules;
// this package decides where they apply and how a finding is silenced.
//
// Suppression: a finding is silenced by a comment of the form
//
//	//tvet:ignore <analyzer>[,<analyzer>...] <reason>
//
// on the flagged line, on the line directly above it, or in the doc
// comment of the enclosing function (which silences the whole function).
// The reason is mandatory; a bare //tvet:ignore never suppresses
// anything and is itself flagged by the ignorecheck analyzer.
package tvetutil

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// IgnoreMarker is the comment prefix that silences a tvet finding.
const IgnoreMarker = "//tvet:ignore"

// AnalyzerNames lists every analyzer in the tvet suite.  The registry
// test asserts it matches the registered analyzers; ignorecheck uses it
// to reject suppressions naming analyzers that do not exist.
var AnalyzerNames = []string{
	"cyclefree",
	"detrange",
	"ignorecheck",
	"nondetsource",
	"probeguard",
}

// KnownAnalyzer reports whether name is an analyzer of the suite.
func KnownAnalyzer(name string) bool {
	for _, n := range AnalyzerNames {
		if n == name {
			return true
		}
	}
	return false
}

// detPackages is the set of import paths whose code must behave
// deterministically (see the package comment).
var detPackages = map[string]bool{
	"transputer/internal/core":    true,
	"transputer/internal/sim":     true,
	"transputer/internal/network": true,
	"transputer/internal/link":    true,
	"transputer/internal/route":   true,
	"transputer/internal/occam":   true,
	// Packages that render what CI compares byte for byte: texp's tables
	// and the applications they run, the tools' reports, probe documents,
	// fault plans, chaos artifacts.
	"transputer/internal/exp":              true,
	"transputer/internal/tool":             true,
	"transputer/internal/probe":            true,
	"transputer/internal/fault":            true,
	"transputer/internal/chaos":            true,
	"transputer/internal/apps/dbsearch":    true,
	"transputer/internal/apps/sieve":       true,
	"transputer/internal/apps/systolic":    true,
	"transputer/internal/apps/workstation": true,
}

// IsDetPackage reports whether the import path names a deterministic
// package.  The ".test" and "_test" variants vet constructs for test
// runs count as their base package; test files themselves are excluded
// separately (see InTestFile).
func IsDetPackage(path string) bool {
	path = strings.TrimSuffix(path, ".test")
	path = strings.TrimSuffix(path, "_test")
	return detPackages[path]
}

// InTestFile reports whether pos lies in a _test.go file.  Tests may
// range over maps and read clocks freely: determinism rules bind the
// simulator, not its proofs.
func InTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// Ignore is one parsed //tvet:ignore comment.
type Ignore struct {
	Analyzers []string // analyzer names the comment silences
	Reason    string   // non-empty free text; empty marks a malformed comment
	Pos       token.Pos
}

// ParseIgnore parses a comment's text.  It returns nil if the comment
// is not a tvet:ignore marker at all, and a (possibly malformed — no
// analyzers or no reason) Ignore otherwise.
func ParseIgnore(c *ast.Comment) *Ignore {
	if !strings.HasPrefix(c.Text, IgnoreMarker) {
		return nil
	}
	rest := strings.TrimPrefix(c.Text, IgnoreMarker)
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return nil // some other word: //tvet:ignoreXYZ
	}
	ig := &Ignore{Pos: c.Pos()}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return ig
	}
	for _, n := range strings.Split(fields[0], ",") {
		if n != "" {
			ig.Analyzers = append(ig.Analyzers, n)
		}
	}
	ig.Reason = strings.Join(fields[1:], " ")
	return ig
}

func (ig *Ignore) covers(name string) bool {
	if ig.Reason == "" {
		return false // a reasonless suppression suppresses nothing
	}
	for _, n := range ig.Analyzers {
		if n == name || n == "all" {
			return true
		}
	}
	return false
}

// span is a suppressed position range (func-level suppressions).
type span struct {
	lo, hi token.Pos
	ig     *Ignore
}

// Ignorer indexes the //tvet:ignore comments of one pass.
type Ignorer struct {
	fset   *token.FileSet
	byLine map[string][]*Ignore // "file:line" of the lines a comment covers
	spans  []span
}

// NewIgnorer scans the files of a pass for suppression comments.  A
// line comment covers its own line and the next; a comment inside a
// function declaration's doc group covers the whole function.
func NewIgnorer(pass *Pass) *Ignorer {
	in := &Ignorer{fset: pass.Fset, byLine: map[string][]*Ignore{}}
	for _, f := range pass.Files {
		fname := pass.Fset.Position(f.Pos()).Filename
		docs := map[*ast.CommentGroup]bool{}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if ok && fd.Doc != nil {
				docs[fd.Doc] = true
				for _, c := range fd.Doc.List {
					if ig := ParseIgnore(c); ig != nil {
						in.spans = append(in.spans, span{fd.Pos(), fd.End(), ig})
					}
				}
			}
		}
		for _, cg := range f.Comments {
			if docs[cg] {
				continue
			}
			for _, c := range cg.List {
				ig := ParseIgnore(c)
				if ig == nil {
					continue
				}
				line := pass.Fset.Position(c.Pos()).Line
				for _, l := range []int{line, line + 1} {
					key := lineKey(fname, l)
					in.byLine[key] = append(in.byLine[key], ig)
				}
			}
		}
	}
	return in
}

func lineKey(file string, line int) string {
	var b strings.Builder
	b.WriteString(file)
	b.WriteByte(':')
	// Small manual itoa keeps this allocation-light; lines are small.
	var buf [12]byte
	i := len(buf)
	n := line
	if n == 0 {
		i--
		buf[i] = '0'
	}
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	b.Write(buf[i:])
	return b.String()
}

// Suppressed reports whether a finding of the named analyzer at pos is
// silenced by an ignore comment.
func (in *Ignorer) Suppressed(name string, pos token.Pos) bool {
	p := in.fset.Position(pos)
	for _, ig := range in.byLine[lineKey(p.Filename, p.Line)] {
		if ig.covers(name) {
			return true
		}
	}
	for _, s := range in.spans {
		if s.lo <= pos && pos < s.hi && s.ig.covers(name) {
			return true
		}
	}
	return false
}

// Report emits a diagnostic unless it is suppressed or sits in a test
// file.
func Report(pass *Pass, in *Ignorer, pos token.Pos, format string, args ...interface{}) {
	if InTestFile(pass.Fset, pos) || in.Suppressed(pass.Analyzer.Name, pos) {
		return
	}
	pass.Reportf(pos, format, args...)
}

// IsPtrToNamed reports whether t is a pointer to the named type
// pkgpath.name.
func IsPtrToNamed(t types.Type, pkgpath, name string) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgpath
}

// IsNamed reports whether t (after pointer stripping) is the named type
// pkgpath.name.
func IsNamed(t types.Type, pkgpath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgpath
}

// WalkFiles runs fn over every non-test syntax tree of the pass with a
// stack of enclosing nodes: stack[0] is the file, stack[len-1] the node
// itself.  Return false from fn to skip the node's children.
func WalkFiles(pass *Pass, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			if !fn(n, stack) {
				// Children skipped: pop now, the nil callback will not come.
				stack = stack[:len(stack)-1]
				return false
			}
			return true
		})
	}
}

// IsBusPublish reports whether the call publishes on a probe bus:
// (*probe.Bus).Publish or its by-reference twin PublishRef.
func IsBusPublish(info *types.Info, call *ast.CallExpr) bool {
	fn := Callee(info, call)
	if fn == nil || fn.Name() != "Publish" && fn.Name() != "PublishRef" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil && IsPtrToNamed(sig.Recv().Type(), ProbePath, "Bus")
}

// ProbePath is the import path of the probe package whose Bus the
// probeguard and cyclefree analyzers reason about.
const ProbePath = "transputer/internal/probe"
