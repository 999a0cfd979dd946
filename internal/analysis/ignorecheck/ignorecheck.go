// Package ignorecheck keeps the suppression mechanism honest: every
// //tvet:ignore comment must name analyzers that exist and carry a
// non-empty reason.
//
// A suppression is a recorded decision; without a reason it is just a
// muted alarm.  Reasonless or misspelled ignores do not suppress
// anything (tvetutil refuses them), so this analyzer turns them into
// findings of their own rather than silent no-ops.
package ignorecheck

import (
	"go/ast"

	"transputer/internal/analysis/tvetutil"
)

const doc = `validate //tvet:ignore suppression comments

Each suppression must have the form
"//tvet:ignore <analyzer>[,<analyzer>...] <reason>" with every named
analyzer part of the tvet suite ("all" matches any) and a non-empty
reason.  Malformed suppressions silence nothing and are flagged here.`

// Analyzer is the ignorecheck analyzer.
var Analyzer = &tvetutil.Analyzer{
	Name: "ignorecheck",
	Doc:  doc,
	Run:  run,
}

func run(pass *tvetutil.Pass) {
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				check(pass, c)
			}
		}
	}
}

func check(pass *tvetutil.Pass, c *ast.Comment) {
	ig := tvetutil.ParseIgnore(c)
	if ig == nil {
		return
	}
	if len(ig.Analyzers) == 0 {
		pass.Reportf(c.Pos(), "tvet:ignore without an analyzer name: use //tvet:ignore <analyzer> <reason>")
		return
	}
	for _, n := range ig.Analyzers {
		if n != "all" && !tvetutil.KnownAnalyzer(n) {
			pass.Reportf(c.Pos(), "tvet:ignore names unknown analyzer %q (known: %v)", n, tvetutil.AnalyzerNames)
		}
	}
	if ig.Reason == "" {
		pass.Reportf(c.Pos(), "tvet:ignore without a reason suppresses nothing: state why the finding is safe")
	}
}
