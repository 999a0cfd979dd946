// Package probeguard enforces the probe bus's zero-overhead contract:
// every (*probe.Bus).Publish or PublishRef call site, and every call
// handed a probe.Event literal, must sit behind a nil-bus check.
//
// PR 1's contract is that a simulation with no bus attached pays
// nothing for instrumentation: publishers check `bus != nil` before
// building the event, so the Event literal and the call never happen on
// the detached fast path.  A Publish reached without that check either
// crashes (nil receiver is only safe by accident of the current method
// body) or quietly taxes the hot path.  Helper methods that rely on a
// documented caller-side check (core.Machine.emit, link.Engine.emit)
// carry a //tvet:ignore with that rationale.
//
// A wrapper that checks the bus itself is no way round the contract: its
// caller has already built the event — well over a hundred bytes — and
// copied it into the call before the wrapper can decline it, on every
// frame of a detached run (link's wire did exactly this).  So an Event
// literal passed to any function is held to the same rule as Publish:
// the guard goes where the event is built.
package probeguard

import (
	"go/ast"
	"go/token"

	"transputer/internal/analysis/tvetutil"
)

const doc = `require a nil-bus check in front of every probe Publish call and every probe.Event literal passed to a call

A probe.Bus publish site must be unreachable when no bus is attached:
wrap it in "if bus != nil { ... }" or return early on "bus == nil"
before it.  The same holds for any call handed a probe.Event literal: a
callee that checks the bus itself does so after the event has been built
and copied.  This keeps the detached simulator paying zero cost for
instrumentation (PR 1).  Wrappers whose callers hold the check carry
//tvet:ignore probeguard <reason>.`

// Analyzer is the probeguard analyzer.
var Analyzer = &tvetutil.Analyzer{
	Name: "probeguard",
	Doc:  doc,
	Run:  run,
}

func run(pass *tvetutil.Pass) {
	if pass.Pkg.Path() == tvetutil.ProbePath {
		return // the bus implementation itself
	}
	ig := tvetutil.NewIgnorer(pass)
	tvetutil.WalkFiles(pass, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch {
		case tvetutil.IsBusPublish(pass.TypesInfo, call):
			if !guarded(pass, call, stack) {
				tvetutil.Report(pass, ig, call.Pos(),
					"probe Publish without a nil-bus guard: wrap in `if bus != nil` or return early on `bus == nil` (zero-overhead contract; //tvet:ignore probeguard <reason> if callers hold the check)")
			}
		case passesEventLiteral(pass, call):
			if !guarded(pass, call, stack) {
				tvetutil.Report(pass, ig, call.Pos(),
					"probe.Event built and passed without a nil-bus guard: the callee's own check comes after the copy; wrap the call in `if bus != nil` (zero-overhead contract)")
			}
		}
		return true
	})
}

// passesEventLiteral reports whether an argument of the call is a
// probe.Event composite literal: an event built for this call alone.
func passesEventLiteral(pass *tvetutil.Pass, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		if lit, ok := ast.Unparen(arg).(*ast.CompositeLit); ok {
			if t := pass.TypesInfo.TypeOf(lit); t != nil && tvetutil.IsNamed(t, tvetutil.ProbePath, "Event") {
				return true
			}
		}
	}
	return false
}

// guarded reports whether the call is dominated by a nil-bus check:
// an enclosing if whose condition proves some *probe.Bus non-nil on
// the branch holding the call, or an earlier early-return on a nil
// bus in the same function.
func guarded(pass *tvetutil.Pass, call *ast.CallExpr, stack []ast.Node) bool {
	var fnBody *ast.BlockStmt
	for i := len(stack) - 1; i >= 0; i-- {
		switch v := stack[i].(type) {
		case *ast.IfStmt:
			inBody := i+1 < len(stack) && stack[i+1] == v.Body
			inElse := i+1 < len(stack) && stack[i+1] == v.Else
			if inBody && condChecksBus(pass, v.Cond, token.NEQ) {
				return true
			}
			if inElse && condChecksBus(pass, v.Cond, token.EQL) {
				return true
			}
		case *ast.FuncDecl:
			fnBody = v.Body
		case *ast.FuncLit:
			if fnBody == nil {
				fnBody = v.Body
			}
		}
		if fnBody != nil {
			break
		}
	}
	if fnBody == nil {
		return false
	}
	// Early return: "if bus == nil { ...; return }" before the call.
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found || n == nil || n.Pos() >= call.Pos() {
			return !found
		}
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		if !condChecksBus(pass, ifs.Cond, token.EQL) || len(ifs.Body.List) == 0 {
			return true
		}
		switch ifs.Body.List[len(ifs.Body.List)-1].(type) {
		case *ast.ReturnStmt, *ast.BranchStmt:
			found = true
		}
		return !found
	})
	return found
}

// condChecksBus reports whether the condition contains a comparison
// `<expr> <op> nil` (op NEQ or EQL) where <expr> has type *probe.Bus.
// For NEQ the comparison may sit anywhere in an && chain; for EQL
// anywhere in an || chain — both preserve the guarantee on the branch
// the caller asked about.
func condChecksBus(pass *tvetutil.Pass, cond ast.Expr, op token.Token) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if found {
			return false
		}
		be, ok := n.(*ast.BinaryExpr)
		if !ok || be.Op != op {
			return true
		}
		for _, pair := range [2][2]ast.Expr{{be.X, be.Y}, {be.Y, be.X}} {
			expr, other := pair[0], pair[1]
			if id, ok := other.(*ast.Ident); !ok || id.Name != "nil" {
				continue
			}
			if t := pass.TypesInfo.TypeOf(expr); t != nil && tvetutil.IsPtrToNamed(t, tvetutil.ProbePath, "Bus") {
				found = true
			}
		}
		return !found
	})
	return found
}
