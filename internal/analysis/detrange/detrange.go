// Package detrange flags iteration order the simulator does not own:
// range over a map, and select over several channels, inside the
// deterministic packages.
//
// Map iteration order is randomized by the runtime, and a select with
// several ready channels picks uniformly at random — both feed
// scheduler- or hash-dependent order straight into code whose outputs
// are pinned byte-identical across worker counts and partitions.  A
// map range is allowed when its body is provably order-insensitive
// (commutative accumulation, map/set writes) or when it only collects
// keys that a later statement of the same function sorts.  Anything
// else needs a sort or a //tvet:ignore with a reason.
package detrange

import (
	"go/ast"
	"go/token"
	"go/types"

	"transputer/internal/analysis/tvetutil"
)

const doc = `flag range over maps and multi-way selects in deterministic packages

Map iteration order and multi-channel select order are runtime-random.
In the deterministic packages (the engine and everything that renders
compared output; tvetutil.IsDetPackage) they leak nondeterminism into
outputs that are pinned byte-identical
across worker counts, partitions and the block cache.  Sort the keys
first, restructure, or suppress with //tvet:ignore detrange <reason>.`

// Analyzer is the detrange analyzer.
var Analyzer = &tvetutil.Analyzer{
	Name: "detrange",
	Doc:  doc,
	Run:  run,
}

func run(pass *tvetutil.Pass) {
	if !tvetutil.IsDetPackage(pass.Pkg.Path()) {
		return
	}
	ig := tvetutil.NewIgnorer(pass)
	tvetutil.WalkFiles(pass, func(n ast.Node, stack []ast.Node) bool {
		switch v := n.(type) {
		case *ast.RangeStmt:
			t := pass.TypesInfo.TypeOf(v.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if orderInsensitive(pass, v, stack) {
				return true
			}
			tvetutil.Report(pass, ig, v.Pos(),
				"range over map: iteration order is runtime-random in a deterministic package; sort the keys first (or //tvet:ignore detrange <reason>)")
		case *ast.SelectStmt:
			comms := 0
			for _, cl := range v.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok && cc.Comm != nil {
					comms++
				}
			}
			if comms >= 2 {
				tvetutil.Report(pass, ig, v.Pos(),
					"select over %d channels picks at random when several are ready; deterministic packages must impose their own order", comms)
			}
		}
		return true
	})
}

// orderInsensitive reports whether the range body cannot observe the
// iteration order: every statement is commutative accumulation, a
// map/set write, or an append whose slice a later statement of the
// same function sorts.
func orderInsensitive(pass *tvetutil.Pass, rs *ast.RangeStmt, stack []ast.Node) bool {
	var appended []*ast.Ident
	if !insensitiveStmts(pass, rs.Body.List, &appended) {
		return false
	}
	if len(appended) == 0 {
		return true
	}
	// Collect-then-sort: every appended slice must be sorted (or
	// handed to a sorting call) after the loop, inside the enclosing
	// function.
	fn := enclosingFuncBody(stack)
	if fn == nil {
		return false
	}
	for _, id := range appended {
		if !sortedAfter(pass, fn, id, rs.End()) {
			return false
		}
	}
	return true
}

func insensitiveStmts(pass *tvetutil.Pass, stmts []ast.Stmt, appended *[]*ast.Ident) bool {
	for _, s := range stmts {
		if !insensitiveStmt(pass, s, appended) {
			return false
		}
	}
	return true
}

func insensitiveStmt(pass *tvetutil.Pass, s ast.Stmt, appended *[]*ast.Ident) bool {
	switch v := s.(type) {
	case *ast.IncDecStmt:
		return true
	case *ast.BranchStmt:
		return v.Tok == token.CONTINUE || v.Tok == token.BREAK
	case *ast.ExprStmt:
		// delete(m, k) is commutative; nothing else is known to be.
		call, ok := v.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" && isBuiltin(pass, id) {
			return true
		}
		return false
	case *ast.IfStmt:
		if v.Init != nil {
			return false
		}
		if !insensitiveStmts(pass, v.Body.List, appended) {
			return false
		}
		switch e := v.Else.(type) {
		case nil:
			return true
		case *ast.BlockStmt:
			return insensitiveStmts(pass, e.List, appended)
		case *ast.IfStmt:
			return insensitiveStmt(pass, e, appended)
		}
		return false
	case *ast.AssignStmt:
		if len(v.Lhs) != 1 || len(v.Rhs) != 1 {
			return false
		}
		switch v.Tok {
		case token.ADD_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
			// Commutative only over integers: string += and float +=
			// depend on order (concatenation, rounding).
			t := pass.TypesInfo.TypeOf(v.Lhs[0])
			if t == nil {
				return false
			}
			b, ok := t.Underlying().(*types.Basic)
			return ok && b.Info()&types.IsInteger != 0
		case token.ASSIGN:
			// m[k] = v: map writes commute when each key is visited once.
			if _, ok := v.Lhs[0].(*ast.IndexExpr); ok {
				idx := v.Lhs[0].(*ast.IndexExpr)
				if t := pass.TypesInfo.TypeOf(idx.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						return true
					}
				}
				return false
			}
			// s = append(s, ...): allowed if s is sorted after the loop.
			id, ok := v.Lhs[0].(*ast.Ident)
			if !ok {
				return false
			}
			call, ok := v.Rhs[0].(*ast.CallExpr)
			if !ok {
				return false
			}
			fun, ok := call.Fun.(*ast.Ident)
			if !ok || fun.Name != "append" || !isBuiltin(pass, fun) {
				return false
			}
			if len(call.Args) < 1 {
				return false
			}
			if first, ok := call.Args[0].(*ast.Ident); !ok || first.Obj != id.Obj {
				return false
			}
			*appended = append(*appended, id)
			return true
		}
		return false
	}
	return false
}

// sortedAfter reports whether some statement after pos in the function
// body passes the identifier to a sort: sort.X(id...), slices.SortX(id,
// ...), or a method/function call whose name contains "sort"/"Sort".
func sortedAfter(pass *tvetutil.Pass, body *ast.BlockStmt, id *ast.Ident, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found || n == nil || n.End() <= pos {
			return !found
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if !isSortCall(call.Fun) {
			return true
		}
		for _, a := range call.Args {
			if aid, ok := a.(*ast.Ident); ok && aid.Obj == id.Obj {
				found = true
			}
		}
		return !found
	})
	return found
}

func isBuiltin(pass *tvetutil.Pass, id *ast.Ident) bool {
	_, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}

func isSortCall(fun ast.Expr) bool {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if pkg, ok := sel.X.(*ast.Ident); ok && (pkg.Name == "sort" || pkg.Name == "slices") {
		return true
	}
	name := sel.Sel.Name
	return name == "Sort" || name == "sort"
}

func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncDecl:
			return f.Body
		case *ast.FuncLit:
			return f.Body
		}
	}
	return nil
}
