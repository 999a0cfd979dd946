// Package cyclefree keeps link-clocked probe events free of machine
// cycle stamps.
//
// The receiving CPU runs asynchronously to its link hardware: what the
// machine cycle counter reads at a wire instant depends on how the
// simulator batched instructions (the block cache, PR 4/5), not on
// architecture.  Events published at link instants — the flow/arrive
// family — therefore must not carry a Cycles stamp, and must go to the
// bus directly rather than through a stamping wrapper like
// link.Engine.emit (which sets Cycles unconditionally).  CPU-clocked
// events (dispatch, preempt, rendezvous) are exact at any batching and
// stay stamped.
package cyclefree

import (
	"go/ast"

	"transputer/internal/analysis/tvetutil"
)

const doc = `forbid machine cycle stamps on link-clocked probe events

Events of the flow/arrive family (FlowArrive, Heartbeat, the vchan
kinds) are clocked by link hardware, and the CPU cycle counter at those
instants is a block-cache artifact.  Such events must not set the
Cycles field and must be passed directly to (*probe.Bus).Publish, not
to a wrapper that stamps Cycles (link.Engine.emit).`

// Analyzer is the cyclefree analyzer.
var Analyzer = &tvetutil.Analyzer{
	Name: "cyclefree",
	Doc:  doc,
	Run:  run,
}

// family is the set of probe.Kind constants whose events are published
// from link-hardware instants and must stay cycle-stamp-free.
var family = map[string]bool{
	"FlowArrive":   true,
	"Heartbeat":    true,
	"VChanChunk":   true,
	"VChanCredit":  true,
	"VChanDeliver": true,
}

func run(pass *tvetutil.Pass) {
	ig := tvetutil.NewIgnorer(pass)
	tvetutil.WalkFiles(pass, func(n ast.Node, stack []ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		t := pass.TypesInfo.TypeOf(lit)
		if t == nil || !tvetutil.IsNamed(t, tvetutil.ProbePath, "Event") {
			return true
		}
		kind, _ := literalKind(pass, lit)
		if kind == "" || !family[kind] {
			return true
		}
		for _, el := range lit.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Cycles" {
				tvetutil.Report(pass, ig, kv.Pos(),
					"%s is link-clocked: its Cycles stamp is a block-cache artifact, drop the field", kind)
			}
		}
		// The literal must flow straight into (*probe.Bus).Publish; any
		// other call may stamp Cycles behind our back (Engine.emit does).
		if call, argOf := enclosingCall(stack, lit); call != nil && argOf && !tvetutil.IsBusPublish(pass.TypesInfo, call) {
			tvetutil.Report(pass, ig, lit.Pos(),
				"%s is link-clocked and must be published directly via (*probe.Bus).Publish, not through a wrapper that may stamp Cycles", kind)
		}
		return true
	})
}

// literalKind returns the name of the probe.Kind constant assigned to
// the literal's Kind field, or "" when absent or not a named constant.
func literalKind(pass *tvetutil.Pass, lit *ast.CompositeLit) (string, ast.Expr) {
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok || key.Name != "Kind" {
			continue
		}
		switch v := kv.Value.(type) {
		case *ast.SelectorExpr:
			if obj := pass.TypesInfo.Uses[v.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == tvetutil.ProbePath {
				return v.Sel.Name, kv.Value
			}
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[v]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == tvetutil.ProbePath {
				return v.Name, kv.Value
			}
		}
		return "", kv.Value
	}
	return "", nil
}

// enclosingCall returns the innermost call expression having lit (or a
// unary &lit) as a direct argument.
func enclosingCall(stack []ast.Node, lit *ast.CompositeLit) (*ast.CallExpr, bool) {
	var arg ast.Node = lit
	for i := len(stack) - 2; i >= 0; i-- {
		switch v := stack[i].(type) {
		case *ast.UnaryExpr:
			arg = v
			continue
		case *ast.CallExpr:
			for _, a := range v.Args {
				if a == arg {
					return v, true
				}
			}
			return v, false
		}
		return nil, false
	}
	return nil, false
}
