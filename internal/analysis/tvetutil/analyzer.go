package tvetutil

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer is one rule of the suite: a name findings and
// suppressions refer to, a description, and the function that checks
// one package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// A Pass is one analyzer applied to one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// NewInfo returns a types.Info that records everything the analyzers
// read.  The vet driver and the fixture harness both type-check into
// one of these, so an analyzer sees the same facts under test as under
// go vet.
func NewInfo() *types.Info {
	return &types.Info{
		Types:        map[ast.Expr]types.TypeAndValue{},
		Defs:         map[*ast.Ident]types.Object{},
		Uses:         map[*ast.Ident]types.Object{},
		Implicits:    map[ast.Node]types.Object{},
		Selections:   map[*ast.SelectorExpr]*types.Selection{},
		Scopes:       map[ast.Node]*types.Scope{},
		Instances:    map[*ast.Ident]types.Instance{},
		FileVersions: map[*ast.File]string{},
	}
}

// Run applies the analyzer to one type-checked package and returns its
// findings in the order it reported them.
func Run(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) []Diagnostic {
	var diags []Diagnostic
	a.Run(&Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		Report:    func(d Diagnostic) { diags = append(diags, d) },
	})
	return diags
}

// Callee returns the object a call names — a function, method, builtin
// or func-valued variable — or nil when the call names none: a
// conversion T(x), a call of a call or of a function literal, or an
// index expression m[i]() that selects from a collection rather than
// instantiating a generic function.
func Callee(info *types.Info, call *ast.CallExpr) types.Object {
	fun := ast.Unparen(call.Fun)
	instantiated := false
	switch x := fun.(type) {
	case *ast.IndexExpr:
		fun, instantiated = ast.Unparen(x.X), true
	case *ast.IndexListExpr:
		fun, instantiated = ast.Unparen(x.X), true
	}
	// Uses holds the denoted object for a plain identifier and, under
	// its Sel, for a qualified identifier or a field or method selection.
	var obj types.Object
	switch x := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[x]
	case *ast.SelectorExpr:
		obj = info.Uses[x.Sel]
	}
	switch obj.(type) {
	case *types.TypeName:
		return nil
	case *types.Func:
		return obj
	}
	if instantiated {
		return nil
	}
	return obj
}
