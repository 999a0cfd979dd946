package tvetutil

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// TestCallee pins the contract the analyzers rely on: a call names its
// function, method, builtin or func-valued variable through parentheses
// and instantiation, and a conversion or an indexed collection names
// nothing.
func TestCallee(t *testing.T) {
	const src = `package p

type T struct{ field func() }

func (T) method() {}

type conv func()

func plain()             {}
func generic[A any](A) A { var a A; return a }

func calls(t T, v func(), fns []func(), m map[string]func()) {
	plain()
	(plain)()
	t.method()
	T.method(t)
	t.field()
	v()
	generic(1)
	generic[int](1)
	(generic[int])(1)
	_ = len(fns)
	_ = conv(plain)
	fns[0]()
	m["k"]()
	func() {}()
	generic(plain)()
}
`
	want := map[string]string{
		"plain()":           "func p.plain()",
		"(plain)()":         "func p.plain()",
		"t.method()":        "func (p.T).method()",
		"T.method(t)":       "func (p.T).method()",
		"t.field()":         "field field func()",
		"v()":               "var v func()",
		"generic(1)":        "func p.generic[A any](A) A",
		"generic[int](1)":   "func p.generic[A any](A) A",
		"(generic[int])(1)": "func p.generic[A any](A) A",
		"len(fns)":          "builtin len",
		"conv(plain)":       "",
		"fns[0]()":          "",
		`m["k"]()`:          "",
		"func() {}()":       "",
		"generic(plain)()":  "",
		"generic(plain)":    "func p.generic[A any](A) A",
	}

	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := NewInfo()
	if _, err := new(types.Config).Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	seen := 0
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		text := src[fset.Position(call.Pos()).Offset:fset.Position(call.End()).Offset]
		w, ok := want[text]
		if !ok {
			t.Errorf("no expectation for call %q", text)
			return true
		}
		seen++
		got := ""
		if obj := Callee(info, call); obj != nil {
			got = obj.String()
		}
		if got != w {
			t.Errorf("Callee(%s) = %q, want %q", text, got, w)
		}
		return true
	})
	if seen != len(want) {
		t.Errorf("checked %d calls, want %d", seen, len(want))
	}
}
