package occam

import (
	"math/rand"
	"testing"
)

// Properties of the expression-shape analysis that drives spill-slot
// allocation: after spilling, no expression claims more than the three
// evaluation-stack registers, and temporaries stay bounded by the
// expression depth.

// variable is a leaf that does not fold: a constant, or an operation
// on constants, is loaded with one ldc whatever its shape.
func variable() expr { return &nameExpr{sym: &symbol{kind: symVar}} }

func randomExpr(rng *rand.Rand, depth int) expr {
	if depth == 0 || rng.Intn(4) == 0 {
		if rng.Intn(2) == 0 {
			return variable()
		}
		return &numberExpr{val: int64(rng.Intn(100))}
	}
	return &binaryExpr{
		op:    []string{"+", "-", "*"}[rng.Intn(3)],
		left:  randomExpr(rng, depth-1),
		right: randomExpr(rng, depth-1),
	}
}

func depthOf(e expr) int {
	if b, ok := e.(*binaryExpr); ok {
		l, r := depthOf(b.left), depthOf(b.right)
		if r > l {
			l = r
		}
		return l + 1
	}
	return 0
}

func TestExprShapeProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1985))
	for i := 0; i < 2000; i++ {
		e := randomExpr(rng, 1+rng.Intn(6))
		need, temps := exprShape(e, 4)
		if need < 1 || need > 3 {
			t.Fatalf("need = %d for depth-%d expression", need, depthOf(e))
		}
		if temps < 0 || temps > depthOf(e) {
			t.Fatalf("temps = %d exceeds depth %d", temps, depthOf(e))
		}
	}
}

// TestExprShapeKnownCases pins the table the generator's spill decision
// relies on.
func TestExprShapeKnownCases(t *testing.T) {
	leaf := variable
	bin := func(l, r expr) expr { return &binaryExpr{op: "+", left: l, right: r} }

	if n, tp := exprShape(leaf(), 4); n != 1 || tp != 0 {
		t.Errorf("leaf = (%d,%d)", n, tp)
	}
	// Left-deep chains stay within two slots.
	ld := bin(bin(bin(leaf(), leaf()), leaf()), leaf())
	if n, tp := exprShape(ld, 4); n != 2 || tp != 0 {
		t.Errorf("left-deep = (%d,%d), want (2,0)", n, tp)
	}
	// Right-deep depth 2 fits without spilling.
	rd2 := bin(leaf(), bin(leaf(), leaf()))
	if n, tp := exprShape(rd2, 4); n != 3 || tp != 0 {
		t.Errorf("right-deep 2 = (%d,%d), want (3,0)", n, tp)
	}
	// Right-deep depth 3 forces one spill under left-first evaluation:
	// the left operand occupies a register while the depth-2 right
	// side needs all three.
	rd3 := bin(leaf(), rd2)
	if n, tp := exprShape(rd3, 4); n > 3 || tp != 1 {
		t.Errorf("right-deep 3 = (%d,%d), want need<=3 temps 1", n, tp)
	}
	// Balanced depth 4 trees spill at most twice.
	full := bin(bin(rd2, rd3), bin(rd3, rd2))
	if n, tp := exprShape(full, 4); n > 3 || tp > 3 {
		t.Errorf("balanced = (%d,%d)", n, tp)
	}
}

// TestFrameSizing: frames grow monotonically with declarations and
// nesting, and every compile reports positive workspace needs.
func TestFrameSizing(t *testing.T) {
	compileFor := func(src string) *Compiled {
		c, err := Compile(src, Options{})
		if err != nil {
			t.Fatalf("%v\n%s", err, src)
		}
		return c
	}
	small := compileFor("VAR a:\na := 1\n")
	big := compileFor("VAR a, b[20]:\nSEQ\n  a := 1\n  b[0] := 2\n")
	if big.Above <= small.Above {
		t.Errorf("above: %d should exceed %d", big.Above, small.Above)
	}
	deep := compileFor(`PROC leaf(VAR r) =
  r := 1
:
PROC mid(VAR r) =
  leaf(r)
:
VAR x:
mid(x)
`)
	shallow := compileFor(`PROC leaf(VAR r) =
  r := 1
:
VAR x:
leaf(x)
`)
	if deep.Below <= shallow.Below {
		t.Errorf("call depth: %d should exceed %d", deep.Below, shallow.Below)
	}
	par := compileFor("CHAN c:\nVAR v:\nPAR\n  c ! 1\n  c ? v\n")
	if par.Below <= small.Below {
		t.Errorf("PAR components should deepen the workspace: %d vs %d", par.Below, small.Below)
	}
}
