package occam

import (
	"fmt"
	"strings"
	"testing"
)

// Checker diagnostics: each bad program must fail with a message that
// names the problem.

func rejectWith(t *testing.T, src, fragment string) {
	t.Helper()
	_, err := Compile(src, Options{})
	if err == nil {
		t.Fatalf("should be rejected:\n%s", src)
	}
	if !strings.Contains(err.Error(), fragment) {
		t.Fatalf("error %q does not mention %q", err.Error(), fragment)
	}
}

func TestCheckUndeclared(t *testing.T) {
	rejectWith(t, "x := 1\n", "undeclared")
	rejectWith(t, "VAR x:\nx := y\n", "undeclared")
	rejectWith(t, "c ! 1\n", "undeclared channel")
}

func TestCheckKindMismatches(t *testing.T) {
	rejectWith(t, "VAR x:\nx ! 1\n", "not a channel")
	rejectWith(t, "VAR x:\nx ? x\n", "not a channel")
	rejectWith(t, "CHAN c:\nc := 1\n", "not a variable")
	rejectWith(t, "CHAN c:\nVAR x:\nx := c\n", "cannot appear in an expression")
	rejectWith(t, "DEF n = 3:\nn := 4\n", "not a variable")
}

func TestCheckArrayMisuse(t *testing.T) {
	rejectWith(t, "VAR x:\nSEQ\n  x[0] := 1\n", "not an array")
	rejectWith(t, "VAR a[0]:\nSKIP\n", "positive")
	rejectWith(t, "VAR n, a[n]:\nSKIP\n", "constant")
	rejectWith(t, "CHAN c:\nVAR v:\nc[0] ? v\n", "not a channel array")
}

func TestCheckProcErrors(t *testing.T) {
	rejectWith(t, "PROC p(VALUE a) =\n  SKIP\n:\np(1, 2)\n", "takes 1 arguments")
	rejectWith(t, "PROC p(VAR a) =\n  a := 1\n:\np(3)\n", "must be a variable")
	rejectWith(t, "PROC p(CHAN c) =\n  c ! 1\n:\nVAR x:\np(x)\n", "not a channel")
	rejectWith(t, "q(1)\n", "not a PROC")
	// No recursion: the PROC's own name is not in scope in its body.
	rejectWith(t, "PROC p() =\n  p()\n:\np()\n", "not a PROC")
	// A VALUE scalar parameter cannot be assigned.
	rejectWith(t, "PROC p(VALUE a) =\n  a := 1\n:\np(1)\n", "cannot assign")
}

func TestCheckProcOuterCapture(t *testing.T) {
	rejectWith(t, "VAR x:\nPROC p() =\n  x := 1\n:\np()\n", "undeclared")
	rejectWith(t, "CHAN c:\nPROC p() =\n  c ! 1\n:\np()\n", "undeclared")
	// Constants remain visible inside PROCs.
	mustCompile(t, "DEF k = 9:\nPROC p(CHAN out) =\n  out ! k\n:\nCHAN c:\nVAR v:\nPAR\n  p(c)\n  c ? v\n")
}

func TestCheckPlaceErrors(t *testing.T) {
	rejectWith(t, "VAR x:\nPLACE x AT 5:\nSKIP\n", "needs a channel")
	rejectWith(t, "CHAN c[2]:\nPLACE c AT 5:\nSKIP\n", "channel array")
	rejectWith(t, "VAR n:\nCHAN c:\nPLACE c AT n:\nc ! 1\n", "constant")
}

func TestCheckReplicatedParConstraints(t *testing.T) {
	rejectWith(t, "VAR n:\nSEQ\n  n := 2\n  PAR i = [0 FOR n]\n    SKIP\n", "compile-time count")
	rejectWith(t, "PAR i = [0 FOR 0]\n  SKIP\n", "positive")
}

func TestCheckAltConstraints(t *testing.T) {
	rejectWith(t, "CHAN c:\nVAR v:\nALT\n  c ? v\n    SKIP\n  TIME ? v\n    SKIP\n", "AFTER")
	rejectWith(t, "ALT\n  SKIP\n    SKIP\n", "boolean")
	rejectWith(t, "VAR v:\nALT i = [0 FOR 3]\n  TIME ? AFTER 0\n    SKIP\n", "channel input")
}

func TestCheckDuplicateNames(t *testing.T) {
	rejectWith(t, "VAR x, x:\nSKIP\n", "already declared")
	rejectWith(t, "PROC p(VALUE a, VALUE a) =\n  SKIP\n:\np(1, 2)\n", "already declared")
}

func TestCheckShadowingAllowedAcrossScopes(t *testing.T) {
	mustCompile(t, `VAR x:
SEQ
  x := 1
  VAR x:
  x := 2
`)
}

func TestCheckBuiltinConstants(t *testing.T) {
	// The link addresses and integer bounds resolve as constants.
	mustCompile(t, `CHAN a, b:
PLACE a AT LINK0OUT:
PLACE b AT LINK3IN:
VAR x:
SEQ
  x := MOSTNEG
  x := MOSTPOS
  x := EVENT
`)
	// The 16-bit builtins differ from the 32-bit ones.
	c16, err := Compile("VAR x:\nx := MOSTPOS\n", Options{WordBytes: 2})
	if err != nil {
		t.Fatal(err)
	}
	c32, err := Compile("VAR x:\nx := MOSTPOS\n", Options{WordBytes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if string(c16.Image.Code) == string(c32.Image.Code) {
		t.Error("MOSTPOS should differ between word lengths")
	}
}

// TestBuiltinConstTable: resolving a predefined constant from its
// spelling gives exactly the table the checker used to declare up front
// — rebuilt here the way it was, fmt.Sprintf and all — for both word
// lengths, and nothing that is not in the table is a name.
func TestBuiltinConstTable(t *testing.T) {
	for _, wordBytes := range []int{2, 4} {
		bpw := int64(wordBytes)
		bits := uint(wordBytes * 8)
		mostneg := -(int64(1) << (bits - 1))
		table := map[string]int64{
			"EVENT":   mostneg + 8*bpw,
			"MOSTNEG": mostneg,
			"MOSTPOS": (int64(1) << (bits - 1)) - 1,
		}
		for i := int64(0); i < 4; i++ {
			table[fmt.Sprintf("LINK%dOUT", i)] = mostneg + i*bpw
			table[fmt.Sprintf("LINK%dIN", i)] = mostneg + (4+i)*bpw
		}
		const maxVC = 32
		vcbase := (int64(1) << (bits - 1)) - 4*maxVC*2*bpw
		for l := int64(0); l < 4; l++ {
			for v := int64(0); v < maxVC; v++ {
				table[fmt.Sprintf("LINK%dVC%dOUT", l, v)] = vcbase + (l*maxVC+v)*bpw
				table[fmt.Sprintf("LINK%dVC%dIN", l, v)] = vcbase + ((4+l)*maxVC+v)*bpw
			}
		}
		if len(table) != 267 {
			t.Fatalf("reference table has %d names, want 267", len(table))
		}
		for name, want := range table {
			if got, ok := builtinConst(name, wordBytes); !ok || got != want {
				t.Errorf("%d-byte words: %s = %d (found %v), want %d", wordBytes, name, got, ok, want)
			}
		}
		for _, name := range []string{"", "LINK", "LINK0", "LINKOUT", "LINK4OUT", "LINK0OUTX", "LINK00OUT",
			"LINK0VC32OUT", "LINK0VC07OUT", "LINK0VC-1IN", "LINK0VC+1IN", "LINK0VCOUT", "LINK0VC1", "LINK0XC1IN",
			"link0out", "Event", "MOSTNEGS", "TRUE"} {
			if v, ok := builtinConst(name, wordBytes); ok {
				t.Errorf("%d-byte words: %q resolved to %d; it is not a predefined name", wordBytes, name, v)
			}
		}
	}
}

func TestCheckStringTableErrors(t *testing.T) {
	long := strings.Repeat("x", 300)
	rejectWith(t, "DEF s = \""+long+"\":\nSKIP\n", "longer than 255")
}

func TestCheckConstFolding(t *testing.T) {
	// DEF chains and operators fold.
	comp, err := Compile(`DEF a = 5:
DEF b = a * 3:
DEF c = (b + 1) / 2:
VAR x:
x := c
`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// c = 8: code starts ldc 8; stl.
	if comp.Image.Code[0] != 0x48 {
		t.Errorf("folded constant wrong: % X", comp.Image.Code[:2])
	}
	// Division by a zero constant is not foldable.
	rejectWith(t, "DEF z = 0:\nDEF bad = 1 / z:\nSKIP\n", "constant")
}

func TestCheckNoParInProc(t *testing.T) {
	// A PROC body runs on its caller's thread, so a nested PAR would
	// corrupt the caller's workspace; it is refused at compile time,
	// wherever it hides in the body.
	rejectWith(t, "PROC p() =\n  PAR\n    SKIP\n    SKIP\n:\np()\n",
		`PAR inside PROC "p" is not supported`)
	rejectWith(t, "PROC p() =\n  SEQ\n    SKIP\n    PAR\n      SKIP\n:\np()\n",
		`PAR inside PROC "p" is not supported`)
	rejectWith(t, "PROC p(VALUE n) =\n  WHILE n > 0\n    PAR\n      SKIP\n:\np(1)\n",
		`PAR inside PROC "p" is not supported`)
	rejectWith(t, "PROC p(VALUE n) =\n  IF\n    n > 0\n      PAR\n        SKIP\n:\np(1)\n",
		`PAR inside PROC "p" is not supported`)
	// Top-level PAR calling PROCs stays legal: that is the idiomatic
	// shape — the PAR spawns, the PROCs do the work.
	mustCompile(t, "PROC p(CHAN out) =\n  out ! 1\n:\nCHAN c:\nVAR v:\nPAR\n  p(c)\n  c ? v\n")
}
