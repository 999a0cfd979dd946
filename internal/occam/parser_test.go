package occam

import (
	"strings"
	"testing"
)

func parseOK(t *testing.T, src string) process {
	t.Helper()
	p, _, err := parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

func TestParseSeq(t *testing.T) {
	p := parseOK(t, "SEQ\n  SKIP\n  STOP\n")
	seq, ok := p.(*seqProc)
	if !ok || len(seq.procs) != 2 {
		t.Fatalf("got %T %+v", p, p)
	}
	if _, ok := seq.procs[0].(*skipProc); !ok {
		t.Error("first component should be SKIP")
	}
	if _, ok := seq.procs[1].(*stopProc); !ok {
		t.Error("second component should be STOP")
	}
}

func TestParseDeclarations(t *testing.T) {
	p := parseOK(t, "VAR x, y:\nCHAN c:\nDEF n = 4:\nx := n\n")
	d, ok := p.(*declProc)
	if !ok || len(d.decls) != 3 {
		t.Fatalf("got %T: %+v", p, p)
	}
	if v, ok := d.decls[0].(*varDecl); !ok || len(v.items) != 2 {
		t.Error("VAR x, y mis-parsed")
	}
	if _, ok := d.decls[1].(*chanDecl); !ok {
		t.Error("CHAN c mis-parsed")
	}
	if def, ok := d.decls[2].(*defDecl); !ok || def.name != "n" {
		t.Error("DEF mis-parsed")
	}
}

func TestParseArrays(t *testing.T) {
	p := parseOK(t, "VAR a[10]:\nSEQ\n  a[0] := 1\n  a[1] := a[0]\n")
	d := p.(*declProc)
	vd := d.decls[0].(*varDecl)
	if vd.items[0].size == nil {
		t.Fatal("array size missing")
	}
}

func TestParseReplicators(t *testing.T) {
	p := parseOK(t, "VAR x:\nSEQ i = [0 FOR 10]\n  x := i\n")
	d := p.(*declProc)
	seq := d.body.(*seqProc)
	if seq.rep == nil || seq.rep.name != "i" {
		t.Fatal("replicator missing")
	}
	if len(seq.procs) != 1 {
		t.Fatalf("replicated SEQ has %d components", len(seq.procs))
	}
}

func TestParsePar(t *testing.T) {
	p := parseOK(t, "PAR\n  SKIP\n  SKIP\n")
	par := p.(*parProc)
	if par.pri || len(par.procs) != 2 {
		t.Fatalf("%+v", par)
	}
	p2 := parseOK(t, "PRI PAR\n  SKIP\n  SKIP\n")
	if !p2.(*parProc).pri {
		t.Error("PRI PAR should set pri")
	}
}

func TestParseAlt(t *testing.T) {
	src := `ALT
  c ? v
    SKIP
  ok & d ? w
    STOP
  TIME ? AFTER t
    SKIP
  TRUE & SKIP
    SKIP
`
	p := parseOK(t, src)
	alt := p.(*altProc)
	if len(alt.branches) != 4 {
		t.Fatalf("branches = %d", len(alt.branches))
	}
	if alt.branches[0].cond != nil {
		t.Error("branch 0 should have no condition")
	}
	if alt.branches[1].cond == nil {
		t.Error("branch 1 should have a condition")
	}
	if ti, ok := alt.branches[2].input.(*timeInputProc); !ok || ti.after == nil {
		t.Error("branch 2 should be a timer guard")
	}
	if _, ok := alt.branches[3].input.(*skipProc); !ok {
		t.Error("branch 3 should be a SKIP guard")
	}
}

func TestParseIfWhile(t *testing.T) {
	src := `IF
  x = 1
    SKIP
  TRUE
    STOP
`
	p := parseOK(t, src)
	ifp := p.(*ifProc)
	if len(ifp.branches) != 2 {
		t.Fatalf("branches = %d", len(ifp.branches))
	}
	p2 := parseOK(t, "WHILE x < 10\n  x := x + 1\n")
	if _, ok := p2.(*whileProc); !ok {
		t.Fatalf("got %T", p2)
	}
}

func TestParseProcAndCall(t *testing.T) {
	src := `PROC p(VALUE a, VAR b, CHAN c) =
  SEQ
    b := a
    c ! a
:
p(1, x, ch)
`
	p := parseOK(t, src)
	d := p.(*declProc)
	pd := d.decls[0].(*procDecl)
	if pd.name != "p" || len(pd.params) != 3 {
		t.Fatalf("%+v", pd)
	}
	if pd.params[0].kind != paramValue || pd.params[1].kind != paramVar || pd.params[2].kind != paramChan {
		t.Error("param kinds wrong")
	}
	call := d.body.(*callProc)
	if call.name != "p" || len(call.args) != 3 {
		t.Fatalf("%+v", call)
	}
}

func TestParseIO(t *testing.T) {
	p := parseOK(t, "c ! x + 1; y\n")
	out := p.(*outputProc)
	if len(out.values) != 2 {
		t.Fatalf("values = %d", len(out.values))
	}
	p2 := parseOK(t, "c ? x; a[i]; ANY\n")
	in := p2.(*inputProc)
	if len(in.targets) != 3 {
		t.Fatalf("targets = %d", len(in.targets))
	}
	if in.targets[2].name != nil {
		t.Error("ANY target should have nil name")
	}
}

func TestParseChannelArrayIO(t *testing.T) {
	p := parseOK(t, "c[i] ! 5\n")
	out := p.(*outputProc)
	if out.chIdx == nil {
		t.Error("channel index missing")
	}
}

func TestParsePlace(t *testing.T) {
	p := parseOK(t, "CHAN c:\nPLACE c AT LINK0OUT:\nc ! 1\n")
	d := p.(*declProc)
	if _, ok := d.decls[1].(*placeDecl); !ok {
		t.Fatalf("decls = %+v", d.decls)
	}
}

func TestParseMixedOperatorsRejected(t *testing.T) {
	_, _, err := parse("x := 1 + 2 * 3\n")
	if err == nil {
		t.Fatal("mixed operators without parentheses should be rejected")
	}
	if !strings.Contains(err.Error(), "parenthesize") {
		t.Errorf("error = %v", err)
	}
	// Same operator chains are fine.
	parseOK(t, "x := 1 + 2 + 3\n")
	// Parenthesized mixing is fine.
	parseOK(t, "x := 1 + (2 * 3)\n")
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"SEQ\n",                // missing body
		"x :=\n",               // missing expression
		"c !\n",                // missing value
		"IF\n  SKIP\n",         // IF branch must be a condition line
		"PROC p() =\n  SKIP\n", // missing closing colon
		"PRI SKIP\n",           // PRI must prefix PAR or ALT
		"WHILE\n  SKIP\n",      // missing condition
		"VAR x\nSKIP\n",        // missing colon
		"x + 1\n",              // expression is not a process
	}
	for _, c := range configuredParseErrors {
		cases = append(cases, c.src)
	}
	for _, src := range cases {
		if _, _, err := parse(src); err == nil {
			t.Errorf("parse(%q) should fail", src)
		}
	}
}

func TestParseTimeInput(t *testing.T) {
	p := parseOK(t, "TIME ? now\n")
	ti := p.(*timeInputProc)
	if ti.target == nil || ti.after != nil {
		t.Fatalf("%+v", ti)
	}
	p2 := parseOK(t, "TIME ? AFTER t + 100\n")
	ti2 := p2.(*timeInputProc)
	if ti2.after == nil {
		t.Fatalf("%+v", ti2)
	}
}
