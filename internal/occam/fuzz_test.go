package occam

import (
	"os"
	"reflect"
	"testing"
)

// lex collects the whole token stream of src, up to and including the
// tokEOF, or returns the first error.
func lex(src string) ([]token, *Err) {
	l := newLexer(src)
	var toks []token
	for {
		t := l.token()
		if l.err != nil {
			return toks, l.err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

// FuzzLexer throws arbitrary source at the indentation-sensitive lexer
// and checks its structural guarantees: no panic, a tokEOF terminator,
// and balanced indent/dedent pairs (the parser leans on both).  It also
// holds the lexer to refLex, the whole-source scanner it replaced: the
// same tokens, and the same error after the same tokens.
func FuzzLexer(f *testing.F) {
	f.Add("SEQ\n  SKIP\n  SKIP\n")
	f.Add("VAR x:\nPAR\n  x := 1\n  SKIP\n")
	f.Add("PROC p(CHAN c, VALUE n) =\n  c ! n + 1\n:\nCHAN out:\nVAR v:\nPAR\n  p(out, 3)\n  out ? v\n")
	f.Add("WHILE TRUE\n  ALT\n    a ? x\n      SKIP\n    b ? y\n      SKIP\n")
	f.Add("DEF msg = \"hello*c*n\":\nSKIP\n")
	f.Add("SEQ i = [0 FOR 10]\n  c ! i\n")
	f.Add("-- comment only\n")
	f.Add("\t\n  \nSKIP")
	for _, ex := range []string{
		"../../examples/quickstart/squares.occ",
		"../../examples/netdemo/ring.occ",
		"../../examples/netdemo/ring0.occ",
		"../../examples/vchan/sieve-a.occ",
		"../../examples/vchan/sieve-b.occ",
		"../../examples/faults/ring-master.occ",
	} {
		if b, err := os.ReadFile(ex); err == nil {
			f.Add(string(b))
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := lex(src)
		wantToks, wantErr := refLex(src)
		if !reflect.DeepEqual(err, wantErr) {
			t.Fatalf("lex of %q fails with %v, the reference with %v", src, err, wantErr)
		}
		if !reflect.DeepEqual(toks, wantToks) {
			t.Fatalf("lex of %q gives\n%v\nthe reference\n%v", src, toks, wantToks)
		}
		if err != nil {
			return
		}
		if len(toks) == 0 {
			t.Fatalf("lex accepted %q with an empty token stream", src)
		}
		if toks[len(toks)-1].kind != tokEOF {
			t.Fatalf("lex accepted %q without a tokEOF terminator", src)
		}
		depth := 0
		for _, tk := range toks {
			switch tk.kind {
			case tokIndent:
				depth++
			case tokDedent:
				depth--
			}
			if depth < 0 {
				t.Fatalf("lex of %q dedents below the left margin", src)
			}
		}
		if depth != 0 {
			t.Fatalf("lex of %q leaves %d unbalanced indents", src, depth)
		}
	})
}
