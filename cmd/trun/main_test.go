package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"transputer/internal/isa"
	"transputer/internal/tool"
)

// TestRun drives trun as the command line does and checks its output
// and its exit code, which is tnet's contract (tool.Verdict).
func TestRun(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	squares := filepath.Join("..", "..", "examples", "quickstart", "squares.occ")
	const squaresOut = "1\n4\n9\n16\n25\n36\n49\n64\n81\n100\n"
	dead := write("dead.occ", "CHAN c:\nVAR x:\nc ? x\n")
	overflow := write("overflow.occ", "VAR x:\nSEQ\n  x := 2147483647\n  x := x + 1\n")
	// Asks the host for two words and prints their sum.
	sum := write("sum.occ", `CHAN out, in:
PLACE out AT LINK0OUT:
PLACE in AT LINK0IN:
VAR a, b:
SEQ
  out ! 5
  in ? a
  out ! 5
  in ? b
  out ! 2
  out ! a + b
  out ! 4
`)
	cases := []struct {
		name   string
		args   []string
		exit   int
		stdout string // exact, when the case has one
		stderr string // a substring, when the case has one
	}{
		{"squares", []string{squares}, tool.ExitOK, squaresOut, ""},
		{"t222", []string{"-model", "t222", squares}, tool.ExitOK, squaresOut, ""},
		{"no limit", []string{"-limit", "0", squares}, tool.ExitOK, squaresOut, ""},
		{"trace", []string{"-trace", squares}, tool.ExitOK, squaresOut, "\n"},
		{"stats", []string{"-stats", squares}, tool.ExitOK, squaresOut, "host 0: exit=true values=[1 4 9"},
		{"input words", []string{"-in", "40, 2", sum}, tool.ExitOK, "42\n", ""},
		{"deadlock", []string{dead}, tool.ExitDeadlock, "", "deadlock watchdog: simulated time stuck at"},
		{"error flag", []string{overflow}, tool.ExitProgramError, "", "trun: main error flag set"},
		{"bad input word", []string{"-in", "1,x", sum}, 1, "", `trun: bad input word "x"`},
		{"missing file", []string{filepath.Join(dir, "absent.occ")}, 1, "", "no such file"},
		{"unknown model", []string{"-model", "t800", squares}, 1, "", `unknown transputer model "t800"`},
		{"no program", nil, 2, "", "usage: trun"},
		{"two programs", []string{squares, squares}, 2, "", "usage: trun"},
		{"unknown flag", []string{"-workers", "2", squares}, 2, "", "flag provided but not defined: -workers"},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		exit := run(c.args, &stdout, &stderr)
		if exit != c.exit {
			t.Errorf("%s: exit %d, want %d; stderr:\n%s", c.name, exit, c.exit, stderr.String())
		}
		if c.stdout != "" && stdout.String() != c.stdout {
			t.Errorf("%s: stdout %q, want %q", c.name, stdout.String(), c.stdout)
		}
		if !strings.Contains(stderr.String(), c.stderr) {
			t.Errorf("%s: stderr does not say %q:\n%s", c.name, c.stderr, stderr.String())
		}
		if c.stderr == "" && stderr.Len() > 0 {
			t.Errorf("%s: unexpected stderr:\n%s", c.name, stderr.String())
		}
	}
}

// TestT222TraceSignedOperands checks that a 16-bit trace prints the
// signed operands the disassembler prints for the same code: ldc -1 is
// -1 on a T222 as on a T424, not the word 65535.
func TestT222TraceSignedOperands(t *testing.T) {
	path := filepath.Join(t.TempDir(), "consts.tasm")
	if err := os.WriteFile(path, []byte("\tldc -1\n\tldc -300\n\tstopp\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if exit := run([]string{"-model", "t222", "-trace", path}, &stdout, &stderr); exit != tool.ExitOK {
		t.Fatalf("exit %d; stderr:\n%s", exit, stderr.String())
	}
	img, err := tool.LoadProgram(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	listing := isa.Sdisassemble(img.Code)
	for _, want := range []string{"load constant -1", "load constant -300"} {
		if !strings.Contains(listing, want) {
			t.Errorf("disassembly does not say %q:\n%s", want, listing)
		}
		if !strings.Contains(stderr.String(), "  "+want+"\n") {
			t.Errorf("trace does not say %q:\n%s", want, stderr.String())
		}
	}
}
