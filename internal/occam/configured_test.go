package occam

import (
	"strings"
	"testing"
	"unsafe"
)

// TestCheckerSize pins the checker at 48 bytes, the size class every
// compile allocates it in: what a configured compile adds sits behind
// one pointer.
func TestCheckerSize(t *testing.T) {
	if got := unsafe.Sizeof(checker{}); got != 48 {
		t.Errorf("checker is %d bytes, want 48", got)
	}
}

// configuredParseErrors are replicated PLACED PARs the parser refuses;
// TestParseErrors and TestConfiguredErrors both run them.
var configuredParseErrors = []configuredError{
	{"PLACED PAR i = [0 FOR 2]\n  PROCESSOR i\n    SKIP\n  PROCESSOR 5\n    SKIP\n",
		"occam:4:3: a replicated PLACED PAR takes exactly one PROCESSOR"},
	{"PLACED PAR i = [0 FOR 2]\n  PROCESSOR i\n    PLACED PAR\n      PROCESSOR 0\n        SKIP\n",
		"occam:3:5: PLACED PAR cannot be nested"},
}

type configuredError struct{ src, want string }

// TestConfiguredErrors compiles replicated PLACED PARs that are wrong
// and checks each error's position and message.
func TestConfiguredErrors(t *testing.T) {
	cases := append([]configuredError{
		{"VAR n:\nPLACED PAR i = [0 FOR n]\n  PROCESSOR i\n    SKIP\n",
			"occam:2:12: PLACED PAR needs a compile-time count: expression is not a compile-time constant"},
		{"VAR b:\nPLACED PAR i = [b FOR 2]\n  PROCESSOR i\n    SKIP\n",
			"occam:2:12: PLACED PAR needs a compile-time base"},
		{"PLACED PAR i = [0 FOR 0]\n  PROCESSOR i\n    SKIP\n",
			"occam:1:12: PLACED PAR count must be 1 to 4096, got 0"},
		{"DEF k = 2:\nPLACED PAR i = [0 FOR 1 - k]\n  PROCESSOR i\n    SKIP\n",
			"occam:2:12: PLACED PAR count must be 1 to 4096, got -1"},
		{"PLACED PAR i = [0 FOR 5000]\n  PROCESSOR i\n    SKIP\n",
			"occam:1:12: PLACED PAR count must be 1 to 4096, got 5000"},
		{"PLACED PAR i = [0 FOR 4]\n  PROCESSOR i / 2\n    SKIP\n",
			"occam:2:3: PROCESSOR 0 configured twice: for i = 0 and i = 1"},
		{"VAR x:\nPLACED PAR i = [0 FOR 4]\n  PROCESSOR x\n    SKIP\n",
			"occam:3:13: expression is not a compile-time constant"},
		{"PLACED PAR i = [0 FOR 2]\n  PROCESSOR i\n    VAR x:\n    IF\n      x = i\n        SKIP\n",
			"occam:5:9: a configuration IF guard must fold once the PLACED PAR replicator is fixed"},
		{"PLACED PAR i = [3 FOR 2]\n  PROCESSOR i + 10\n    DEF d = i:\n    IF\n      d = 3\n        SKIP\n",
			"occam:4:5: no branch of the configuration IF is true for PROCESSOR 14"},
	}, configuredParseErrors...)
	for _, tc := range cases {
		_, err := CompileConfigured(tc.src, Options{})
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("CompileConfigured(%q) = %v, want %s…", tc.src, err, tc.want)
		}
	}
}

// TestConfigChoiceTakesOneBranch: a configuration IF compiles only the
// branch each processor takes, so a branch no processor takes is never
// checked; an IF anywhere else, even one whose guards fold, is an
// ordinary IF.
func TestConfigChoiceTakesOneBranch(t *testing.T) {
	src := `DEF k = 2:
PLACED PAR i = [0 FOR 3]
  PROCESSOR i
    DEF d = i * k:
    IF
      d = 2
        SKIP
      d < 2
        CHAN out:
        PLACE out AT LINK0OUT:
        IF
          i = 0
            out ! 1
          TRUE
            out ! 2
      i = 2
        STOP
      TRUE
        undeclared := 1
`
	procs, err := CompileConfigured(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := CompileConfigured(`PLACED PAR
  PROCESSOR 0
    CHAN out:
    PLACE out AT LINK0OUT:
    IF
      0 = 0
        out ! 1
      TRUE
        out ! 2
  PROCESSOR 1
    SKIP
  PROCESSOR 2
    STOP
`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range procs {
		want := plain[i].Compiled.Image
		if p.ID != int64(i) || string(p.Compiled.Image.Code) != string(want.Code) {
			t.Errorf("processor %d: code %x, want %x", p.ID, p.Compiled.Image.Code, want.Code)
		}
	}
}
