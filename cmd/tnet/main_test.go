package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tnetRun is one run of tnet on args.
type tnetRun struct {
	exit           int
	stdout, stderr string
}

func runTnet(args ...string) tnetRun {
	var stdout, stderr bytes.Buffer
	exit := run(args, &stdout, &stderr)
	return tnetRun{exit, stdout.String(), stderr.String()}
}

// TestRefusedTopology: a file the parser or the build refuses prints
// one positioned line and exits 1; a bad command line exits 2.
func TestRefusedTopology(t *testing.T) {
	dir := t.TempDir()
	for src, want := range map[string]string{
		"transputer a t424\nbanana\n":                         `tnet: topology line 2: unknown directive "banana"`,
		"transputer a t424\n\ntransputer a t424\n":            `tnet: topology line 3: network: duplicate transputer name "a" (first at line 1)`,
		"transputer a t424\ninput a 1 2\n":                    `tnet: topology line 2: input for "a", which has no host`,
		"transputer a t424\nmessage a a at=1us data=x\n":      "tnet: topology line 2: message directives require a route directive",
		"transputer a t424\nhost a.0\nfault sever a.1 at=1ms": "tnet: topology line 3: network: fault sever targets unwired link end a.1",
	} {
		path := filepath.Join(dir, "refused.tnet")
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		if got := runTnet(path); got.exit != 1 || got.stdout != "" || got.stderr != want+"\n" {
			t.Errorf("tnet on %q: exit %d, stdout %q, stderr %q; want exit 1 and %q", src, got.exit, got.stdout, got.stderr, want)
		}
	}
	for _, args := range [][]string{nil, {"a.tnet", "b.tnet"}, {"-frobnicate", "a.tnet"}} {
		if got := runTnet(args...); got.exit != 2 {
			t.Errorf("tnet %q: exit %d, want 2", args, got.exit)
		}
	}
}

// TestSeedOverride: -seed n runs a file as the same file with `seed n`
// would, and the seed matters to the lossy campaign it runs.
func TestSeedOverride(t *testing.T) {
	dir := t.TempDir()
	examples := filepath.Join("..", "..", "examples", "faults")
	for _, name := range []string{"lossy-link.tnet", "lossy-tx.occ", "lossy-rx.occ"} {
		b, err := os.ReadFile(filepath.Join(examples, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	seven := filepath.Join(dir, "lossy-link.tnet")
	src, _ := os.ReadFile(seven)
	if !strings.Contains(string(src), "\nseed 7\n") {
		t.Fatalf("%s no longer says seed 7", seven)
	}
	three := filepath.Join(dir, "seed3.tnet")
	if err := os.WriteFile(three, []byte(strings.Replace(string(src), "\nseed 7\n", "\nseed 3\n", 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	want := runTnet("-stats", seven)
	if want.exit != 0 || !strings.Contains(want.stderr, "retransmitted") {
		t.Fatalf("seed 7: exit %d, stderr:\n%s", want.exit, want.stderr)
	}
	if got := runTnet("-stats", "-seed", "7", three); got != want {
		t.Errorf("-seed 7 on the seed 3 file:\n%+v\nwant the seed 7 file's:\n%+v", got, want)
	}
	if got := runTnet("-stats", three); got == want {
		t.Error("seed 3 ran as seed 7 does: the override is untested")
	}
}
