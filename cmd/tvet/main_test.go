package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// probeStub is the part of transputer/internal/probe the analyzers
// reason about.
const probeStub = `package probe

type Event struct{ Kind int }

type Bus struct{}

func (b *Bus) Publish(Event) {}
`

const cleanSrc = `package core

import (
	"sort"

	"transputer/internal/probe"
)

func Keys(m map[string]int, bus *probe.Bus) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if bus != nil {
		bus.Publish(probe.Event{})
	}
	return keys
}
`

// TestVetToolFailsClosed drives the built tool the way CI does — go vet
// -vettool on a module named transputer — and checks that it reports
// what is planted, where it is planted, with a failing exit status.  A
// vet tool that silently reports nothing is worse than none: every case
// here that expects a finding fails if the driver drops it.
func TestVetToolFailsClosed(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go command on PATH")
	}
	tmp := t.TempDir()
	tool := filepath.Join(tmp, "tvet")
	if out, err := exec.Command("go", "build", "-o", tool, ".").CombinedOutput(); err != nil {
		t.Fatalf("building tvet: %v\n%s", err, out)
	}

	// A module with no dependencies resolves without a network.
	mod := filepath.Join(tmp, "mod")
	write(t, filepath.Join(mod, "go.mod"), "module transputer\n\ngo 1.23.0\n")
	write(t, filepath.Join(mod, "internal", "probe", "probe.go"), probeStub)
	coreDir := filepath.Join(mod, "internal", "core")

	type finding struct{ at, msg string } // at: the text the finding points to
	cases := []struct {
		name    string
		src     string // internal/core/core.go
		testSrc string // internal/core/core_test.go, if any
		want    []finding
		wantErr string // a type error: fails with this text and no finding
	}{
		{name: "clean", src: cleanSrc},
		{
			name: "wall clock",
			src: `package core

import "time"

func Stamp() int64 { return time.Now().Unix() }
`,
			want: []finding{{"time.Now()", "time.Now: wall clock in a deterministic package"}},
		},
		{
			name: "map range",
			src: `package core

func Keys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}
`,
			want: []finding{{"for k := range m", "range over map: iteration order is runtime-random"}},
		},
		{
			name: "unguarded publish",
			src: `package core

import "transputer/internal/probe"

func Emit(bus *probe.Bus) {
	bus.Publish(probe.Event{})
}
`,
			want: []finding{{"bus.Publish(", "probe Publish without a nil-bus guard"}},
		},
		{
			name: "ignore silences its line only and needs a reason",
			src: `package core

import "time"

func Stamps() (a, b, c int64) {
	//tvet:ignore nondetsource host-side diagnostic, never reaches an output
	a = time.Now().Unix()
	b = time.Now().UnixNano()
	//tvet:ignore
	c = time.Now().UnixMicro()
	return
}
`,
			want: []finding{
				{"time.Now().UnixNano()", "time.Now: wall clock"},
				{"//tvet:ignore\n", "tvet:ignore without an analyzer name"},
				{"time.Now().UnixMicro()", "time.Now: wall clock"},
			},
		},
		{
			name: "type error",
			src: `package core

import "time"

func Stamp() int64 { return time.Now().Unix() + undeclared }
`,
			wantErr: "undefined: undeclared",
		},
		{
			name: "test files are exempt",
			src:  cleanSrc,
			testSrc: `package core

import (
	"testing"
	"time"

	"transputer/internal/probe"
)

func TestKeys(t *testing.T) {
	var bus *probe.Bus
	bus.Publish(probe.Event{})
	for k := range map[string]int{"a": 1} {
		t.Log(k, time.Now())
	}
}
`,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := os.RemoveAll(coreDir); err != nil {
				t.Fatal(err)
			}
			write(t, filepath.Join(coreDir, "core.go"), c.src)
			if c.testSrc != "" {
				write(t, filepath.Join(coreDir, "core_test.go"), c.testSrc)
			}

			cmd := exec.Command("go", "vet", "-vettool="+tool, "./internal/core")
			cmd.Dir = mod
			cmd.Env = append(os.Environ(), "GOFLAGS=", "GOWORK=off", "GOTOOLCHAIN=local")
			var out bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, &out
			err := cmd.Run()

			// What go vet prints besides "# package" headers.
			var got []string
			for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
				if line != "" && !strings.HasPrefix(line, "#") {
					got = append(got, line)
				}
			}
			if len(c.want) == 0 && c.wantErr == "" {
				if err != nil || len(got) != 0 {
					t.Fatalf("clean package: go vet: %v\n%s", err, out.String())
				}
				return
			}
			if _, failed := err.(*exec.ExitError); !failed {
				t.Errorf("go vet: %v, want a failing exit status\n%s", err, out.String())
			}
			if c.wantErr != "" {
				if len(got) != 1 || !strings.Contains(got[0], c.wantErr) {
					t.Errorf("got %q, want one line containing %q", got, c.wantErr)
				}
				return
			}
			if len(got) != len(c.want) {
				t.Fatalf("got %d findings, want %d:\n%s", len(got), len(c.want), out.String())
			}
			for i, w := range c.want {
				prefix := fmt.Sprintf("internal/core/core.go:%s: %s", lineCol(t, c.src, w.at), w.msg)
				if !strings.HasPrefix(got[i], prefix) {
					t.Errorf("finding %d: got %q, want prefix %q", i, got[i], prefix)
				}
			}
		})
	}
}

// lineCol returns "line:col" of the only occurrence of needle in src.
func lineCol(t *testing.T, src, needle string) string {
	t.Helper()
	i := strings.Index(src, needle)
	if i < 0 || strings.Count(src, needle) != 1 {
		t.Fatalf("%q does not occur exactly once in the source", needle)
	}
	line := 1 + strings.Count(src[:i], "\n")
	col := i - strings.LastIndex(src[:i], "\n")
	return fmt.Sprintf("%d:%d", line, col)
}

func write(t *testing.T, name, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(name), 0o777); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(name, []byte(content), 0o666); err != nil {
		t.Fatal(err)
	}
}
