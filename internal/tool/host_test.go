package tool

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestHostUnreadReplies runs a program that asks the host for a word
// twice and reads neither answer: the run settles with the first reply
// stuck on the wire and the second queued behind it, and tnet reports
// the stall through the watchdog with its verdict.
func TestHostUnreadReplies(t *testing.T) {
	dir := t.TempDir()
	src := "CHAN out, in:\nPLACE out AT LINK0OUT:\nPLACE in AT LINK0IN:\nSEQ\n  out ! 5\n  out ! 5\n"
	if err := os.WriteFile(filepath.Join(dir, "twice.occ"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	exit := RunNet(NetFlags{Tool: "tnet", Workers: 1},
		OneNode("t424", 0, "twice.occ"), dir, &stdout, &stderr)
	if exit != ExitHostStall || !strings.Contains(stderr.String(), "deadlock watchdog") ||
		!strings.Contains(stderr.String(), "stalled sending: 0 of 4 bytes") {
		t.Fatalf("exit %d, stderr:\n%s", exit, stderr.String())
	}
}
