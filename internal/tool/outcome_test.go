package tool

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"transputer/internal/network"
)

func TestVerdictPrecedence(t *testing.T) {
	stall := &network.WatchdogReport{HostStalls: []network.HostStall{{Node: "a", Link: 0}}}
	dead := &network.WatchdogReport{DownLinks: []network.DownLink{{Node: "a", Link: 0}}}
	cases := []struct {
		failed      bool
		wd          *network.WatchdogReport
		undelivered int
		want        int
	}{
		{false, nil, 0, ExitOK},
		{false, dead, 0, ExitDeadlock},
		{false, nil, 3, ExitPartition},
		{false, dead, 3, ExitPartition},  // lost traffic explains the dead links
		{false, stall, 0, ExitHostStall}, // a stalled host names the culprit directly
		{false, stall, 3, ExitHostStall},
		{true, nil, 0, ExitProgramError},
		{true, dead, 0, ExitProgramError}, // the failed program is why the rest blocked
		{true, stall, 3, ExitProgramError},
	}
	for i, c := range cases {
		if got := Verdict(c.failed, c.wd, c.undelivered); got != c.want {
			t.Errorf("case %d: Verdict = %d, want %d", i, got, c.want)
		}
	}
}

// TestRunNetProgramError: a node whose program sets its error flag
// fails the run with ExitProgramError, named on stderr, while a node
// the topology halts on purpose leaves the verdict as it was.
func TestRunNetProgramError(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"overflow.occ": "VAR x:\nSEQ\n  x := 2147483647\n  x := x + 1\n",
		"squares.occ":  "CHAN out:\nPLACE out AT LINK0OUT:\nSEQ i = [1 FOR 3]\n  SEQ\n    out ! 2\n    out ! i * i\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		src, stderr string
		exit        int
	}{
		{"transputer a t424 program=overflow.occ\ntransputer b t424\nconnect a.0 b.0\n",
			"tnet: a error flag set\n", ExitProgramError},
		{"transputer main t424 program=squares.occ\nhost main.0\nfault halt main at=20us\n",
			"tnet: main halted: core: halted: fault injection\n", ExitOK},
	}
	for _, c := range cases {
		topo, err := network.ParseTopology(c.src)
		if err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		exit := RunNet(NetFlags{Tool: "tnet", Workers: 1}, topo, dir, &stdout, &stderr)
		if exit != c.exit || stderr.String() != c.stderr {
			t.Errorf("%q: exit %d, stderr %q; want %d, %q", c.src, exit, stderr.String(), c.exit, c.stderr)
		}
	}
}

// TestRoutedTopologyEndToEnd drives the whole stack the way tnet does:
// parse a routed topology with a sever, a halt and a restart, build
// it, run the phased quiesce flow, and demand a clean verdict with
// every message delivered.
func TestRoutedTopologyEndToEnd(t *testing.T) {
	src := `
transputer n0 t424 mem=64K
transputer n1 t424 mem=64K
transputer n2 t424 mem=64K
transputer n3 t424 mem=64K
connect n0.1 n1.0
connect n1.1 n2.0
connect n2.1 n3.0
connect n3.1 n0.0
linkmode reliable
heartbeat
route
message n1 n2 at=50us  data=before
message n1 n2 at=210us data=during
message n0 n2 at=2ms   data=after
fault sever n1.1 at=200us
fault halt n3 at=300us
fault restart n3 at=900us
run 8ms
`
	topo, err := network.ParseTopology(src)
	if err != nil {
		t.Fatal(err)
	}
	net, err := BuildNetwork(topo, ".", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	rep := RunToQuiescence(net)
	if !rep.Settled {
		t.Fatalf("run did not settle: %+v", rep)
	}
	wd := net.System.Watchdog()
	if code := Verdict(false, wd, net.Router.Undelivered()); code != ExitOK {
		t.Fatalf("verdict = %d, want 0 (watchdog: %v, undelivered: %d)",
			code, wd, net.Router.Undelivered())
	}
	if got := len(net.Router.AllDeliveries()); got != 3 {
		t.Fatalf("delivered %d of 3 messages", got)
	}
	var sb strings.Builder
	PrintRouteSummary(&sb, net.Router)
	if !strings.Contains(sb.String(), "delivered 3 of 3") {
		t.Errorf("summary = %q", sb.String())
	}
}

// TestRoutedTopologyPartitionVerdict: an unsurvivable cut yields the
// partition exit code and names the lost message.
func TestRoutedTopologyPartitionVerdict(t *testing.T) {
	src := `
transputer n0 t424 mem=64K
transputer n1 t424 mem=64K
connect n0.0 n1.0
linkmode reliable
heartbeat
route
message n0 n1 at=500us data=doomed
fault sever n0.0 at=100us
run 4ms
`
	topo, err := network.ParseTopology(src)
	if err != nil {
		t.Fatal(err)
	}
	net, err := BuildNetwork(topo, ".", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	rep := RunToQuiescence(net)
	if !rep.Settled {
		t.Fatalf("run did not settle: %+v", rep)
	}
	if code := Verdict(false, net.System.Watchdog(), net.Router.Undelivered()); code != ExitPartition {
		t.Fatalf("verdict = %d, want %d", code, ExitPartition)
	}
	var sb strings.Builder
	PrintRouteSummary(&sb, net.Router)
	if !strings.Contains(sb.String(), "LOST n0 -> n1 seq 0") {
		t.Errorf("summary should name the lost message, got %q", sb.String())
	}
}
