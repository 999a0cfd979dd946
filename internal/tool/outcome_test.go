package tool

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"transputer/internal/core"
	"transputer/internal/link"
	"transputer/internal/network"
	"transputer/internal/probe"
	"transputer/internal/route"
	"transputer/internal/sim"
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

// TestUnroutedRestart: a node halted mid-transfer and restarted in a
// system with no router.  In the error-detecting mode the halted
// sender sends nothing, the restart resends the frozen byte once and
// the stream completes; on the paper's plain links that byte's
// acknowledge never comes, and the watchdog names both ends.
func TestUnroutedRestart(t *testing.T) {
	const wiring = `
transputer tx t424 mem=64K program=lossy-tx.occ
transputer rx t424 mem=64K program=lossy-rx.occ
connect tx.1 rx.0
host rx.2
fault halt tx at=100us
fault restart tx at=600us
`
	for _, c := range []struct {
		linkmode, stdout string
		exit             int
		stderr           []string
	}{
		{"linkmode reliable\n", "5050\n", ExitOK,
			[]string{"link 1 out-wire: 400 data bytes, 0 acks, busy 802.000µs, 1 retransmitted\n"}},
		{"", "", ExitDeadlock,
			[]string{"simulated time stuck at 600.200µs\n  rx: ", " at lossy-rx.occ:14\n  tx: ", " at lossy-tx.occ:9\n"}},
	} {
		topo, err := network.ParseTopology(wiring + c.linkmode)
		if err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		exit := RunNet(NetFlags{Tool: "tnet", Workers: 1, Stats: true}, topo, "../../examples/faults", &stdout, &stderr)
		if exit != c.exit || stdout.String() != c.stdout {
			t.Errorf("%q: exit %d, stdout %q; want %d, %q", c.linkmode, exit, stdout.String(), c.exit, c.stdout)
		}
		for _, want := range c.stderr {
			if !strings.Contains(stderr.String(), want) {
				t.Errorf("%q: stderr does not say %q:\n%s", c.linkmode, want, stderr.String())
			}
		}
	}
}

// TestRoutedTopologyEndToEnd drives the whole stack the way tnet does:
// parse a routed topology with faults, build it, run the phased quiesce
// flow at one worker and at four, and demand a clean verdict with every
// message delivered, at the same instants either way.  The faults are a
// sever, a halt and a restart; and a restart at the very instant its
// peer halts.
func TestRoutedTopologyEndToEnd(t *testing.T) {
	const ring = `
transputer n0 t424 mem=64K
transputer n1 t424 mem=64K
transputer n2 t424 mem=64K
transputer n3 t424 mem=64K
connect n0.1 n1.0
connect n1.1 n2.0
connect n2.1 n3.0
connect n3.1 n0.0
route
run 8ms
`
	for _, c := range []struct {
		plan string
		want int
	}{
		{`message n1 n2 at=50us  data=before
message n1 n2 at=210us data=during
message n0 n2 at=2ms   data=after
fault sever n1.1 at=200us
fault halt n3 at=300us
fault restart n3 at=900us
`, 3},
		{`message n1 n2 at=50us  data=before-the-halt
message n1 n2 at=210us data=during-the-halt
message n2 n1 at=210us data=the-other-way
message n1 n2 at=2ms   data=long-after
message n0 n2 at=2ms   data=around-the-ring
fault halt n1 at=300us
fault restart n1 at=700us
fault halt n2 at=700us
fault restart n2 at=1200us
`, 5},
	} {
		var first []route.Delivery
		for _, workers := range []int{1, 4} {
			topo, err := network.ParseTopology(ring + c.plan)
			if err != nil {
				t.Fatal(err)
			}
			net, err := BuildNetwork(topo, ".", io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			net.System.SetWorkers(workers)
			rep := RunToQuiescence(net)
			if !rep.Settled {
				t.Fatalf("run did not settle: %+v", rep)
			}
			wd := net.System.Watchdog()
			if code := Verdict(false, wd, net.Router.Undelivered()); code != ExitOK {
				t.Fatalf("workers %d: verdict = %d, want 0 (watchdog: %v, undelivered: %d)",
					workers, code, wd, net.Router.Undelivered())
			}
			var sb strings.Builder
			PrintRouteSummary(&sb, net.Router)
			if want := fmt.Sprintf("delivered %d of %d", c.want, c.want); !strings.Contains(sb.String(), want) {
				t.Errorf("workers %d: summary = %q, want %q", workers, sb.String(), want)
			}
			got := net.Router.AllDeliveries()
			if first == nil {
				first = got
				continue
			}
			if fmt.Sprint(got) != fmt.Sprint(first) {
				t.Errorf("deliveries differ between 1 and 4 workers:\n  %v\n  %v", first, got)
			}
		}
	}
}

// TestRouteTurnsOnLinksAndLiveness: a route line is the one
// self-healing switch — every engine of the built network runs the
// error-detecting link mode with its liveness monitor on — and a
// linkmode line beside it changes nothing: both run the link package's
// fixed timeout and retry budget.  Every data packet is dropped, so
// each sender resends on its timeout until its retry budget is spent,
// while beats go out on every wire.
func TestRouteTurnsOnLinksAndLiveness(t *testing.T) {
	const wiring = `
transputer a t424
transputer b t424
transputer c t424
connect a.0 b.1
connect b.0 c.1
message a b at=10us data=ab
message b a at=10us data=ba
message b c at=10us data=bc
message c b at=10us data=cb
fault drop a.0 rate=1 pkt=data
fault drop b.1 rate=1 pkt=data
fault drop b.0 rate=1 pkt=data
fault drop c.1 rate=1 pkt=data
run 2ms
`
	for _, linkmode := range []string{"", "linkmode reliable\n"} {
		topo, err := network.ParseTopology(wiring + linkmode + "route\n")
		if err != nil {
			t.Fatal(err)
		}
		net, err := BuildNetwork(topo, ".", io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		bus := probe.NewBus()
		net.System.AttachProbe(bus)
		resent := make(map[string][]sim.Time) // link end -> its first retransmissions
		bus.Subscribe(func(e probe.Event) {
			if e.Kind == probe.LinkRetransmit {
				end := fmt.Sprintf("%s.%d", e.Node, e.Link)
				resent[end] = append(resent[end], e.Time)
			}
		})
		RunToQuiescence(net)
		for _, n := range net.System.Nodes() {
			for l := 0; l < core.NumLinks; l++ {
				if !n.Engine.Connected(l) {
					continue
				}
				end := fmt.Sprintf("%s.%d", n.Name, l)
				ws, at := n.Engine.WireStats(l), resent[end]
				switch {
				case ws.Beats == 0:
					t.Errorf("%q: %s sent no beats: its liveness monitor is off", linkmode, end)
				case len(at) < 2 || ws.Retransmits != link.DefaultRelRetries:
					t.Errorf("%q: %s resent %d times, want %d", linkmode, end, ws.Retransmits, link.DefaultRelRetries)
				case at[1]-at[0] < link.DefaultRelTimeout || at[1]-at[0] >= link.DefaultRelTimeout+5*sim.Microsecond:
					t.Errorf("%q: %s resent %v apart, want the %v timeout and a frame", linkmode, end, at[1]-at[0], link.DefaultRelTimeout)
				}
			}
		}
	}
}

// TestRoutedTopologyPartitionVerdict: an unsurvivable cut yields the
// partition exit code and names the lost message.
func TestRoutedTopologyPartitionVerdict(t *testing.T) {
	src := `
transputer n0 t424 mem=64K
transputer n1 t424 mem=64K
connect n0.0 n1.0
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

// TestRouteRetryExhaustion: the healed ring with its wire cut replaced
// by a wire that drops every data packet.  Beats and acknowledges still
// cross it, so the heartbeat never declares the link down; the only
// evidence is the sender's spent retry budget, which must reach the
// router as a down verdict so the frames stuck on that hop go the long
// way round.
func TestRouteRetryExhaustion(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "examples", "faults", "healed-ring.tnet"))
	if err != nil {
		t.Fatal(err)
	}
	const cut = "fault sever n1.1 at=200us"
	if !strings.Contains(string(raw), cut) {
		t.Fatalf("healed-ring.tnet no longer has the line %q", cut)
	}
	src := strings.Replace(string(raw), cut, "fault drop n1.1 rate=1 pkt=data", 1)
	topo, err := network.ParseTopology(src)
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	exit := RunNet(NetFlags{Tool: "tnet", Workers: 1}, topo, ".", &stdout, &stderr)
	if exit != ExitOK || !strings.Contains(stderr.String(), "route: delivered 5 of 5") {
		t.Errorf("exit %d, stderr %q; want 0 and every message delivered", exit, stderr.String())
	}
	// n1's sender is paused with its budget spent, but no process
	// waits on that link: the router has routed around it.
	if strings.Contains(stderr.String(), "deadlock watchdog") {
		t.Errorf("the watchdog reported the rerouted link:\n%s", stderr.String())
	}
}
