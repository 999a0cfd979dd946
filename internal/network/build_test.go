package network_test

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"transputer/internal/network"
	"transputer/internal/sim"
	"transputer/internal/tool"
)

// build is what tnet does with a topology file short of running it: the
// parse, then the build.  None of these sources names a program.
func build(src string) error {
	topo, err := network.ParseTopology(src)
	if err == nil {
		_, err = tool.BuildNetwork(topo, "", io.Discard)
	}
	return err
}

// TestParseTopologyErrors: what the parser refuses on its line, and
// what the build refuses at the line of the spec it was building.
func TestParseTopologyErrors(t *testing.T) {
	cases := []string{
		"transputer x",
		"transputer x t999",
		"transputer x t424 mem=abc",
		"transputer x t424 frobnicate=1",
		"connect a.0",
		"connect a.0 b.x",
		"host a",
		"input a",
		"input a xyz",
		"run forever",
		"transputer x t424\nroute\nrun -1ms", // ran forever: the monitor never lets the system quiesce
		"run -5",                             // ran unbounded
		"run 0",
		"banana split",
		// duplicates, double wiring, bad references: the build's
		"transputer x t424\ntransputer x t424",
		"transputer x t424\ntransputer y t424\nconnect x.0 y.0\nconnect x.0 y.1",
		"transputer x t424\ntransputer y t424\nconnect x.0 y.0\nhost y.0",
		"transputer x t424\nhost x.9",
		"transputer x t424\nconnect x.0 x.0",
		"connect a.0 b.0", // undeclared nodes
		"transputer x t424\ninput ghost 1",
		// fault-campaign directives
		"seed",
		"seed banana",
		"linkmode",
		"linkmode turbo",
		"linkmode reliable timeout=banana",
		"linkmode reliable retries=0",
		"fault",
		"fault meltdown x.0 rate=0.5",
		"transputer x t424\nfault drop x.0 rate=2",
		"transputer x t424\nfault jitter x.0 rate=0.5",
		"transputer x t424\nfault sever x.0",
		"transputer x t424\nfault halt x.0 at=1ms",
		"transputer x t424\nfault drop ghost.0 rate=0.5",
	}
	for _, src := range cases {
		if err := build(src); err == nil {
			t.Errorf("build(%q) should fail", src)
		}
	}
	// route and linkmode are bare switches: an option is refused at
	// their line.  route brings liveness monitoring
	// with it, so there is no heartbeat directive, and the paper's
	// protocol is what a file without a linkmode line gets, so linkmode
	// has no standard mode.  The engine picks its own partition, so a
	// shard line is an unknown directive.  A message longer than a
	// routed frame carries is refused at its line, and so is a scripted
	// event after the run limit (one second without a run line), which
	// would otherwise fire in the drain after the run.
	const ring = "transputer n0 t424\ntransputer n1 t424\ntransputer n2 t424\nconnect n0.0 n1.1\nconnect n1.0 n2.1\nconnect n2.0 n0.1\nroute\n"
	for src, want := range map[string]string{
		"transputer a t424\ntransputer b t424\nshard a b": `topology line 3: unknown directive "shard"`,
		"heartbeat": `topology line 1: unknown directive "heartbeat"`,
		"transputer x t424\nheartbeat timeout=100us":                                     `topology line 2: unknown directive "heartbeat"`,
		"linkmode standard":                                                              `topology line 1: unknown link mode "standard" (want reliable)`,
		"transputer x t424\nlinkmode reliable\nroute ttl=4":                              "topology line 3: route takes no options",
		"transputer x t424\nlinkmode reliable\nroute hop=1us":                            "topology line 3: route takes no options",
		"linkmode reliable timeout=5us retries=64":                                       "topology line 1: linkmode takes no options",
		"transputer x t424\nlinkmode reliable retries=0":                                 "topology line 2: linkmode takes no options",
		ring + "fault halt n2 at=7800us\nfault restart n2 at=8500us\nrun 8ms":            "topology line 9: fault restart at 8.500ms is after the run limit of 8.000ms",
		ring + "fault sever n0.0 at=2s":                                                  "topology line 8: fault sever at 2.000s is after the run limit of 1.000s",
		ring + "run 1ms\nmessage n0 n2 at=1001us data=late":                              "topology line 9: message at 1.001ms is after the run limit of 1.000ms",
		"transputer x t424\nroute\nmessage x x at=1us data=" + strings.Repeat("y", 2000): "topology line 3: route: payload 2000 exceeds 1024-byte cap",
	} {
		if err := build(src); err == nil || err.Error() != want {
			t.Errorf("build(%q) = %v, want %q", src, err, want)
		}
	}
	// An event at the limit itself is legal: RunUntil still fires it.
	if err := build(ring + "fault halt n2 at=8ms\nmessage n0 n1 at=8ms data=x\nrun 8ms"); err != nil {
		t.Errorf("events at the run limit: %v", err)
	}
}

// TestParseTopologyErrorLines: every refusal names the offending line,
// and a clash names the earlier line too.
func TestParseTopologyErrorLines(t *testing.T) {
	src := "transputer x t424\ntransputer y t424\nconnect x.0 y.0\nconnect y.0 x.1\n"
	err := build(src)
	if err == nil {
		t.Fatal("double-wired end accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "line 4") || !strings.Contains(msg, "line 3") {
		t.Errorf("error %q should name the clashing lines", msg)
	}
	err = build("transputer x t424\n\ntransputer x t222\n")
	if err == nil || !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), "line 1") {
		t.Errorf("duplicate-name error %v should name both lines", err)
	}
	err = build("transputer x t424\nroute\nrun -1ms\n")
	if want := `topology line 3: bad duration "-1ms"`; err == nil || err.Error() != want {
		t.Errorf("negative run limit: %v, want %q", err, want)
	}
	// Messages without route are refused at the first message line, and
	// route.Attach's refusal at the route line: a routed frame names a
	// node in one byte.
	var big strings.Builder
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&big, "transputer n%d t424\n", i)
	}
	for src, want := range map[string]string{
		"transputer x t424\nmessage x x at=1us data=a\nmessage x x at=2us data=b\n": "topology line 2: message directives require a route directive",
		"route\n" + big.String(): "topology line 1: route: 300 nodes exceed the 256-node frame address space",
	} {
		if err := build(src); err == nil || err.Error() != want {
			t.Errorf("build(%q) = %v, want %q", src, err, want)
		}
	}
}

// TestParseTooManyTransputers: a topology with more transputers than a
// coordinator has ports (tnet used to panic in NewPort on one) is
// refused at the line that declares one too many.
func TestParseTooManyTransputers(t *testing.T) {
	var src strings.Builder
	for i := 0; i < 66000; i++ {
		fmt.Fprintf(&src, "transputer n%d t424 mem=4K\n", i)
	}
	err := build(src.String())
	want := fmt.Sprintf("topology line %d: network: transputer \"n%d\" is one too many: a system holds at most %d", sim.MaxPorts+1, sim.MaxPorts, sim.MaxPorts)
	if err == nil || err.Error() != want {
		t.Errorf("build of 66000 transputers = %v, want %q", err, want)
	}
}

// TestParseSelfHealingErrors refuses inconsistent self-healing
// directives.
func TestParseSelfHealingErrors(t *testing.T) {
	cases := []string{
		"route ttl=0",
		"route ttl=banana",
		"route speed=11",
		// messages without routing, or naming ghosts
		"transputer x t424\nmessage x x at=1us data=hi",
		"transputer x t424\ntransputer y t424\nconnect x.0 y.0\n" +
			"route\nmessage x ghost at=1us data=hi",
		"message x",
		"message x y",
		"message x y data=hi", // no at=
	}
	for _, src := range cases {
		if err := build(src); err == nil {
			t.Errorf("build(%q) should fail", src)
		}
	}
}

// TestParseVChan covers the vchan directive and its checks against the
// wiring and the fault plan.
func TestParseVChan(t *testing.T) {
	base := "transputer a t424\ntransputer b t424\nconnect a.1 b.2\nhost a.0\n"
	topo, err := network.ParseTopology(base + "vchan a.1 count=8\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.VChans) != 1 {
		t.Fatalf("vchans = %+v", topo.VChans)
	}
	vc := topo.VChans[0]
	if vc.Node != "a" || vc.Link != 1 || vc.Count != 8 || vc.Line != 5 {
		t.Errorf("vchan spec = %+v", vc)
	}
	if _, err := tool.BuildNetwork(topo, "", io.Discard); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		src  string
		want []string // substrings the error must carry
	}{
		{base + "vchan a.1", []string{"line 5", "count=N"}},
		{base + "vchan a.1 width=8", []string{"line 5", "count=N"}},
		{base + "vchan a.1 count=x", []string{"line 5", "bad vchan count"}},
		{base + "vchan a.1 count=1", []string{"line 5", "1 vchans on a link 1, want 2..32"}},
		{base + "vchan a.1 count=33", []string{"line 5", "33 vchans on a link 1, want 2..32"}},
		{base + "vchan a.9 count=8", []string{"line 5", "out of range"}},
		{base + "vchan ghost.1 count=8", []string{"line 5", "unknown transputer"}},
		{base + "vchan a.2 count=8", []string{"line 5", "unwired link end a.2"}},
		{base + "vchan a.0 count=8", []string{"line 5", "host link end a.0"}},
		{base + "vchan a.1 count=8\nvchan a.1 count=4",
			[]string{"line 6", "already multiplexed", "first at line 5"}},
		{base + "vchan a.1 count=8\nvchan b.2 count=4",
			[]string{"line 6", "already multiplexed", "first at line 5"}},
		{base + "vchan a.1 count=8\nfault drop a.1 rate=0.5",
			[]string{"line 6", "multiplexed link end a.1", "line 5"}},
		{base + "vchan a.1 count=8\nfault corrupt b.2 rate=0.5",
			[]string{"line 6", "multiplexed link end b.2", "line 5"}},
		{base + "vchan a.1 count=8\nfault halt b at=1ms",
			[]string{"line 6", "multiplexed link", "line 5"}},
	}
	for _, c := range cases {
		err := build(c.src)
		if err == nil {
			t.Errorf("build(%q) should fail", c.src)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("error %q for %q should mention %q", err, c.src, w)
			}
		}
	}
}

// TestParseFaultValidation: the build checks the script against the
// wiring, and every refusal names its line.
func TestParseFaultValidation(t *testing.T) {
	base := "transputer a t424\ntransputer b t424\nconnect a.0 b.0\n"
	cases := []struct {
		src  string
		want []string // substrings the error must carry
	}{
		{base + "fault sever a.1 at=1ms",
			[]string{"line 4", "unwired link end a.1"}},
		{base + "fault drop a.2 rate=0.5",
			[]string{"line 4", "unwired link end a.2"}},
		{base + "fault sever a.0 at=1ms\nfault sever a.0 at=2ms",
			[]string{"line 5", "a.0 is severed twice", "first at line 4"}},
		{base + "fault sever a.0 at=1ms\nfault sever b.0 at=2ms",
			[]string{"line 5", "b.0 is severed twice", "first at line 4"}},
		{base + "fault halt a at=1ms\nfault halt a at=2ms",
			[]string{"line 5", "duplicate halt", "line 4"}},
		{base + "fault restart a at=1ms",
			[]string{"line 4", "no matching halt"}},
		{base + "fault halt a at=2ms\nfault restart a at=1ms",
			[]string{"line 5", "does not follow its halt"}},
		{base + "fault halt a at=1ms\nfault restart a at=2ms\nfault restart a at=3ms",
			[]string{"line 6", "duplicate restart", "line 5"}},
	}
	for _, c := range cases {
		err := build(c.src)
		if err == nil {
			t.Errorf("build(%q) should fail", c.src)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("error %q for %q should mention %q", err, c.src, w)
			}
		}
	}
	// The same campaign against correct wiring is accepted.
	ok := base + "fault sever a.0 at=1ms\nfault halt a at=1ms\nfault restart a at=2ms\n"
	if err := build(ok); err != nil {
		t.Errorf("valid campaign rejected: %v", err)
	}
}
