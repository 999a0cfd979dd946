package network

import (
	"fmt"
	"strings"
	"testing"

	"transputer/internal/fault"
	"transputer/internal/sim"
)

func TestParseTopology(t *testing.T) {
	src := `
# the workstation of figure 6
transputer app  t424 mem=64K program=app.occ
transputer disk t424 program=disk.occ
transputer gfx  t222 mem=1M
connect app.1 disk.0
connect app.2 gfx.0
host app.0
input app 5 -10
run 100ms
`
	topo, err := ParseTopology(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Transputers) != 3 {
		t.Fatalf("transputers = %d", len(topo.Transputers))
	}
	if topo.Transputers[0].Name != "app" || topo.Transputers[0].MemBytes != 64*1024 ||
		topo.Transputers[0].Program != "app.occ" {
		t.Errorf("app spec = %+v", topo.Transputers[0])
	}
	if topo.Transputers[2].Model != "t222" || topo.Transputers[2].MemBytes != 1024*1024 {
		t.Errorf("gfx spec = %+v", topo.Transputers[2])
	}
	if len(topo.Connections) != 2 {
		t.Fatalf("connections = %d", len(topo.Connections))
	}
	c := topo.Connections[0]
	if c.A != "app" || c.ALink != 1 || c.B != "disk" || c.BLink != 0 {
		t.Errorf("connection = %+v", c)
	}
	if len(topo.Hosts) != 1 || topo.Hosts[0].Node != "app" || topo.Hosts[0].Link != 0 {
		t.Errorf("hosts = %+v", topo.Hosts)
	}
	if got := topo.Inputs["app"]; len(got) != 2 || got[0] != 5 || got[1] != -10 {
		t.Errorf("inputs = %v", got)
	}
	if topo.RunLimit != 100*sim.Millisecond {
		t.Errorf("run limit = %v", topo.RunLimit)
	}
}

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
		// hardening: duplicates, double wiring, bad references
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
		if _, err := ParseTopology(src); err == nil {
			t.Errorf("ParseTopology(%q) should fail", src)
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
		"transputer x t424\nroute\nmessage x x at=1us data=" + strings.Repeat("y", 2000): "topology line 3: message payload of 2000 bytes exceeds the 1024-byte cap",
	} {
		if _, err := ParseTopology(src); err == nil || err.Error() != want {
			t.Errorf("ParseTopology(%q) = %v, want %q", src, err, want)
		}
	}
	// An event at the limit itself is legal: RunUntil still fires it.
	if _, err := ParseTopology(ring + "fault halt n2 at=8ms\nmessage n0 n1 at=8ms data=x\nrun 8ms"); err != nil {
		t.Errorf("events at the run limit: %v", err)
	}
}

// TestParseTopologyErrorLines: every parse error names the offending
// line.
func TestParseTopologyErrorLines(t *testing.T) {
	src := "transputer x t424\ntransputer y t424\nconnect x.0 y.0\nconnect y.0 x.1\n"
	_, err := ParseTopology(src)
	if err == nil {
		t.Fatal("double-wired end accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "line 4") || !strings.Contains(msg, "line 3") {
		t.Errorf("error %q should name the clashing lines", msg)
	}
	_, err = ParseTopology("transputer x t424\n\ntransputer x t222\n")
	if err == nil || !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), "line 1") {
		t.Errorf("duplicate-name error %v should name both lines", err)
	}
	_, err = ParseTopology("transputer x t424\nroute\nrun -1ms\n")
	if want := `topology line 3: bad duration "-1ms"`; err == nil || err.Error() != want {
		t.Errorf("negative run limit: %v, want %q", err, want)
	}
	// The cross-directive checks run after the whole file is read; they
	// name the route line or the first message line.  A routed frame
	// names a node in one byte.
	var big strings.Builder
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&big, "transputer n%d t424\n", i)
	}
	for src, want := range map[string]string{
		"transputer x t424\nmessage x x at=1us data=a\nmessage x x at=2us data=b\n": "topology line 2: message directives require a route directive",
		"route\n" + big.String(): "topology line 1: route over 300 transputers exceeds the 256-node frame address space",
	} {
		if _, err := ParseTopology(src); err == nil || err.Error() != want {
			t.Errorf("ParseTopology(%q) = %v, want %q", src, err, want)
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
	_, err := ParseTopology(src.String())
	want := fmt.Sprintf("topology line %d: too many transputers: a system holds at most %d", sim.MaxPorts+1, sim.MaxPorts)
	if err == nil || err.Error() != want {
		t.Errorf("ParseTopology of 66000 transputers = %v, want %q", err, want)
	}
}

// TestParseFaultCampaign covers the seed, linkmode and fault
// directives.
func TestParseFaultCampaign(t *testing.T) {
	src := `
transputer a t424 program=a.occ
transputer b t424 program=b.occ
connect a.1 b.0
seed 42
linkmode reliable
fault drop a.1 rate=0.05 pkt=data
fault corrupt a.1 rate=0.01
fault jitter b.0 rate=0.5 max=2us
fault sever a.1 at=500us
fault halt b at=1ms
run 10ms
`
	topo, err := ParseTopology(src)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Seed != 42 {
		t.Errorf("seed = %d", topo.Seed)
	}
	if !topo.Reliable {
		t.Error("linkmode reliable left the topology plain")
	}
	if len(topo.Faults) != 5 {
		t.Fatalf("faults = %+v", topo.Faults)
	}
	d := topo.Faults[0]
	if d.Kind != fault.Drop || d.Node != "a" || d.Link != 1 || d.Rate != 0.05 || d.Pkt != fault.DataPacket {
		t.Errorf("drop rule = %+v", d)
	}
	j := topo.Faults[2]
	if j.Kind != fault.Jitter || j.Max != 2*sim.Microsecond {
		t.Errorf("jitter rule = %+v", j)
	}
	sv := topo.Faults[3]
	if sv.Kind != fault.Sever || sv.At != 500*sim.Microsecond {
		t.Errorf("sever rule = %+v", sv)
	}
	h := topo.Faults[4]
	if h.Kind != fault.Halt || h.Node != "b" || h.Link != -1 || h.At != sim.Millisecond {
		t.Errorf("halt rule = %+v", h)
	}
	plan := topo.Plan()
	if plan.Seed != 42 || len(plan.Rules) != 5 {
		t.Errorf("plan = %+v", plan)
	}
}

func TestParseDurations(t *testing.T) {
	cases := map[string]sim.Time{
		"5ms":   5 * sim.Millisecond,
		"10us":  10 * sim.Microsecond,
		"100ns": 100,
		"2s":    2 * sim.Second,
	}
	for s, want := range cases {
		got, err := parseDuration(s)
		if err != nil || got != want {
			t.Errorf("parseDuration(%q) = %v, %v", s, got, err)
		}
	}
}

// TestParseSelfHealing covers the route and message directives of a
// self-healing topology: route needs no linkmode line (the build turns
// the error-detecting mode on), and an outage of any length is
// accepted, even one shorter than the heartbeat timeout: no link
// stream is reset, so neither end has to notice it.
func TestParseSelfHealing(t *testing.T) {
	src := `
transputer a t424
transputer b t424
transputer c t424
connect a.0 b.1
connect b.0 c.1
connect c.0 a.1
route
message a c at=100us data=hello
fault sever a.0 at=200us
fault halt b at=300us
fault restart b at=500us
run 5ms
`
	topo, err := ParseTopology(src)
	if err != nil {
		t.Fatal(err)
	}
	if !topo.Route || topo.Reliable {
		t.Errorf("route = %v, reliable = %v", topo.Route, topo.Reliable)
	}
	if len(topo.Messages) != 1 {
		t.Fatalf("messages = %+v", topo.Messages)
	}
	m := topo.Messages[0]
	if m.From != "a" || m.To != "c" || m.At != 100*sim.Microsecond || m.Data != "hello" {
		t.Errorf("message = %+v", m)
	}
	r := topo.Faults[2]
	if r.Kind != fault.Restart || r.Node != "b" || r.Link != -1 || r.At != 500*sim.Microsecond {
		t.Errorf("restart rule = %+v", r)
	}
	blip := "transputer a t424\ntransputer b t424\nconnect a.0 b.0\nfault halt b at=100us\nfault restart b at=150us\nroute\n"
	if _, err := ParseTopology(blip); err != nil {
		t.Errorf("restart of b only 50µs after its halt: %v", err)
	}
}

// TestParseSelfHealingErrors rejects inconsistent self-healing
// directives at parse time.
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
		if _, err := ParseTopology(src); err == nil {
			t.Errorf("ParseTopology(%q) should fail", src)
		}
	}
}

// TestParseVChan covers the vchan directive and its cross-checks.
func TestParseVChan(t *testing.T) {
	base := "transputer a t424\ntransputer b t424\nconnect a.1 b.2\nhost a.0\n"
	topo, err := ParseTopology(base + "vchan a.1 count=8\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.VChans) != 1 {
		t.Fatalf("vchans = %+v", topo.VChans)
	}
	vc := topo.VChans[0]
	if vc.Node != "a" || vc.Link != 1 || vc.Count != 8 {
		t.Errorf("vchan spec = %+v", vc)
	}
	cases := []struct {
		src  string
		want []string // substrings the error must carry
	}{
		{base + "vchan a.1", []string{"line 5", "count=N"}},
		{base + "vchan a.1 width=8", []string{"line 5", "count=N"}},
		{base + "vchan a.1 count=1", []string{"line 5", "bad vchan count"}},
		{base + "vchan a.1 count=33", []string{"line 5", "bad vchan count"}},
		{base + "vchan a.9 count=8", []string{"line 5", "out of range"}},
		{base + "vchan ghost.1 count=8", []string{"line 5", "unknown transputer"}},
		{base + "vchan a.2 count=8", []string{"line 5", "unwired link end a.2"}},
		{base + "vchan a.0 count=8", []string{"line 5", "host link end a.0"}},
		{base + "vchan a.1 count=8\nvchan a.1 count=4",
			[]string{"line 6", "duplicate vchan", "line 5"}},
		{base + "vchan a.1 count=8\nvchan b.2 count=4",
			[]string{"line 6", "same wire", "line 5"}},
		{base + "vchan a.1 count=8\nfault drop a.1 rate=0.5",
			[]string{"line 6", "multiplexed link end a.1", "line 5"}},
		{base + "vchan a.1 count=8\nfault corrupt b.2 rate=0.5",
			[]string{"line 6", "multiplexed link end b.2", "line 5"}},
		{base + "vchan a.1 count=8\nfault halt b at=1ms",
			[]string{"line 6", "multiplexed link", "line 5"}},
	}
	for _, c := range cases {
		_, err := ParseTopology(c.src)
		if err == nil {
			t.Errorf("ParseTopology(%q) should fail", c.src)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("error %q for %q should mention %q", err, c.src, w)
			}
		}
	}
}

// TestParseDuplicateDirectives: a topology may give each of run, seed,
// linkmode and route at most once; a silent last-writer-wins
// overwrite would run a campaign other than the one written.
func TestParseDuplicateDirectives(t *testing.T) {
	cases := []struct {
		src  string
		want []string
	}{
		{"transputer x t424\nroute\nroute",
			[]string{"line 3", "duplicate route", "line 2"}},
		{"linkmode reliable\nlinkmode reliable",
			[]string{"line 2", "duplicate linkmode", "line 1"}},
		{"seed 1\ntransputer x t424\nseed 2",
			[]string{"line 3", "duplicate seed", "line 1"}},
		{"run 1ms\n\nrun 1ms",
			[]string{"line 3", "duplicate run", "line 1"}},
	}
	for _, c := range cases {
		_, err := ParseTopology(c.src)
		if err == nil {
			t.Errorf("ParseTopology(%q) should fail", c.src)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("error %q for %q should mention %q", err, c.src, w)
			}
		}
	}
}

// TestParseFaultValidation: the script is cross-checked against the
// wiring when the file is read, and every rejection names its line.
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
			[]string{"line 5", "duplicate sever", "line 4"}},
		{base + "fault sever a.0 at=1ms\nfault sever b.0 at=2ms",
			[]string{"line 5", "same link", "line 4"}},
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
		_, err := ParseTopology(c.src)
		if err == nil {
			t.Errorf("ParseTopology(%q) should fail", c.src)
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
	if _, err := ParseTopology(ok); err != nil {
		t.Errorf("valid campaign rejected: %v", err)
	}
}
