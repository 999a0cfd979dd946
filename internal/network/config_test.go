package network

import (
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
