package tool

import (
	"errors"
	"io"
	"testing"

	"transputer/internal/fault"
	"transputer/internal/network"
	"transputer/internal/sim"
)

// TestBuildRefusesTopologyRules: the rules only a topology states are
// the build's, for a topology built in code as for a parsed one.  A
// topology built in code has no lines, so its refusals are the bare
// errors; a parsed one's name the line.
func TestBuildRefusesTopologyRules(t *testing.T) {
	pair := func() *network.Topology {
		return &network.Topology{
			Transputers: []network.TransputerSpec{{Name: "a", Model: "t424"}, {Name: "b", Model: "t424"}},
			Connections: []network.Connection{{A: "a", ALink: 0, B: "b", BLink: 0}},
		}
	}
	cases := []struct {
		name string
		edit func(*network.Topology)
		want string
	}{
		// With no route there is no router to send them.
		{"messages without route", func(topo *network.Topology) {
			topo.Messages = []network.MessageSpec{{From: "a", To: "b", At: sim.Microsecond, Data: "x"}}
		}, "message directives require a route directive"},
		// With no host nothing would read the words.
		{"input for a node with no host", func(topo *network.Topology) {
			topo.Inputs = map[string][]int64{"b": {1, 2}}
		}, `input for "b", which has no host`},
		{"input for an unknown node", func(topo *network.Topology) {
			topo.Hosts = []network.HostSpec{{Node: "a", Link: 1}}
			topo.Inputs = map[string][]int64{"a": {1}, "ghost": {2}}
		}, `unknown transputer "ghost"`},
		{"a message after the run limit", func(topo *network.Topology) {
			topo.Route, topo.RunLimit = true, sim.Millisecond
			topo.Messages = []network.MessageSpec{{From: "a", To: "b", At: 2 * sim.Millisecond}}
		}, "message at 2.000ms is after the run limit of 1.000ms"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			topo := pair()
			c.edit(topo)
			if _, err := BuildNetwork(topo, "", io.Discard); err == nil || err.Error() != c.want {
				t.Fatalf("BuildNetwork = %v, want %q", err, c.want)
			}
		})
	}
	// A zero run limit runs to quiescence, so nothing comes after it.
	topo := pair()
	topo.Route = true
	topo.Messages = []network.MessageSpec{{From: "a", To: "b", At: sim.Second}}
	topo.Faults = []fault.Rule{{Kind: fault.Sever, Node: "a", Link: 0, At: 2 * sim.Second}}
	if _, err := BuildNetwork(topo, "", io.Discard); err != nil {
		t.Errorf("events in a run to quiescence: %v", err)
	}
	// A plan built in code is refused as the system refuses it.
	topo = pair()
	topo.Faults = []fault.Rule{{Kind: fault.Halt, Node: "b", Link: -1, At: 1}, {Kind: fault.Halt, Node: "b", Link: -1, At: 2}}
	var re *fault.RuleError
	if _, err := BuildNetwork(topo, "", io.Discard); !errors.As(err, &re) || re.Rule != 1 || re.Prev != 0 {
		t.Errorf("a node halted twice: %v", err)
	}
}

// TestBuildPlacesRefusals: a parsed topology's refusal names the line
// of the spec being built, and of the earlier spec it clashes with.  A
// clash is placed at the second of the two specs whatever order the
// build takes them in: hosts are attached after connections.
func TestBuildPlacesRefusals(t *testing.T) {
	const pair = "transputer a t424\ntransputer b t424\n"
	for src, want := range map[string]string{
		pair + "input b 1 2\nhost a.0\n":                                                            `topology line 3: input for "b", which has no host`,
		"host a.0\n" + pair + "connect a.0 b.0\n":                                                   "topology line 4: network: link end a.0 already wired (first at line 1)",
		pair + "connect a.0 b.0\nhost a.0\n":                                                        "topology line 4: network: link end a.0 already wired (first at line 3)",
		pair + "host a.0\nvchan a.0 count=2\n":                                                      "topology line 4: network: vchan on host link end a.0 (vchans need a transputer-to-transputer connect)",
		pair + "connect a.0 b.0\nroute\nmessage a b at=1us data=x\nmessage a ghost at=2us data=y\n": `topology line 6: route: unknown destination "ghost"`,
		pair + "connect a.1 b.1\nvchan b.1 count=4\nfault jitter a.1 rate=1 max=1us\n":              "topology line 5: network: fault jitter targets multiplexed link end a.1 (vchan at line 4)",
	} {
		topo, err := network.ParseTopology(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := BuildNetwork(topo, "", io.Discard); err == nil || err.Error() != want {
			t.Errorf("BuildNetwork(%q) = %v, want %q", src, err, want)
		}
	}
}
