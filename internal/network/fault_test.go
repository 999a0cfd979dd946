package network_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"transputer/internal/core"
	"transputer/internal/fault"
	"transputer/internal/link"
	"transputer/internal/matrix"
	"transputer/internal/network"
	"transputer/internal/probe"
	"transputer/internal/sim"
)

// senderLoop outputs the words n..1 on link 1; receiverLoop reads n
// words from link 0 and sums them into local 3.
func senderLoop(n int) string {
	return fmt.Sprintf(`
	ldc %d
	stl 2
loop:
	ldl 2
	cj done
	ldl 2
	mint
	ldnlp 1        -- link 1 out
	outword
	ldl 2
	adc -1
	stl 2
	j loop
done:
	stopp
`, n)
}

func receiverLoop(n int) string {
	return fmt.Sprintf(`
	ldc 0
	stl 3
	ldc %d
	stl 2
loop:
	ldl 2
	cj done
	ldlp 1
	mint
	ldnlp 4        -- link 0 in
	ldc 4
	in
	ldl 3
	ldl 1
	add
	stl 3
	ldl 2
	adc -1
	stl 2
	j loop
done:
	stopp
`, n)
}

// lossyCampaign runs a 50-word transfer over a lossy wire in reliable
// mode under the given seed — the two nodes on a shard each when
// pinned, on the one shard a sequential run gets when not — returning
// the probe event stream and the metrics aggregator.
func lossyCampaign(t *testing.T, seed uint64, pinned bool) ([]string, *probe.Metrics) {
	t.Helper()
	s := network.NewSystem()
	bus := probe.NewBus()
	var events []string
	bus.Subscribe(func(e probe.Event) { events = append(events, fmt.Sprintf("%+v", e)) })
	met := probe.NewMetrics(bus)
	s.AttachProbe(bus)
	a := s.MustAddTransputer("a", cfg())
	b := s.MustAddTransputer("b", cfg())
	s.MustConnect(a, 1, b, 0)
	a.Engine.SetReliable(true, 2*sim.Microsecond, 64)
	b.Engine.SetReliable(true, 2*sim.Microsecond, 64)
	load(t, a, senderLoop(50))
	load(t, b, receiverLoop(50))
	err := s.ApplyFaults(fault.Plan{Seed: seed, Rules: []fault.Rule{
		{Kind: fault.Drop, Node: "a", Link: 1, Rate: 0.1},
		{Kind: fault.Corrupt, Node: "a", Link: 1, Rate: 0.1},
		{Kind: fault.Jitter, Node: "b", Link: 0, Rate: 0.3, Max: 500 * sim.Nanosecond},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if pinned {
		if err := s.SetPlacement(matrix.PrivateShards(s)); err != nil {
			t.Fatal(err)
		}
	}
	rep := s.Run(100 * sim.Millisecond)
	if !rep.Settled {
		t.Fatalf("lossy campaign did not settle: %+v", rep)
	}
	// Byte-exact delivery despite drops and corruption: the sum of
	// 50..1 survives only if every word arrived intact, exactly once.
	if got := b.M.Local(3); got != 1275 {
		t.Fatalf("sum = %d, want 1275 (message stream not byte-exact)", got)
	}
	met.Finish(rep.Time)
	return events, met
}

// TestLossyCampaignDeterminism: the same topology, program and seed
// produce an identical probe event stream, run after run and on either
// partition; a different seed produces a different one.
func TestLossyCampaignDeterminism(t *testing.T) {
	e1, m1 := lossyCampaign(t, 42, true)
	for _, pinned := range []bool{true, false} {
		e2, _ := lossyCampaign(t, 42, pinned)
		if len(e1) != len(e2) {
			t.Fatalf("pinned=%v: event counts differ between identical runs: %d vs %d", pinned, len(e1), len(e2))
		}
		for i := range e1 {
			if e1[i] != e2[i] {
				t.Fatalf("pinned=%v: event %d differs between identical runs:\n  %s\n  %s", pinned, i, e1[i], e2[i])
			}
		}
	}
	if m1.Retransmits("a", 1) == 0 {
		t.Error("lossy run recorded no retransmits")
	}
	drops, corrupts, _ := m1.FaultCounts("a", 1)
	if drops == 0 || corrupts == 0 {
		t.Errorf("fault counters: %d drops, %d corrupts, want both > 0", drops, corrupts)
	}
	e3, _ := lossyCampaign(t, 7, true)
	same := len(e3) == len(e1)
	if same {
		for i := range e1 {
			if e1[i] != e3[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical event streams")
	}
}

// jitterCampaign runs a 30-word reliable-mode transfer with every
// acknowledge jittered by up to max, checks the delivered sum is exact
// (no word lost, none duplicated), and returns the retransmit count.
// The data wire is left clean: a delayed data packet also delays its
// own transmit-end, so only acknowledge jitter races the sender's
// retransmit timer.
func jitterCampaign(t *testing.T, max sim.Time) uint64 {
	t.Helper()
	s := network.NewSystem()
	bus := probe.NewBus()
	met := probe.NewMetrics(bus)
	s.AttachProbe(bus)
	a := s.MustAddTransputer("a", cfg())
	b := s.MustAddTransputer("b", cfg())
	s.MustConnect(a, 1, b, 0)
	a.Engine.SetReliable(true, 10*sim.Microsecond, 64)
	b.Engine.SetReliable(true, 10*sim.Microsecond, 64)
	load(t, a, senderLoop(30))
	load(t, b, receiverLoop(30))
	err := s.ApplyFaults(fault.Plan{Seed: 99, Rules: []fault.Rule{
		{Kind: fault.Jitter, Node: "b", Link: 0, Rate: 1, Max: max},
	}})
	if err != nil {
		t.Fatal(err)
	}
	rep := s.Run(100 * sim.Millisecond)
	if !rep.Settled {
		t.Fatalf("jittered campaign did not settle: %+v", rep)
	}
	if got := b.M.Local(3); got != 465 {
		t.Fatalf("sum = %d, want 465 (jitter duplicated or lost a word)", got)
	}
	met.Finish(rep.Time)
	return met.Retransmits("a", 1)
}

// TestJitterRetransmitRace: acknowledge jitter bounded just below the
// retransmit timeout must never fire the timer; jitter reaching just
// beyond it must — and the retransmissions the late acknowledges cross
// with must be suppressed by the alternating sequence bit, not
// delivered twice.  (Far larger jitter is a different regime: every
// retransmission draws a re-acknowledge that queues behind the delayed
// ones, the return wire falls permanently behind and the sender
// rightly declares the link down.)
func TestJitterRetransmitRace(t *testing.T) {
	if r := jitterCampaign(t, 8*sim.Microsecond); r != 0 {
		t.Errorf("jitter below the timeout caused %d retransmits", r)
	}
	if r := jitterCampaign(t, 12*sim.Microsecond); r == 0 {
		t.Error("jitter beyond the timeout caused no retransmits")
	}
}

// TestSeverWatchdog: a link severed mid-stream strands the sender and
// receiver; the settled system's watchdog names both processes, their
// block kinds and the severed link.
func TestSeverWatchdog(t *testing.T) {
	for _, pinned := range []bool{true, false} {
		t.Run(fmt.Sprintf("pinned=%v", pinned), func(t *testing.T) { severWatchdog(t, pinned) })
	}
}

// severWatchdog cuts the wire with the ends on a shard each (the cut
// crosses a barrier to reach the far end) or on one.
func severWatchdog(t *testing.T, pinned bool) {
	s := network.NewSystem()
	bus := probe.NewBus()
	var deadlocks []probe.Event
	bus.Subscribe(func(e probe.Event) {
		if e.Kind == probe.Deadlock {
			deadlocks = append(deadlocks, e)
		}
	})
	s.AttachProbe(bus)
	a := s.MustAddTransputer("a", cfg())
	b := s.MustAddTransputer("b", cfg())
	s.MustConnect(a, 1, b, 0)
	load(t, a, senderLoop(10000))
	load(t, b, receiverLoop(10000))
	err := s.ApplyFaults(fault.Plan{Rules: []fault.Rule{
		{Kind: fault.Sever, Node: "a", Link: 1, At: 50 * sim.Microsecond},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if pinned {
		if err := s.SetPlacement(matrix.PrivateShards(s)); err != nil {
			t.Fatal(err)
		}
	}
	rep := s.Run(10 * sim.Millisecond)
	if !rep.Settled {
		t.Fatalf("severed system should settle: %+v", rep)
	}
	wd := s.Watchdog()
	if wd == nil {
		t.Fatal("watchdog found nothing after sever")
	}
	if len(wd.Procs) != 2 {
		t.Fatalf("watchdog procs = %+v, want sender and receiver", wd.Procs)
	}
	kinds := map[string]core.BlockKind{}
	for _, p := range wd.Procs {
		kinds[p.Node] = p.Kind
		if p.Link != -1 && p.Link != 1 && p.Link != 0 {
			t.Errorf("proc on %s blames link %d", p.Node, p.Link)
		}
		if p.Addr == 0 {
			t.Errorf("proc on %s has no channel address", p.Node)
		}
	}
	if kinds["a"] != core.BlockLinkOut || kinds["b"] != core.BlockLinkIn {
		t.Errorf("block kinds = %v, want a:link-out b:link-in", kinds)
	}
	if len(deadlocks) != 2 {
		t.Errorf("probe bus saw %d deadlock events, want 2", len(deadlocks))
	}
	if !strings.Contains(wd.String(), "a:") || !strings.Contains(wd.String(), "b:") {
		t.Errorf("report does not name both nodes:\n%s", wd)
	}
}

// TestRetryExhaustionWatchdog: an unrouted reliable pair whose data
// packets all drop.  The sender spends its retry budget with its
// process blocked on the link, so the watchdog reports the blocked
// output and, on its own line, the link it waits on as DOWN.
func TestRetryExhaustionWatchdog(t *testing.T) {
	s := network.NewSystem()
	a := s.MustAddTransputer("a", cfg())
	b := s.MustAddTransputer("b", cfg())
	s.MustConnect(a, 1, b, 0)
	s.SetReliable()
	load(t, a, senderLoop(10))
	load(t, b, receiverLoop(10))
	err := s.ApplyFaults(fault.Plan{Rules: []fault.Rule{
		{Kind: fault.Drop, Node: "a", Link: 1, Rate: 1, Pkt: fault.DataPacket},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if rep := s.Run(10 * sim.Millisecond); !rep.Settled {
		t.Fatalf("a pair with a dead data line should settle: %+v", rep)
	}
	wd := s.Watchdog()
	if wd == nil {
		t.Fatal("watchdog found nothing on a link whose retries ran out")
	}
	out := wd.String()
	// The budget is spent on the retry that exceeds it.
	for _, line := range []string{
		"blocked on link output, link 1",
		fmt.Sprintf("  a: link 1 DOWN after %d retries\n", link.DefaultRelRetries+1),
	} {
		if !strings.Contains(out, line) {
			t.Errorf("report lacks %q:\n%s", line, out)
		}
	}
	if len(wd.DownLinks) != 1 {
		t.Errorf("down links %+v, want only a's link 1", wd.DownLinks)
	}
}

// TestHaltFault: a halted node is reported as halted, not deadlocked,
// and its stranded peer shows up in the watchdog.
func TestHaltFault(t *testing.T) {
	for _, pinned := range []bool{true, false} {
		t.Run(fmt.Sprintf("pinned=%v", pinned), func(t *testing.T) { haltFault(t, pinned) })
	}
}

func haltFault(t *testing.T, pinned bool) {
	s := network.NewSystem()
	a := s.MustAddTransputer("a", cfg())
	b := s.MustAddTransputer("b", cfg())
	s.MustConnect(a, 1, b, 0)
	load(t, a, senderLoop(10000))
	load(t, b, receiverLoop(10000))
	err := s.ApplyFaults(fault.Plan{Rules: []fault.Rule{
		{Kind: fault.Halt, Node: "b", Link: -1, At: 50 * sim.Microsecond},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if pinned {
		if err := s.SetPlacement(matrix.PrivateShards(s)); err != nil {
			t.Fatal(err)
		}
	}
	rep := s.Run(10 * sim.Millisecond)
	if !rep.Settled {
		t.Fatalf("system with halted node should settle: %+v", rep)
	}
	if len(rep.Halted) != 1 || rep.Halted[0] != "b" {
		t.Fatalf("Halted = %v, want [b]", rep.Halted)
	}
	if err := b.M.Fault(); err == nil || !strings.Contains(err.Error(), "fault injection") {
		t.Errorf("halted node's fault = %v", err)
	}
	wd := s.Watchdog()
	if wd == nil {
		t.Fatal("watchdog missed the stranded sender")
	}
	if len(wd.Procs) != 1 || wd.Procs[0].Node != "a" || wd.Procs[0].Kind != core.BlockLinkOut {
		t.Errorf("watchdog procs = %+v, want a blocked on link output", wd.Procs)
	}
}

// TestUnwiredFaultTarget: a plan naming an unwired link end is an
// error, not a silent no-op.
func TestUnwiredFaultTarget(t *testing.T) {
	s := network.NewSystem()
	s.MustAddTransputer("a", cfg())
	err := s.ApplyFaults(fault.Plan{Rules: []fault.Rule{
		{Kind: fault.Drop, Node: "a", Link: 2, Rate: 0.5},
	}})
	if err == nil {
		t.Error("fault on unwired link should be rejected")
	}
}

// TestApplyFaultsRefusesRules: a Go caller gets the system's checks of
// a plan, each refusal a *fault.RuleError naming the rule and the
// earlier rule it clashes with; a refused plan installs nothing.  A
// fault on a multiplexed wire is refused by whichever of ApplyFaults
// and EnableVChans comes second.
func TestApplyFaultsRefusesRules(t *testing.T) {
	build := func() (*network.System, *network.Node, *network.Node) {
		s := network.NewSystem()
		a := s.MustAddTransputer("a", cfg())
		b := s.MustAddTransputer("b", cfg())
		s.MustConnect(a, 0, b, 0)
		s.MustConnect(a, 1, b, 1)
		return s, a, b
	}
	sever := func(node string, l int, at sim.Time) fault.Rule {
		return fault.Rule{Kind: fault.Sever, Node: node, Link: l, At: at}
	}
	halt := func(node string, at sim.Time) fault.Rule {
		return fault.Rule{Kind: fault.Halt, Node: node, Link: -1, At: at}
	}
	cases := []struct {
		name       string
		rules      []fault.Rule
		rule, prev int
		want       string
	}{
		{"drop on a multiplexed wire", []fault.Rule{{Kind: fault.Drop, Node: "b", Link: 1, Rate: 0.5}}, 0, -1,
			"network: fault drop targets multiplexed link end b.1"},
		{"halt beside a multiplexed wire", []fault.Rule{halt("a", sim.Millisecond)}, 0, -1,
			`network: fault halt of "a" touches multiplexed link end a.1`},
		{"both ends of one link severed", []fault.Rule{sever("a", 0, sim.Millisecond), sever("b", 0, 2*sim.Millisecond)}, 1, 0,
			"network: the link at b.0 is severed twice"},
		{"one end severed twice", []fault.Rule{sever("a", 0, sim.Millisecond), sever("a", 0, 2*sim.Millisecond)}, 1, 0,
			"network: the link at a.0 is severed twice"},
		{"a node halted twice", []fault.Rule{halt("b", sim.Millisecond), halt("b", 2*sim.Millisecond)}, 1, 0,
			`fault: duplicate halt of "b"`},
		{"a rule on ghost", []fault.Rule{sever("a", 0, sim.Millisecond), halt("ghost", sim.Millisecond)}, 1, -1,
			`network: fault halt targets unknown transputer "ghost"`},
		{"an unwired end", []fault.Rule{{Kind: fault.Corrupt, Node: "a", Link: 3, Rate: 1}}, 0, -1,
			"network: fault corrupt targets unwired link end a.3"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, a, _ := build()
			if err := s.EnableVChans(a, 1, 4); err != nil {
				t.Fatal(err)
			}
			err := s.ApplyFaults(fault.Plan{Rules: c.rules})
			var re *fault.RuleError
			if !errors.As(err, &re) || re.Rule != c.rule || re.Prev != c.prev || re.Err.Error() != c.want {
				t.Fatalf("ApplyFaults = %#v, want rule %d, prev %d: %s", err, c.rule, c.prev, c.want)
			}
			if rep := s.Run(3 * sim.Millisecond); len(rep.Halted) != 0 {
				t.Errorf("a refused plan halted %v", rep.Halted)
			}
		})
	}
	// Faults first, then the vchans: EnableVChans refuses.
	s, a, _ := build()
	if err := s.ApplyFaults(fault.Plan{Rules: []fault.Rule{{Kind: fault.Jitter, Node: "b", Link: 1, Rate: 1, Max: sim.Microsecond}}}); err != nil {
		t.Fatal(err)
	}
	if err := s.EnableVChans(a, 1, 4); err == nil || !strings.Contains(err.Error(), "a wire the fault plan touches") {
		t.Errorf("EnableVChans on a faulted wire = %v", err)
	}
	if err := s.EnableVChans(a, 0, 4); err != nil {
		t.Errorf("EnableVChans on the other wire: %v", err)
	}
}

// TestHostStallMidMessage: a program that stops after sending half a
// command word leaves the host mid-message; that surfaces as a
// structured stall, not a silent block.
func TestHostStallMidMessage(t *testing.T) {
	s := network.NewSystem()
	n := s.MustAddTransputer("app", cfg())
	host, err := s.AttachHost(n, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	load(t, n, `
	ldlp 1
	mint
	ldc 2
	out            -- two bytes of a four-byte command word
	stopp
`)
	rep := s.Run(sim.Millisecond)
	if !rep.Settled {
		t.Fatalf("did not settle: %+v", rep)
	}
	st := host.Stall()
	if st == nil {
		t.Fatal("mid-message EOF not detected")
	}
	if st.Node != "app" || st.Link != 0 || st.Got != 2 || st.Want != 4 || st.Out {
		t.Errorf("stall = %+v", st)
	}
	wd := s.Watchdog()
	if wd == nil || len(wd.HostStalls) != 1 {
		t.Fatalf("watchdog should surface the host stall: %+v", wd)
	}
	if !strings.Contains(st.Error(), "2 of 4 bytes") {
		t.Errorf("stall error = %q", st.Error())
	}
}
