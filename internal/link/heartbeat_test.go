package link

import "testing"

// TestHeartbeatStartedAfterTraffic: arrivals are stamped only while a
// monitor is configured, so one configured and started late — long after
// the link's last traffic, further than the verdict timeout — must take
// "now" as the last time it heard, not the stale silence before it.
func TestHeartbeatStartedAfterTraffic(t *testing.T) {
	c, ma, mb, ea, eb := portPair(1, false)
	eb.BeginInput(0, mb.MemStart()+4096, 64, nil)
	ea.BeginOutput(1, ma.MemStart(), 64, nil)
	lateStart := 4 * BeatTimeout
	if !c.RunUntil(lateStart) {
		t.Fatal("the stream should have drained long before the monitor starts")
	}
	if got := eb.ins[0].received; got != 64 {
		t.Fatalf("%d of 64 bytes streamed", got)
	}

	var verdicts []string
	for name, e := range map[string]*Engine{"a": ea, "b": eb} {
		e.SetHeartbeat()
		e.OnVerdict(func(l int, up bool) {
			if !up {
				verdicts = append(verdicts, name)
			}
		})
		e.StartHeartbeat()
	}
	c.RunUntil(lateStart + 3*BeatTimeout)
	ea.StopHeartbeat()
	eb.StopHeartbeat()
	c.Run()
	if len(verdicts) != 0 {
		t.Errorf("down verdicts from %v: a monitor started on a quiet, healthy link declared its peer dead", verdicts)
	}
	if ea.WireStats(1).Beats == 0 || eb.WireStats(0).Beats == 0 {
		t.Error("no beats were exchanged: the monitors did not run")
	}
}

// TestRetryExhaustionVerdict: a reliable pair whose data packets all
// drop while beats still cross.  The sender's spent retry budget is a
// down verdict of its own: the callback hears (link, false) exactly
// once, after the link is marked failed, while the heartbeat — which
// keeps hearing beats — holds its verdict up.
func TestRetryExhaustionVerdict(t *testing.T) {
	c, ma, mb, ea, eb := portPair(1, false)
	type verdict struct {
		link   int
		up     bool
		failed bool
	}
	var got []verdict
	for _, e := range []*Engine{ea, eb} {
		e.SetReliable(true, 0, 0)
		e.SetHeartbeat()
	}
	ea.OnVerdict(func(l int, up bool) {
		got = append(got, verdict{l, up, ea.outs[l].failed()})
	})
	eb.OnVerdict(func(l int, up bool) { t.Errorf("receiver verdict (%d, %v)", l, up) })
	ea.SetFaultHook(1, func(isCtl bool) FaultAction { return FaultAction{Drop: !isCtl} })
	ea.StartHeartbeat()
	eb.StartHeartbeat()
	eb.BeginInput(0, mb.MemStart()+64, 4, nil)
	ea.BeginOutput(1, ma.MemStart(), 4, nil)
	c.RunUntil(10 * BeatTimeout)
	ea.StopHeartbeat()
	eb.StopHeartbeat()
	c.Run()
	if want := []verdict{{1, false, true}}; len(got) != 1 || got[0] != want[0] {
		t.Errorf("verdicts %+v, want %+v", got, want)
	}
	if down, retries := ea.LinkDown(1); !down || retries <= DefaultRelRetries {
		t.Errorf("LinkDown = %v after %d retries; want the budget of %d spent", down, retries, DefaultRelRetries)
	}
	if ea.routed.hb.peerDown[1] || eb.routed.hb.peerDown[0] {
		t.Error("the heartbeat declared a link down although beats kept crossing it")
	}
}

// TestVerdictSurvivesRestart: a monitor stopped and started again — a
// halt and its restart — keeps its verdicts.  A pair goes silent until
// both ends declare the link down; both boards halt and resume, the
// wire comes back, and each end must hear its peer with exactly one up
// verdict, which is what brings a router's link back.
func TestVerdictSurvivesRestart(t *testing.T) {
	c, _, _, ea, eb := portPair(1, false)
	type verdict struct {
		link int
		up   bool
	}
	got := map[string][]verdict{}
	for name, e := range map[string]*Engine{"a": ea, "b": eb} {
		e.SetHeartbeat()
		e.OnVerdict(func(l int, up bool) { got[name] = append(got[name], verdict{l, up}) })
		e.StartHeartbeat()
	}
	deaf := func(bool) FaultAction { return FaultAction{Drop: true} }
	ea.SetFaultHook(1, deaf)
	eb.SetFaultHook(0, deaf)
	c.RunUntil(3 * BeatTimeout)
	if !ea.routed.hb.peerDown[1] || !eb.routed.hb.peerDown[0] {
		t.Fatalf("a silent link is not down at both ends: %+v", got)
	}
	ea.Halt()
	eb.Halt()
	ea.SetFaultHook(1, nil)
	eb.SetFaultHook(0, nil)
	ea.Resume()
	eb.Resume()
	c.RunUntil(6 * BeatTimeout)
	ea.StopHeartbeat()
	eb.StopHeartbeat()
	c.Run()
	want := map[string][]verdict{"a": {{1, false}, {1, true}}, "b": {{0, false}, {0, true}}}
	for name, w := range want {
		if g := got[name]; len(g) != len(w) || g[0] != w[0] || g[1] != w[1] {
			t.Errorf("%s's verdicts %+v, want %+v", name, g, w)
		}
	}
}
