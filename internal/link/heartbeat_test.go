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
		e.OnHeartbeat(func(l int, up bool) {
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
