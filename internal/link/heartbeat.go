// Link liveness monitoring.
//
// The paper's protocol has no failure detector: a sender whose peer
// dies simply waits forever.  This file adds an opt-in heartbeat: each
// engine periodically sends a tiny beat packet (BeatBits) down every
// idle engine-to-engine wire, records the last instant anything —
// data, acknowledge, NAK or beat — arrived on each link, and flips a
// per-link verdict when the silence exceeds a timeout.  Verdict
// changes are published as probe.Heartbeat events and reported to the
// OnHeartbeat callback, which the routing layer uses to steer traffic
// around dead links and to resynchronise links that come back.
//
// Beats ride the same serialised signal lines as real traffic, but
// only when the wire is idle, so they never delay data.  Host-wired
// links are not monitored: host ends do not beat, and declaring the
// host dead for its silence would be wrong.  Verdicts change only at
// tick instants, keeping detection deterministic under any shard
// schedule.
package link

import (
	"transputer/internal/core"
	"transputer/internal/probe"
	"transputer/internal/sim"
)

// The monitor's timing is fixed, like the rest of the link protocol:
// a beat every 20 µs and a verdict after 100 µs of silence — five
// missed beats, comfortably above the error-detecting mode's per-byte
// retransmission timeout.
const (
	beatInterval = 20 * sim.Microsecond
	// BeatTimeout is the silence after which a link's peer is declared
	// unresponsive.
	BeatTimeout = 100 * sim.Microsecond
)

// heartbeat is one engine's liveness-monitor state.
type heartbeat struct {
	configured bool
	running    bool
	timer      sim.EventID
	tick       func() // the engine's hbTick, bound once
	lastHeard  [core.NumLinks]sim.Time
	peerDown   [core.NumLinks]bool
}

// SetHeartbeat enables the liveness monitor.  It does not run until
// StartHeartbeat is called.
func (e *Engine) SetHeartbeat() { e.hb.configured = true }

// OnHeartbeat registers the verdict-change callback: up reports
// whether the link's peer was just declared alive (true) or
// unresponsive (false).  Called from the engine's own shard.
func (e *Engine) OnHeartbeat(fn func(link int, up bool)) { e.onBeat = fn }

// StartHeartbeat begins monitoring: every link is presumed alive as of
// now, and the first beats go out one interval from now.  A no-op when
// the monitor is unconfigured or already running.
func (e *Engine) StartHeartbeat() {
	if !e.hb.configured || e.hb.running {
		return
	}
	e.hb.running = true
	now := e.k.Now()
	for l := range e.hb.lastHeard {
		e.hb.lastHeard[l] = now
		e.hb.peerDown[l] = false
	}
	if e.hb.tick == nil {
		e.hb.tick = e.hbTick
	}
	e.hb.timer = e.k.After(beatInterval, e.hb.tick)
}

// StopHeartbeat cancels the monitor's recurring timer so the
// simulation can quiesce.  Verdicts are frozen as they stand.
func (e *Engine) StopHeartbeat() {
	if !e.hb.running {
		return
	}
	e.hb.running = false
	e.k.Cancel(e.hb.timer)
}

// heard records that something arrived on link l just now.  Without a
// monitor configured nobody reads the stamp — StartHeartbeat resets
// every one — and this runs on every data byte and acknowledge.
func (e *Engine) heard(l int) {
	if e.hb.configured {
		e.hb.lastHeard[l] = e.k.Now()
	}
}

func (o *outHalf) heard() {
	if o.eng != nil {
		o.eng.heard(o.link)
	}
}

func (in *inHalf) heard() {
	if in.eng != nil {
		in.eng.heard(in.link)
	}
}

// beatArrive handles a liveness probe landing on this half's link.
func (in *inHalf) beatArrive() {
	in.heard()
}

// monitored reports whether link l joins the heartbeat exchange: it
// must be wired to another engine.  Host ends never beat.
func (e *Engine) monitored(l int) bool {
	w := e.outs[l].wire
	return w != nil && w.rx.in.eng != nil
}

// hbTick is the periodic monitor body: pass verdicts on every
// monitored link, then beat the idle wires, then reschedule.
func (e *Engine) hbTick() {
	if !e.hb.running {
		return
	}
	now := e.k.Now()
	for l := 0; l < core.NumLinks; l++ {
		if !e.monitored(l) {
			continue
		}
		silence := now - e.hb.lastHeard[l]
		switch {
		case !e.hb.peerDown[l] && silence > BeatTimeout:
			e.hb.peerDown[l] = true
			if e.bus != nil {
				// Published directly, not via emit: heartbeat events are
				// link-clocked, and a CPU cycle stamp here would vary
				// with simulator batching (the block-cache invariant).
				e.bus.Publish(probe.Event{Kind: probe.Heartbeat, Time: now, Node: e.m.Name(), Link: l, Arg: 0, Dur: silence})
			}
			if e.onBeat != nil {
				e.onBeat(l, false)
			}
		case e.hb.peerDown[l] && silence <= BeatTimeout:
			e.hb.peerDown[l] = false
			if e.bus != nil {
				e.bus.Publish(probe.Event{Kind: probe.Heartbeat, Time: now, Node: e.m.Name(), Link: l, Arg: 1, Dur: silence})
			}
			if e.onBeat != nil {
				e.onBeat(l, true)
			}
		}
		// A beat goes out only when the wire is idle; real traffic is
		// its own proof of life.  Severed wires are still beaten — the
		// transmitting hardware cannot tell the cable is cut.
		if w := e.outs[l].wire; !w.busy && w.queueEmpty() {
			e.sendBeat(l)
		}
	}
	e.hb.timer = e.k.After(beatInterval, e.hb.tick)
}

func (e *Engine) sendBeat(l int) {
	e.outs[l].wire.send(packet{kind: pktBeat, bits: BeatBits})
}
