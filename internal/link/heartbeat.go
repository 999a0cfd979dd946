// Link liveness monitoring.
//
// The paper's protocol has no failure detector: a sender whose peer
// dies simply waits forever.  This file adds an opt-in heartbeat: each
// engine periodically sends a tiny beat packet (BeatBits) down every
// idle wire to another machine, records the last instant anything —
// data, acknowledge, NAK or beat — arrived on each link, and flips a
// per-link verdict when the silence exceeds a timeout; a link declared
// down has its sender paused (park), so nothing is resent into it until
// it is recovered.  Verdict changes are published as probe.Heartbeat
// events and reported to the OnVerdict callback, which the routing
// layer uses to steer traffic around dead links and back onto links
// that return.  The callback also hears the error-detecting mode's
// faster tripwire: a sender that spends its retry budget reports its
// link down at that instant (reliable.go), without touching the
// heartbeat's verdict.
//
// Beats ride the same serialised signal lines as real traffic, but
// only when the wire is idle, so they never delay data.  A host end is
// link 0 of an engine with no machine: it does not beat, and links
// wired to one are not monitored, since declaring the host dead for
// its silence would be wrong.  Heartbeat verdicts change only at tick
// instants, keeping detection deterministic under any shard schedule.
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
	running   bool
	timer     sim.EventID
	tick      func() // the engine's hbTick, bound once
	lastHeard [core.NumLinks]sim.Time
	peerDown  [core.NumLinks]bool
}

// SetHeartbeat enables the liveness monitor.  It does not run until
// StartHeartbeat is called.
func (e *Engine) SetHeartbeat() {
	e.useRouted()
	e.beat = true
}

// OnVerdict registers the link-verdict callback: up reports whether
// the link's peer was just declared alive (true) or unresponsive
// (false).  A down verdict has two causes: the heartbeat's silence
// timeout, and a sender in error-detecting mode spending its retry
// budget.  The second leaves the heartbeat's own verdict as it stands.
// Called from the engine's own shard.
func (e *Engine) OnVerdict(fn func(link int, up bool)) { e.useRouted().onVerdict = fn }

// StartHeartbeat begins monitoring: every link is presumed heard as of
// now, and the first beats go out one interval from now.  Verdicts
// carry over from a stopped monitor, so a link that was down when a
// halt stopped it is declared up when its peer is heard after the
// restart.  A no-op when the monitor is unconfigured or already
// running.
func (e *Engine) StartHeartbeat() {
	if !e.beat || e.routed.hb.running {
		return
	}
	hb := &e.routed.hb
	hb.running = true
	now := e.k.Now()
	for l := range hb.lastHeard {
		hb.lastHeard[l] = now
	}
	if hb.tick == nil {
		hb.tick = e.hbTick
	}
	hb.timer = e.k.After(beatInterval, hb.tick)
}

// StopHeartbeat cancels the monitor's recurring timer so the
// simulation can quiesce.  Verdicts are frozen as they stand.
func (e *Engine) StopHeartbeat() {
	if e.routed == nil || !e.routed.hb.running {
		return
	}
	e.routed.hb.running = false
	e.k.Cancel(e.routed.hb.timer)
}

// heard records that something arrived on link l just now.  Without a
// monitor configured nobody reads the stamp — StartHeartbeat resets
// every one — and this runs on every data byte and acknowledge.
func (e *Engine) heard(l int) {
	if e.beat {
		e.routed.hb.lastHeard[l] = e.k.Now()
	}
}

func (o *outHalf) heard() { o.eng.heard(o.link) }
func (in *inHalf) heard() { in.eng.heard(in.link) }

// beatArrive handles a liveness probe landing on this half's link.
func (in *inHalf) beatArrive() {
	in.heard()
}

// monitored reports whether link l joins the heartbeat exchange: it
// must be wired to another machine's engine.  A host end's engine has
// no machine and never beats.
func (e *Engine) monitored(l int) bool {
	return e.Connected(l) && e.outs[l].wire.rx.in.eng.m != nil
}

// hbTick is the periodic monitor body: pass verdicts on every
// monitored link, then beat the idle wires, then reschedule.
func (e *Engine) hbTick() {
	hb := &e.routed.hb
	if !hb.running {
		return
	}
	now := e.k.Now()
	for l := 0; l < core.NumLinks; l++ {
		if !e.monitored(l) {
			continue
		}
		silence := now - hb.lastHeard[l]
		switch {
		case !hb.peerDown[l] && silence > BeatTimeout:
			hb.peerDown[l] = true
			e.outs[l].park()
			if e.bus != nil {
				// Published directly, not via emit: heartbeat events are
				// link-clocked, and a CPU cycle stamp here would vary
				// with simulator batching (the block-cache invariant).
				e.bus.Publish(probe.Event{Kind: probe.Heartbeat, Time: now, Node: e.m.Name(), Link: l, Arg: 0, Dur: silence})
			}
			e.verdict(l, false)
		case hb.peerDown[l] && silence <= BeatTimeout:
			hb.peerDown[l] = false
			if e.bus != nil {
				e.bus.Publish(probe.Event{Kind: probe.Heartbeat, Time: now, Node: e.m.Name(), Link: l, Arg: 1, Dur: silence})
			}
			e.verdict(l, true)
		}
		// A beat goes out only when the wire is idle; real traffic is
		// its own proof of life.  Severed wires are still beaten — the
		// transmitting hardware cannot tell the cable is cut.
		if w := e.outs[l].wire; !w.busy && w.queueEmpty() {
			e.sendBeat(l)
		}
	}
	hb.timer = e.k.After(beatInterval, hb.tick)
}

func (e *Engine) sendBeat(l int) {
	e.outs[l].wire.send(packet{kind: pktBeat, bits: BeatBits})
}
