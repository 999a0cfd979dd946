package network

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"transputer/internal/core"
	"transputer/internal/fault"
	"transputer/internal/link"
	"transputer/internal/probe"
	"transputer/internal/sim"
)

// SetLinkMode selects the link protocol for the whole system: the
// paper's plain 11-bit protocol (the default) or the error-detecting
// mode with CRC trailers, NAKs and bounded retransmission.  It applies
// to every node and host already in the system and to any added later.
func (s *System) SetLinkMode(m LinkMode) {
	s.linkMode = m
	for _, n := range s.nodes {
		n.Engine.SetReliable(m.Reliable, m.Timeout, m.Retries)
	}
	for _, h := range s.hosts {
		h.end.SetReliable(m.Reliable, m.Timeout, m.Retries)
	}
}

// ApplyFaults installs a seeded fault plan: per-packet hooks on the
// targeted wires, and scheduled severs and halts on the kernel.  Call
// it after the topology is fully wired and before Run.
func (s *System) ApplyFaults(plan fault.Plan) error {
	if plan.Empty() {
		return nil
	}
	inj, err := fault.NewInjector(plan)
	if err != nil {
		return err
	}
	if s.heartbeat {
		// With liveness monitoring on, peers resynchronise their link
		// streams at the heartbeat down verdict and the restarted node
		// resets its own at boot.  An outage shorter than the detection
		// window would reset only one end and desynchronise the byte
		// stream, so reject such plans outright.
		for i, r := range plan.Rules {
			if r.Kind != fault.Restart {
				continue
			}
			var haltAt sim.Time
			for _, h := range plan.Rules {
				if h.Kind == fault.Halt && h.Node == r.Node && h.At < r.At && h.At > haltAt {
					haltAt = h.At
				}
			}
			if haltAt > 0 && r.At-haltAt < 2*link.BeatTimeout {
				return fmt.Errorf("network: rule %d: restart of %q only %v after its halt; "+
					"outages must exceed twice the heartbeat timeout (%v) for link streams to resynchronise",
					i, r.Node, r.At-haltAt, link.BeatTimeout)
			}
		}
	}
	for _, n := range s.nodes {
		for l := 0; l < core.NumLinks; l++ {
			hook := inj.WireHook(n.Name, l)
			if hook == nil {
				continue
			}
			if !n.Engine.Connected(l) {
				return fmt.Errorf("network: fault targets unwired link end %s.%d", n.Name, l)
			}
			n.Engine.SetFaultHook(l, hook)
		}
	}
	for _, r := range inj.Timed() {
		n, ok := s.byName[r.Node]
		if !ok {
			return fmt.Errorf("network: fault targets unknown transputer %q", r.Node)
		}
		switch r.Kind {
		case fault.Sever:
			if !n.Engine.Connected(r.Link) {
				return fmt.Errorf("network: sever targets unwired link end %s.%d", n.Name, r.Link)
			}
			lnk := r.Link
			// Timed faults act on one node, so they live on that node's
			// shard and fire in its deterministic event order.
			n.port.Schedule(r.At, func() { n.Engine.SeverLink(lnk) })
		case fault.Halt:
			n.port.Schedule(r.At, func() {
				n.M.ForceHalt("fault injection")
				n.Engine.StopHeartbeat()
				n.Engine.SeverAll()
				s.notifyDown(n)
			})
		case fault.Restart:
			// Decide now, from the plan, which links the revived node
			// gets back: every wired link except those a Sever cut for
			// good and those whose peer is itself down at the restart
			// instant (the peer's own later restart restores the shared
			// link).
			restore := restorableLinks(n, plan, r.At)
			n.port.Schedule(r.At, func() { s.restartNode(n, restore) })
		}
	}
	return nil
}

// restorableLinks lists the links of n that a restart at the given
// instant reconnects.
func restorableLinks(n *Node, plan fault.Plan, at sim.Time) []int {
	var out []int
	for l := 0; l < core.NumLinks; l++ {
		if !n.Engine.Connected(l) {
			continue
		}
		severed := false
		pn, pl, engPeer := n.Peer(l)
		for _, r := range plan.Rules {
			if r.Kind != fault.Sever || r.At > at {
				continue
			}
			if r.Node == n.Name && r.Link == l ||
				engPeer && r.Node == pn.Name && r.Link == pl {
				severed = true
				break
			}
		}
		if severed {
			continue
		}
		if engPeer && nodeDownAt(plan, pn.Name, at) {
			continue
		}
		out = append(out, l)
	}
	return out
}

// nodeDownAt reports whether the plan has the named node halted at the
// given instant: its latest halt or restart rule at or before that
// time decides, with a tie going to the halt (conservative — a link to
// a node halting at this very instant is not worth restoring).
func nodeDownAt(plan fault.Plan, node string, at sim.Time) bool {
	var last sim.Time
	down := false
	for _, r := range plan.Rules {
		if r.Node != node || r.At > at {
			continue
		}
		switch r.Kind {
		case fault.Halt:
			if r.At >= last {
				last, down = r.At, true
			}
		case fault.Restart:
			if r.At > last {
				last, down = r.At, false
			}
		}
	}
	return down
}

// restartNode revives a halted node: the processor resumes with its
// frozen state, the given links are reconnected and their in-flight
// error-detecting transfers recovered at both ends, the liveness
// monitor restarts, and node-up subscribers (the routing layer) are
// told to rejoin.  Runs on the node's shard at the restart instant.
func (s *System) restartNode(n *Node, restore []int) {
	if !n.M.ClearForcedHalt() {
		return
	}
	now := n.port.Now()
	for _, l := range restore {
		n.Engine.RestoreLink(l)
	}
	// Node-up subscribers run between restore and recovery on purpose:
	// the routing layer's boot resets the restored links to power-on
	// state, which makes the recovery below a no-op on router-managed
	// links — a restarted router node must not retransmit a pre-crash
	// byte into a peer that reset its stream.  On bare systems the
	// subscriber list is empty and recovery resumes frozen transfers.
	s.notifyUp(n)
	for _, l := range restore {
		// RestoreLink (above) and the peer recovery both post to the
		// peer's port at now+Lookahead, and post order (same instant,
		// same source) revives the wire before any retransmission
		// crosses it.
		n.Engine.RecoverLink(l)
		pn, pl, ok := n.Peer(l)
		if !ok {
			continue // host link: the wire is back; stalled host transfers are not replayed
		}
		if pn.port == n.port {
			// A self-connection: both ends are this very node.
			pn.Engine.RecoverLink(pl)
		} else {
			// Distinct peer: the recovery crosses node timelines, so it
			// travels as a keyed post one Lookahead out, which makes the
			// revival order identical at every partition.
			pe, plnk := pn.Engine, pl
			n.port.Post(pn.port, now+Lookahead, func() { pe.RecoverLink(plnk) })
		}
	}
	n.Engine.StartHeartbeat()
	n.runner.Start()
}

// WatchdogProc is one blocked process in a watchdog report.
type WatchdogProc struct {
	Node string
	core.BlockedProcess
}

// DownLink is a link whose reliable-mode sender exhausted its retry
// budget.
type DownLink struct {
	Node    string
	Link    int
	Retries int
}

// HostStall reports a host transfer abandoned mid-message: the link
// went quiet (severed wire, halted peer, or a peer that stopped
// mid-protocol) with bytes still owed.  This is the structured form of
// what used to be a silent indefinite block.
type HostStall struct {
	Node string // node the host is wired to
	Link int
	Got  int  // bytes transferred before the stall
	Want int  // bytes the transfer expected
	Out  bool // true when the host was sending
}

// Error satisfies error so a stall can propagate as one.
func (e HostStall) Error() string {
	dir := "receiving"
	if e.Out {
		dir = "sending"
	}
	return fmt.Sprintf("host on %s.%d stalled %s: %d of %d bytes before EOF",
		e.Node, e.Link, dir, e.Got, e.Want)
}

// WatchdogReport names every process the system is waiting on when
// simulated time can no longer advance: the evidence for a deadlock
// verdict, one line per process.
type WatchdogReport struct {
	Time       sim.Time
	Procs      []WatchdogProc
	DownLinks  []DownLink
	HostStalls []HostStall
}

// Empty reports whether the watchdog found nothing stuck.
func (r *WatchdogReport) Empty() bool {
	return len(r.Procs) == 0 && len(r.DownLinks) == 0 && len(r.HostStalls) == 0
}

// Write renders the report in the format documented in DESIGN.md.
// resolve, when non-nil, names the source location of a blocked
// process's instruction pointer ("file:line", or "" for none), which
// the process's line then ends with.
func (r *WatchdogReport) Write(w io.Writer, resolve func(node string, iptr uint64) string) {
	fmt.Fprintf(w, "deadlock watchdog: simulated time stuck at %v\n", r.Time)
	for _, p := range r.Procs {
		loc := ""
		if resolve != nil {
			if s := resolve(p.Node, p.Iptr); s != "" {
				loc = " at " + s
			}
		}
		fmt.Fprintf(w, "  %s: %s%s\n", p.Node, p.BlockedProcess, loc)
	}
	for _, d := range r.DownLinks {
		fmt.Fprintf(w, "  %s: link %d DOWN after %d retries\n", d.Node, d.Link, d.Retries)
	}
	for _, h := range r.HostStalls {
		fmt.Fprintf(w, "  host: %s\n", h.Error())
	}
}

// String is the report as Write renders it with no resolver.
func (r *WatchdogReport) String() string {
	var b strings.Builder
	r.Write(&b, nil)
	return b.String()
}

// Watchdog inspects a settled system for processes that can never run
// again.  It returns nil when nothing is blocked: a quiet system that
// simply finished.  Each blocked process is published to the probe bus
// as a Deadlock event, so the verdict lands in timelines and metrics
// alongside the traffic that led to it.
func (s *System) Watchdog() *WatchdogReport {
	rep := &WatchdogReport{Time: s.Now()}
	for _, n := range s.nodes {
		if n.M.Halted() {
			continue // a halt is its own verdict, not a deadlock
		}
		for _, p := range n.M.BlockedProcesses() {
			rep.Procs = append(rep.Procs, WatchdogProc{Node: n.Name, BlockedProcess: p})
			if s.bus != nil {
				s.bus.Publish(probe.Event{
					Time: rep.Time, Node: n.Name, Kind: probe.Deadlock,
					Proc: p.Wdesc, Addr: p.Addr, Link: p.Link,
					Arg: int64(p.Kind),
				})
			}
		}
		for l := 0; l < core.NumLinks; l++ {
			if down, retries := n.Engine.LinkDown(l); down {
				rep.DownLinks = append(rep.DownLinks, DownLink{Node: n.Name, Link: l, Retries: retries})
			}
		}
	}
	for _, h := range s.hosts {
		if st := h.Stall(); st != nil {
			rep.HostStalls = append(rep.HostStalls, *st)
		}
	}
	sort.Slice(rep.Procs, func(i, j int) bool {
		a, b := rep.Procs[i], rep.Procs[j]
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Wdesc < b.Wdesc
	})
	if rep.Empty() {
		return nil
	}
	return rep
}
