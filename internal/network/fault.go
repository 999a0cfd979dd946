package network

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"transputer/internal/core"
	"transputer/internal/fault"
	"transputer/internal/probe"
	"transputer/internal/sim"
)

// SetReliable puts the whole system in the error-detecting link mode
// (CRC trailers, NAKs and bounded retransmission, with the link
// package's timeout and retry budget) instead of the paper's plain
// 11-bit protocol, the default.  It applies to every node and host
// already in the system and to any added later, and cannot be undone.
func (s *System) SetReliable() {
	s.reliable = true
	for _, n := range s.nodes {
		n.Engine.SetReliable(true, 0, 0)
	}
	for _, h := range s.hosts {
		h.end.SetReliable(true, 0, 0)
	}
}

// ApplyFaults installs a seeded fault plan: per-packet hooks on the
// targeted wires, and scheduled severs and halts on the kernel.  Call
// it after the topology is fully wired and before Run.  Beyond what
// fault.Plan.Validate refuses, a rule must name a node of the system
// and, unless it halts or restarts it, a wired end; a link is severed
// once, from either end; and no rule may touch a multiplexed wire or
// its nodes (a lost or corrupted mux header would desynchronise every
// vchan on the wire; EnableVChans refuses the other order).  A refusal
// is a *fault.RuleError and installs nothing.
func (s *System) ApplyFaults(plan fault.Plan) error {
	if plan.Empty() {
		return nil
	}
	inj, err := fault.NewInjector(plan)
	if err == nil {
		err = s.checkFaults(plan.Rules)
	}
	if err != nil {
		return err
	}
	s.faults = append(s.faults, plan.Rules...)
	for _, n := range s.nodes {
		for l := 0; l < core.NumLinks; l++ {
			if hook := inj.WireHook(n.Name, l); hook != nil {
				n.Engine.SetFaultHook(l, hook)
			}
		}
	}
	for _, r := range inj.Timed() {
		n := s.byName[r.Node]
		switch r.Kind {
		case fault.Sever:
			lnk := r.Link
			// Timed faults act on one node, so they live on that node's
			// shard and fire in its deterministic event order.
			n.port.Schedule(r.At, func() { n.Engine.SeverLink(lnk) })
		case fault.Halt:
			n.port.Schedule(r.At, func() {
				n.M.ForceHalt("fault injection")
				n.Engine.Halt()
				s.notifyDown(n)
			})
		case fault.Restart:
			n.port.Schedule(r.At, func() { s.restartNode(n) })
		}
	}
	return nil
}

// checkFaults is ApplyFaults' check of a plan against the system.
func (s *System) checkFaults(rules []fault.Rule) error {
	type end struct {
		n *Node
		l int
	}
	severed := make(map[end]int) // both ends of a severed link -> its rule
	for i, r := range rules {
		refuse := func(prev int, err error) error { return &fault.RuleError{Rule: i, Prev: prev, Err: err} }
		n, ok := s.byName[r.Node]
		switch {
		case !ok:
			return refuse(-1, fmt.Errorf("network: fault %s targets unknown transputer %q", r.Kind, r.Node))
		case r.Kind == fault.Halt || r.Kind == fault.Restart:
			for l := 0; l < core.NumLinks; l++ {
				if n.Engine.VChans(l) > 0 {
					return refuse(-1, clash(Multiplexed, n.Name, l, "fault %s of %q touches multiplexed link end %s.%d", r.Kind, n.Name, n.Name, l))
				}
			}
			continue
		case !n.Engine.Connected(r.Link):
			return refuse(-1, fmt.Errorf("network: fault %s targets unwired link end %s.%d", r.Kind, n.Name, r.Link))
		case n.Engine.VChans(r.Link) > 0:
			return refuse(-1, clash(Multiplexed, n.Name, r.Link, "fault %s targets multiplexed link end %s.%d", r.Kind, n.Name, r.Link))
		case r.Kind != fault.Sever:
			continue
		}
		if prev, dup := severed[end{n, r.Link}]; dup {
			return refuse(prev, fmt.Errorf("network: the link at %s.%d is severed twice", r.Node, r.Link))
		}
		severed[end{n, r.Link}] = i
		if peer, pl, ok := n.Peer(r.Link); ok {
			severed[end{peer, pl}] = i
		}
	}
	return nil
}

// faulted reports whether an applied fault rule touches link end n.l:
// a rule on that end, or a halt or restart of n.
func (s *System) faulted(n *Node, l int) bool {
	for _, r := range s.faults {
		if r.Node == n.Name && (r.Link == l || r.Kind == fault.Halt || r.Kind == fault.Restart) {
			return true
		}
	}
	return false
}

// restartNode revives a halted node: the processor resumes with its
// frozen state, its links resume (each end knows why it is cut, so a
// severed cable and a link to a board still halted stay down), node-up
// subscribers (the routing layer) are told to rejoin, and the processor
// is released.  Runs on the node's shard at the restart instant.
func (s *System) restartNode(n *Node) {
	if !n.M.ClearForcedHalt() {
		return
	}
	n.Engine.Resume()
	s.notifyUp(n)
	n.runner.Start()
}

// WatchdogProc is one blocked process in a watchdog report.
type WatchdogProc struct {
	Node string
	core.BlockedProcess
}

// DownLink is a link whose reliable-mode sender has stopped for a dead
// link (Engine.LinkDown) while a blocked process waits on it.
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
		var waited [core.NumLinks]bool
		for _, p := range n.M.BlockedProcesses() {
			if p.Link >= 0 {
				waited[p.Link] = true
			}
			rep.Procs = append(rep.Procs, WatchdogProc{Node: n.Name, BlockedProcess: p})
			if s.bus != nil {
				s.bus.Publish(probe.Event{
					Time: rep.Time, Node: n.Name, Kind: probe.Deadlock,
					Proc: p.Wdesc, Addr: p.Addr, Link: p.Link,
					Arg: int64(p.Kind),
				})
			}
		}
		// A sender that spent its budget with no process waiting on it
		// belongs to a stream the routing layer has already routed
		// around: paused, not deadlocked.
		for l := 0; l < core.NumLinks; l++ {
			if down, retries := n.Engine.LinkDown(l); down && waited[l] {
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
