package tool

import (
	"errors"
	"fmt"
	"io"

	"transputer/internal/core"
	"transputer/internal/network"
	"transputer/internal/route"
	"transputer/internal/sim"
)

// Exit codes of trun and tnet.  Scripted campaigns (CI, the chaos
// harness) branch on these, so the values are part of the tool
// contract: 0 is a clean completion, 1 a tool error, 2 a usage error,
// and the codes below name the distinct failure verdicts a finished
// run can reach.
const (
	ExitOK = 0
	// ExitDeadlock: the watchdog found processes blocked forever or
	// links down with no prospect of recovery.
	ExitDeadlock = 3
	// ExitPartition: the routing layer accepted messages it could never
	// deliver — the topology lost connectivity and healing could not
	// restore it.
	ExitPartition = 4
	// ExitHostStall: a host transfer was abandoned mid-message.
	ExitHostStall = 5
	// ExitProgramError: a node's program failed — it set the error
	// flag or faulted on a memory access.  A planned `fault halt` is
	// not a program error.
	ExitProgramError = 6
)

// Verdict classifies a finished run into an exit code; failed says a
// node's program failed (see ExitProgramError).  The root cause wins: a
// failed program explains whatever deadlock, stall or lost traffic
// follows it, a stalled host transfer names the culprit link directly,
// an unrecovered partition explains the lost traffic, and a bare
// deadlock report is the residual case.
func Verdict(failed bool, wd *network.WatchdogReport, undelivered int) int {
	switch {
	case failed:
		return ExitProgramError
	case wd != nil && len(wd.HostStalls) > 0:
		return ExitHostStall
	case undelivered > 0:
		return ExitPartition
	case wd != nil && !wd.Empty():
		return ExitDeadlock
	}
	return ExitOK
}

// programFailed reports whether a machine's program failed: its error
// flag is set or it stopped on a memory fault.  A forced halt is not
// the program's doing.
func programFailed(m *core.Machine) bool {
	var mf *core.MemoryFault
	return m.ErrorFlag() || errors.As(m.Fault(), &mf)
}

// RunToQuiescence drives a built network to a settled state.  A routed
// system never quiesces on its own — the heartbeat tickers and replay
// timers are perpetual — so the run is phased: bounded run, stop the
// perpetual timers (Router.Stop), then drain in-flight traffic for
// 2 ms.  Other systems run to quiescence directly, or to the limit when
// there is one.  The returned report reflects the final settled state.
func RunToQuiescence(net *Network) network.Report {
	s := net.System
	rep := s.Run(net.Limit)
	if net.Router == nil {
		return rep
	}
	net.Router.Stop()
	return s.Continue(rep.Time + 2*sim.Millisecond)
}

// PrintRouteSummary reports the routing layer's end-to-end outcome:
// the delivery count against the accepted injections, and each message
// that never arrived.
func PrintRouteSummary(w io.Writer, r *route.Router) {
	if r == nil {
		return
	}
	accepted := 0
	for _, in := range r.Injected() {
		if in.Accepted {
			accepted++
		}
	}
	delivered := len(r.AllDeliveries())
	fmt.Fprintf(w, "route: delivered %d of %d accepted messages (%d injected)\n",
		delivered, accepted, len(r.Injected()))
	if r.Undelivered() == 0 {
		return
	}
	got := make(map[string]bool)
	for _, d := range r.AllDeliveries() {
		got[fmt.Sprintf("%s>%s#%d", d.Origin, d.Dest, d.Seq)] = true
	}
	for _, in := range r.Injected() {
		if in.Accepted && !got[fmt.Sprintf("%s>%s#%d", in.From, in.To, in.Seq)] {
			fmt.Fprintf(w, "route: LOST %s -> %s seq %d (injected at %v, %d bytes)\n",
				in.From, in.To, in.Seq, in.At, len(in.Payload))
		}
	}
}
