package probe

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"transputer/internal/sim"
)

// chromeEvent is one entry of the trace-event JSON array.
type chromeEvent struct {
	Name string                 `json:"name"`
	Ph   string                 `json:"ph"`
	Ts   float64                `json:"ts"` // microseconds
	Dur  float64                `json:"dur,omitempty"`
	Pid  int                    `json:"pid"`
	Tid  int                    `json:"tid"`
	Cat  string                 `json:"cat,omitempty"`
	S    string                 `json:"s,omitempty"`  // instant scope
	Id   uint64                 `json:"id,omitempty"` // flow arrow binding
	Bp   string                 `json:"bp,omitempty"` // flow binding point
	Args map[string]interface{} `json:"args,omitempty"`
}

func refUsec(t sim.Time) float64 { return float64(t) / 1e3 }

// RefWriteChromeTrace is the renderer WriteChromeTrace replaced: it
// builds every chromeEvent, each with its own argument map, and hands
// the lot to encoding/json.  The append encoder in timeline.go has to
// write the same bytes.  It is exported, in the tests only, to the
// external test package that can import a whole network.
func RefWriteChromeTrace(events []Event, w io.Writer) error {
	var out []chromeEvent

	pids := map[string]int{}
	pid := func(node string) int {
		id, ok := pids[node]
		if !ok {
			id = len(pids) + 1
			pids[node] = id
			out = append(out, chromeEvent{
				Name: "process_name", Ph: "M", Pid: id,
				Args: map[string]interface{}{"name": node},
			})
		}
		return id
	}
	// Per-node process-track assignment and the currently open slice.
	type nodeState struct {
		procTid map[uint64]int
		open    bool
		openTid int
		last    sim.Time
	}
	nodes := map[string]*nodeState{}
	state := func(node string) *nodeState {
		ns, ok := nodes[node]
		if !ok {
			ns = &nodeState{procTid: map[uint64]int{}}
			nodes[node] = ns
		}
		return ns
	}
	procTid := func(node string, proc uint64) int {
		ns := state(node)
		tid, ok := ns.procTid[proc]
		if !ok {
			tid = tidProcBase + len(ns.procTid)
			ns.procTid[proc] = tid
			out = append(out, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid(node), Tid: tid,
				Args: map[string]interface{}{
					"name": fmt.Sprintf("P@%08X pri%d", proc&^1, proc&1),
				},
			})
		}
		return tid
	}
	closeSlice := func(node string, at sim.Time) {
		ns := state(node)
		if !ns.open {
			return
		}
		ns.open = false
		out = append(out, chromeEvent{
			Name: "run", Ph: "E", Ts: refUsec(at), Pid: pid(node), Tid: ns.openTid, Cat: "sched",
		})
	}

	var end sim.Time
	for _, e := range events {
		if e.Time > end {
			end = e.Time
		}
		p := pid(e.Node)
		ns := state(e.Node)
		ns.last = e.Time
		switch e.Kind {
		case ProcDispatch:
			// One CPU per node: a dispatch implicitly ends whatever was
			// running (the stop event normally arrives first).
			closeSlice(e.Node, e.Time)
			tid := procTid(e.Node, e.Proc)
			ns.open, ns.openTid = true, tid
			out = append(out, chromeEvent{
				Name: "run", Ph: "B", Ts: refUsec(e.Time), Pid: p, Tid: tid, Cat: "sched",
				Args: map[string]interface{}{"cycles": e.Cycles, "runq": e.Depth},
			})
		case ProcStop:
			closeSlice(e.Node, e.Time)
		case ProcReady:
			out = append(out, chromeEvent{
				Name: fmt.Sprintf("runq.pri%d", e.Pri), Ph: "C", Ts: refUsec(e.Time), Pid: p, Tid: 0,
				Args: map[string]interface{}{"depth": e.Depth},
			})
		case Preempt:
			out = append(out, chromeEvent{
				Name: "preempt", Ph: "i", Ts: refUsec(e.Time), Pid: p, Tid: tidSched, Cat: "sched", S: "t",
				Args: map[string]interface{}{"cycles": e.Cycles},
			})
		case Timeslice:
			out = append(out, chromeEvent{
				Name: "timeslice", Ph: "i", Ts: refUsec(e.Time), Pid: p, Tid: tidSched, Cat: "sched", S: "t",
			})
		case ChanBlock:
			tid := procTid(e.Node, e.Proc)
			out = append(out, chromeEvent{
				Name: "chan.block", Ph: "i", Ts: refUsec(e.Time), Pid: p,
				Tid: tid, Cat: "chan", S: "t",
				Args: map[string]interface{}{"chan": refHex(e.Addr), "out": e.Out},
			})
			if e.Flow != 0 {
				out = append(out, chromeEvent{
					Name: "flow", Ph: "s", Ts: refUsec(e.Time), Pid: p, Tid: tid,
					Cat: "flow", Id: e.Flow,
				})
			}
		case ChanRendezvous:
			tid := procTid(e.Node, e.Proc)
			out = append(out, chromeEvent{
				Name: "chan.rendezvous", Ph: "i", Ts: refUsec(e.Time), Pid: p,
				Tid: tid, Cat: "chan", S: "t",
				Args: map[string]interface{}{
					"chan": refHex(e.Addr), "bytes": e.Bytes, "partner": refHex(uint64(e.Arg)),
				},
			})
			if e.Flow != 0 {
				out = append(out, chromeEvent{
					Name: "flow", Ph: "f", Ts: refUsec(e.Time), Pid: p, Tid: tid,
					Cat: "flow", Id: e.Flow, Bp: "e",
				})
			}
		case TimerWait:
			out = append(out, chromeEvent{
				Name: "timer.wait", Ph: "i", Ts: refUsec(e.Time), Pid: p, Tid: tidSched, Cat: "timer", S: "t",
				Args: map[string]interface{}{"proc": refHex(e.Proc), "until": e.Arg},
			})
		case TimerFire:
			out = append(out, chromeEvent{
				Name: "timer.fire", Ph: "i", Ts: refUsec(e.Time), Pid: p, Tid: tidSched, Cat: "timer", S: "t",
				Args: map[string]interface{}{"proc": refHex(e.Proc)},
			})
		case EventPin:
			out = append(out, chromeEvent{
				Name: "event.pin", Ph: "i", Ts: refUsec(e.Time), Pid: p, Tid: tidSched, Cat: "event", S: "t",
			})
		case LinkXferStart:
			out = append(out, chromeEvent{
				Name: xferName(e.Out), Ph: "B", Ts: refUsec(e.Time), Pid: p,
				Tid: xferTid(e.Link, e.Out), Cat: "link",
				Args: map[string]interface{}{"bytes": e.Bytes, "proc": refHex(e.Proc)},
			})
			if e.Out && e.Flow != 0 {
				// Sender end of a cross-node message arc.
				out = append(out, chromeEvent{
					Name: "flow", Ph: "s", Ts: refUsec(e.Time), Pid: p,
					Tid: xferTid(e.Link, e.Out), Cat: "flow", Id: e.Flow,
				})
			}
		case LinkXferEnd:
			out = append(out, chromeEvent{
				Name: xferName(e.Out), Ph: "E", Ts: refUsec(e.Time), Pid: p,
				Tid: xferTid(e.Link, e.Out), Cat: "link",
			})
			if !e.Out && e.Flow != 0 {
				// Receiver end of the arc: bind to the enclosing slice so
				// Perfetto draws the arrow into the completed transfer.
				out = append(out, chromeEvent{
					Name: "flow", Ph: "f", Ts: refUsec(e.Time), Pid: p,
					Tid: xferTid(e.Link, e.Out), Cat: "flow", Id: e.Flow, Bp: "e",
				})
			}
		case WirePacket:
			name := "data"
			if e.Ack {
				name = "ack"
			}
			out = append(out, chromeEvent{
				Name: name, Ph: "X", Ts: refUsec(e.Time), Dur: refUsec(e.Dur),
				Pid: p, Tid: tidWireBase + e.Link, Cat: "wire",
			})
		case AckStall:
			out = append(out, chromeEvent{
				Name: "ack.stall", Ph: "X", Ts: refUsec(e.Time - e.Dur), Dur: refUsec(e.Dur),
				Pid: p, Tid: tidWireBase + e.Link, Cat: "wire",
			})
		case HostCommand:
			out = append(out, chromeEvent{
				Name: "host.cmd", Ph: "i", Ts: refUsec(e.Time), Pid: p, Tid: tidHost, Cat: "host", S: "t",
				Args: map[string]interface{}{"cmd": e.Arg},
			})
		case FaultDrop, FaultCorrupt, LinkNak, LinkRetransmit, LinkDown:
			out = append(out, chromeEvent{
				Name: e.Kind.String(), Ph: "i", Ts: refUsec(e.Time),
				Pid: p, Tid: tidWireBase + e.Link, Cat: "fault", S: "t",
				Args: map[string]interface{}{"ack": e.Ack, "arg": e.Arg},
			})
		case FaultDelay:
			out = append(out, chromeEvent{
				Name: "fault.delay", Ph: "X", Ts: refUsec(e.Time), Dur: refUsec(e.Dur),
				Pid: p, Tid: tidWireBase + e.Link, Cat: "fault",
			})
		case LinkSever:
			out = append(out, chromeEvent{
				Name: "link.sever", Ph: "i", Ts: refUsec(e.Time),
				Pid: p, Tid: tidWireBase + e.Link, Cat: "fault", S: "p",
			})
		case NodeHalt:
			out = append(out, chromeEvent{
				Name: "node.halt", Ph: "i", Ts: refUsec(e.Time), Pid: p, Tid: tidSched, Cat: "fault", S: "p",
			})
		case FlowArrive:
			out = append(out, chromeEvent{
				Name: "flow.arrive", Ph: "i", Ts: refUsec(e.Time),
				Pid: p, Tid: tidWireBase + e.Link, Cat: "flow", S: "t",
				Args: map[string]interface{}{"flow": refHex(e.Flow)},
			})
		case Deadlock:
			out = append(out, chromeEvent{
				Name: "deadlock", Ph: "i", Ts: refUsec(e.Time), Pid: p,
				Tid: procTid(e.Node, e.Proc), Cat: "watchdog", S: "p",
				Args: map[string]interface{}{"chan": refHex(e.Addr), "link": e.Link},
			})
		case Heartbeat:
			out = append(out, chromeEvent{
				Name: "heartbeat", Ph: "i", Ts: refUsec(e.Time),
				Pid: p, Tid: tidWireBase + e.Link, Cat: "health", S: "t",
				Args: map[string]interface{}{"up": e.Arg == 1, "silence": refUsec(e.Dur)},
			})
		case RouteChange:
			out = append(out, chromeEvent{
				Name: "route.change", Ph: "i", Ts: refUsec(e.Time),
				Pid: p, Tid: tidSched, Cat: "route", S: "t",
				Args: map[string]interface{}{"reachable": e.Arg},
			})
		case NodeRestart:
			out = append(out, chromeEvent{
				Name: "node.restart", Ph: "i", Ts: refUsec(e.Time), Pid: p, Tid: tidSched, Cat: "fault", S: "p",
			})
		case RouteReplay:
			out = append(out, chromeEvent{
				Name: "route.replay", Ph: "i", Ts: refUsec(e.Time),
				Pid: p, Tid: tidSched, Cat: "route", S: "t",
				Args: map[string]interface{}{"attempt": e.Arg},
			})
		case RouteDeliver:
			out = append(out, chromeEvent{
				Name: "route.deliver", Ph: "i", Ts: refUsec(e.Time),
				Pid: p, Tid: tidSched, Cat: "route", S: "t",
				Args: map[string]interface{}{"seq": e.Arg, "bytes": e.Bytes},
			})
		case VChanChunk:
			out = append(out, chromeEvent{
				Name: fmt.Sprintf("vc%d.chunk", e.Arg), Ph: "i", Ts: refUsec(e.Time),
				Pid: p, Tid: tidWireBase + e.Link, Cat: "vchan", S: "t",
				Args: map[string]interface{}{"vchan": e.Arg, "bytes": e.Bytes, "flow": refHex(e.Flow)},
			})
		case VChanCredit:
			out = append(out, chromeEvent{
				Name: fmt.Sprintf("vc%d.credit", e.Arg), Ph: "i", Ts: refUsec(e.Time),
				Pid: p, Tid: tidWireBase + e.Link, Cat: "vchan", S: "t",
				Args: map[string]interface{}{"vchan": e.Arg, "bytes": e.Bytes},
			})
		case VChanDeliver:
			out = append(out, chromeEvent{
				Name: fmt.Sprintf("vc%d.deliver", e.Arg), Ph: "i", Ts: refUsec(e.Time),
				Pid: p, Tid: tidWireBase + e.Link, Cat: "vchan", S: "t",
				Args: map[string]interface{}{"vchan": e.Arg, "bytes": e.Bytes, "flow": refHex(e.Flow)},
			})
		}
	}
	// Close any slice still open at the end of the run.
	var open []string
	for node, ns := range nodes {
		if ns.open {
			open = append(open, node)
		}
	}
	sort.Strings(open)
	for _, node := range open {
		closeSlice(node, end)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(map[string]interface{}{
		"traceEvents":     out,
		"displayTimeUnit": "ms",
	})
}

func refHex(v uint64) string { return fmt.Sprintf("%#x", v) }
