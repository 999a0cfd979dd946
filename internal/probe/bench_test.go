package probe

import (
	"fmt"
	"runtime"
	"testing"

	"transputer/internal/sim"
)

// ringStream is a synthetic stream with the kind mix of the benchmark's
// observed ring (`ring8.observed`): every node of an 8-node ring sends
// rounds one-word messages to the next, 18 events a message — each end's
// dispatch, stop and transfer start and end, four data and four
// acknowledge packets, the arrival, and a ready — in time order.
func ringStream(nodes, rounds int) []Event {
	names := make([]string, nodes)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i)
	}
	const sender, receiver = 0x8000014d, 0x800000ed
	evs := make([]Event, 0, 18*nodes*rounds)
	for r := 0; r < rounds; r++ {
		t0 := sim.Time(r) * 4400
		for i := 0; i < nodes; i++ {
			src, dst := names[i], names[(i+1)%nodes]
			fl := PackFlow(uint64(i+1), uint64(r+1))
			evs = append(evs,
				Event{Kind: ProcDispatch, Node: src, Time: t0, Proc: sender, Pri: 1},
				Event{Kind: LinkXferStart, Node: src, Time: t0 + 100, Proc: sender, Link: 1, Bytes: 4, Out: true, Flow: fl},
				Event{Kind: ProcStop, Node: src, Time: t0 + 100, Proc: sender, Pri: 1})
			for b := sim.Time(0); b < 4; b++ {
				evs = append(evs, Event{Kind: WirePacket, Node: src, Time: t0 + 100 + 1100*b, Link: 1, Bytes: 1, Dur: 1100, Flow: fl})
			}
			evs = append(evs, Event{Kind: FlowArrive, Node: dst, Time: t0 + 300, Flow: fl})
			for b := sim.Time(0); b < 4; b++ {
				evs = append(evs, Event{Kind: WirePacket, Node: dst, Time: t0 + 1200 + 1100*b, Dur: 200, Ack: true, Flow: fl})
			}
			evs = append(evs,
				Event{Kind: LinkXferStart, Node: dst, Time: t0 + 1200, Proc: receiver, Bytes: 4, Flow: fl},
				Event{Kind: ProcStop, Node: dst, Time: t0 + 1200, Proc: receiver, Pri: 1},
				Event{Kind: LinkXferEnd, Node: src, Time: t0 + 4400, Proc: sender, Link: 1, Bytes: 4, Out: true, Flow: fl},
				Event{Kind: ProcReady, Node: src, Time: t0 + 4400, Pri: 1, Depth: 1},
				Event{Kind: LinkXferEnd, Node: dst, Time: t0 + 4400, Proc: receiver, Bytes: 4, Flow: fl},
				Event{Kind: ProcDispatch, Node: dst, Time: t0 + 4400, Proc: receiver, Pri: 1})
		}
	}
	return evs
}

// BenchmarkProbeConsumers prices what an observed run pays per event
// once it reaches the system bus: a ring8.observed-sized stream (8
// nodes, 8 192 flows) published by reference, as the network's merge
// publishes it, through the timeline, metrics and flow table tnet
// attaches.  ns/event and B/event are per published event.
func BenchmarkProbeConsumers(b *testing.B) {
	evs := ringStream(8, 1024)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bus := NewBus()
		NewTimeline(bus)
		NewMetrics(bus)
		NewFlowTable(bus)
		for j := range evs {
			bus.PublishRef(&evs[j])
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	n := float64(b.N) * float64(len(evs))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/event")
	b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/n, "B/event")
}
