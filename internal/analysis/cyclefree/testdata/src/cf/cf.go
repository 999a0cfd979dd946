// Fixture for cyclefree: link-clocked events stay cycle-stamp-free.
package cf

import "transputer/internal/probe"

type eng struct{ bus *probe.Bus }

// emit mimics link.Engine.emit: it stamps Cycles unconditionally, so
// link-clocked events must not travel through it.
func (e *eng) emit(ev probe.Event) {
	ev.Cycles = 1
	e.bus.Publish(ev)
}

func (e *eng) goodDirect() {
	if e.bus != nil {
		e.bus.Publish(probe.Event{Kind: probe.FlowArrive, Time: 3})
	}
}

func (e *eng) goodDirectRef() {
	if e.bus != nil {
		e.bus.PublishRef(&probe.Event{Kind: probe.FlowArrive, Time: 3})
	}
}

func (e *eng) badCyclesField() {
	if e.bus != nil {
		e.bus.Publish(probe.Event{Kind: probe.FlowArrive, Cycles: 9}) // want `FlowArrive is link-clocked: its Cycles stamp is a block-cache artifact`
	}
}

func (e *eng) badWrapper() {
	e.emit(probe.Event{Kind: probe.Heartbeat}) // want `Heartbeat is link-clocked and must be published directly`
}

func (e *eng) badVChanWrapper() {
	e.emit(probe.Event{Kind: probe.VChanChunk}) // want `VChanChunk is link-clocked and must be published directly`
}

func (e *eng) goodCPUClocked() {
	e.emit(probe.Event{Kind: probe.ProcDispatch})
}

func (e *eng) suppressed() {
	//tvet:ignore cyclefree fixture demonstrating an accepted suppression
	e.emit(probe.Event{Kind: probe.FlowArrive})
}
