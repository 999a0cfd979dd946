// Stub of the probe package: just enough surface for the analyzers to
// resolve (*probe.Bus).Publish and the Event kinds.
package probe

type Kind int

const (
	ProcDispatch Kind = iota
	FlowArrive
	Heartbeat
	VChanChunk
)

// Event mirrors the real probe.Event fields the analyzers reason about.
type Event struct {
	Kind   Kind
	Time   int64
	Cycles uint64
}

// Bus mirrors the real probe.Bus.
type Bus struct{ subs []func(Event) }

// Publish hands the event to every subscriber.
func (b *Bus) Publish(e Event) {
	for _, fn := range b.subs {
		fn(e)
	}
}

// PublishRef hands the event to every subscriber by reference.
func (b *Bus) PublishRef(e *Event) {
	for _, fn := range b.subs {
		fn(*e)
	}
}
