// Fixture for probeguard: Publish must sit behind a nil-bus check.
package pg

import "transputer/internal/probe"

type machine struct{ bus *probe.Bus }

func (m *machine) guarded() {
	if m.bus != nil {
		m.bus.Publish(probe.Event{})
	}
}

func (m *machine) guardedChain(on bool) {
	if on && m.bus != nil {
		m.bus.Publish(probe.Event{})
	}
}

func (m *machine) earlyReturn() {
	if m.bus == nil {
		return
	}
	m.bus.Publish(probe.Event{})
}

func (m *machine) elseBranch() {
	if m.bus == nil {
		_ = 0
	} else {
		m.bus.Publish(probe.Event{})
	}
}

func (m *machine) bad() {
	m.bus.Publish(probe.Event{}) // want `probe Publish without a nil-bus guard`
}

func (m *machine) guardedRef(e *probe.Event) {
	if m.bus != nil {
		m.bus.PublishRef(e)
	}
}

func (m *machine) badRef(e *probe.Event) {
	m.bus.PublishRef(e) // want `probe Publish without a nil-bus guard`
}

func (m *machine) badWrongGuard(on bool) {
	if on {
		m.bus.Publish(probe.Event{}) // want `probe Publish without a nil-bus guard`
	}
}

//tvet:ignore probeguard callers must have checked the bus, documented contract
func (m *machine) emit(e probe.Event) {
	m.bus.Publish(e)
}

// A wrapper that checks the bus itself: sound, but its callers pay for
// the literal before the check, so the guard belongs at the call.
func (m *machine) checkedEmit(e probe.Event) {
	if m.bus != nil {
		m.bus.Publish(e)
	}
}

func (m *machine) badViaWrapper() {
	m.checkedEmit(probe.Event{Kind: probe.Heartbeat}) // want `probe.Event built and passed without a nil-bus guard`
}

func (m *machine) guardedViaWrapper() {
	if m.bus != nil {
		m.checkedEmit(probe.Event{Kind: probe.Heartbeat})
		m.emit(probe.Event{})
	}
}

func (m *machine) passesVariable(e probe.Event) {
	m.checkedEmit(e) // not built here: whoever built it answers for the guard
}
