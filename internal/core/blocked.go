package core

import (
	"fmt"
	"sort"
)

// Deadlock diagnostics.  Every communication instruction that
// deschedules the current process records what it is waiting for; the
// record is erased when the process is woken.  A settled system with a
// non-empty registry is deadlocked, and the registry names each stuck
// process precisely — workspace, saved instruction pointer, and the
// channel, link, timer or event it is blocked on — instead of leaving
// the user with a silent hang.

// BlockKind classifies what a blocked process is waiting for.
type BlockKind uint8

const (
	// BlockChanIn: inputting on an internal channel, first at the
	// rendezvous.
	BlockChanIn BlockKind = iota
	// BlockChanOut: outputting on an internal channel, first at the
	// rendezvous (or waiting to be collected by an alternative).
	BlockChanOut
	// BlockLinkIn: inputting on a link channel; the link engine owns the
	// transfer.
	BlockLinkIn
	// BlockLinkOut: outputting on a link channel.
	BlockLinkOut
	// BlockTimer: waiting on a timer input; Addr holds the wakeup clock
	// value.
	BlockTimer
	// BlockAlt: descheduled inside an alternative wait.
	BlockAlt
	// BlockEvent: waiting on the external event channel.
	BlockEvent

	numBlockKinds
)

var blockKindNames = [numBlockKinds]string{
	BlockChanIn:  "channel input",
	BlockChanOut: "channel output",
	BlockLinkIn:  "link input",
	BlockLinkOut: "link output",
	BlockTimer:   "timer wait",
	BlockAlt:     "alternative wait",
	BlockEvent:   "event wait",
}

// String names the block kind.
func (k BlockKind) String() string {
	if int(k) < len(blockKindNames) {
		return blockKindNames[k]
	}
	return "unknown"
}

// BlockedProcess describes one process descheduled on a communication.
type BlockedProcess struct {
	// Wdesc is the process descriptor (workspace pointer | priority).
	Wdesc uint64
	// Iptr is the instruction the process resumes at.
	Iptr uint64
	Kind BlockKind
	// Addr is the channel word address for channel and link kinds, and
	// the wakeup clock value for BlockTimer.
	Addr uint64
	// Link is the link index for link kinds, -1 otherwise.
	Link int
}

// Wptr returns the workspace pointer without the priority bit.
func (b BlockedProcess) Wptr() uint64 { return b.Wdesc &^ 1 }

// String renders a one-line description for watchdog reports.
func (b BlockedProcess) String() string {
	switch b.Kind {
	case BlockLinkIn, BlockLinkOut:
		return fmt.Sprintf("Wptr=%#x Iptr=%#x blocked on %s, link %d (channel %#x)",
			b.Wptr(), b.Iptr, b.Kind, b.Link, b.Addr)
	case BlockTimer:
		return fmt.Sprintf("Wptr=%#x Iptr=%#x blocked on %s until clock %d",
			b.Wptr(), b.Iptr, b.Kind, b.Addr)
	case BlockAlt, BlockEvent:
		return fmt.Sprintf("Wptr=%#x Iptr=%#x blocked on %s", b.Wptr(), b.Iptr, b.Kind)
	default:
		return fmt.Sprintf("Wptr=%#x Iptr=%#x blocked on %s, channel %#x",
			b.Wptr(), b.Iptr, b.Kind, b.Addr)
	}
}

// BlockedProcesses returns a snapshot of every process currently
// descheduled on a communication, sorted by workspace pointer for
// deterministic reports.
func (m *Machine) BlockedProcesses() []BlockedProcess {
	out := make([]BlockedProcess, 0, len(m.blocked))
	for _, b := range m.blocked {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Wptr() < out[j].Wptr() })
	return out
}
