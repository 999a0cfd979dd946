// Package core implements the transputer processor described in "The
// Transputer" (Whitby-Strevens, ISCA 1985): the I1 instruction set, the
// three-register evaluation stack, the two-priority hardware scheduler,
// occam channels as memory words, timers, and the alternative-input
// mechanism — all with the paper's cycle accounting.
package core

import "fmt"

// Priority levels.  The paper numbers priority 0 as high and priority 1
// as low ("a higher priority process always proceeds in preference to a
// lower priority one").
const (
	PriorityHigh = 0
	PriorityLow  = 1
)

// The timing every model shares: the cycle time of a 20 MHz part, and
// the periods of the two priority clocks (1 µs and 64 µs on the first
// transputers), in nanoseconds.
const (
	CycleNs       = 50
	HiTimerTickNs = 1000
	LoTimerTickNs = 64000
)

// Config describes one transputer.
type Config struct {
	// Name labels the machine in traces and errors.
	Name string
	// WordBits is the processor word length: 32 for the T424, 16 for
	// the T222.
	WordBits int
	// MemBytes is the total directly addressable memory, on-chip plus
	// external.  The T424 has 4 KiB on chip.  It is the address limit,
	// not an allocation: the host backs only the prefix a program
	// covers or writes (see memory.go).
	MemBytes int
	// TimesliceCycles is the period after which a low-priority process
	// is moved to the back of its queue at the next descheduling point.
	TimesliceCycles int
	// HaltOnError stops the machine when the error flag is set.
	HaltOnError bool
	// NoFetchBuffer models a processor without the two-word instruction
	// fetch buffer: every instruction byte then costs an extra memory
	// cycle.  Used by the ablation benchmarks; real transputers have
	// the buffer (paper, 3.2.5).
	NoFetchBuffer bool
}

// T424 returns the configuration of the IMS T424: 32 bits, 4 KiB
// on-chip memory, 50 ns cycles.  Memory can be widened for programs
// that assume external RAM.
func T424() Config {
	return Config{
		Name:            "T424",
		WordBits:        32,
		MemBytes:        4 * 1024,
		TimesliceCycles: 20480, // ~1 ms at 20 MHz
	}
}

// T222 returns the configuration of the 16-bit IMS T222.
func T222() Config {
	c := T424()
	c.Name = "T222"
	c.WordBits = 16
	return c
}

// WithMemory returns a copy of the configuration with the given memory
// size, modelling off-chip extension of the address space.
func (c Config) WithMemory(bytes int) Config {
	c.MemBytes = bytes
	return c
}

func (c Config) validate() error {
	if c.WordBits != 16 && c.WordBits != 32 {
		return fmt.Errorf("core: unsupported word length %d", c.WordBits)
	}
	bpw := c.WordBits / 8
	if c.MemBytes < 64*bpw {
		return fmt.Errorf("core: memory %d bytes too small", c.MemBytes)
	}
	if c.MemBytes%bpw != 0 {
		return fmt.Errorf("core: memory size %d not word aligned", c.MemBytes)
	}
	maxMem := 1 << uint(c.WordBits)
	if c.WordBits == 32 {
		// Cap the simulated address space at 1 GiB to keep host memory
		// use sane; the architectural space is 4 GiB.
		maxMem = 1 << 30
	}
	if c.MemBytes > maxMem {
		return fmt.Errorf("core: memory %d exceeds address space", c.MemBytes)
	}
	return nil
}

// NumLinks is the number of bidirectional links on the first
// transputers.
const NumLinks = 4

// End names an external channel end: one of the links, or one virtual
// channel of a multiplexed link (see vchan.go).  A link's own end is its
// index, so End(l) and the constants 0 to 3 name the links.
type End int

// VChanEnd returns the end naming virtual channel vc of link l.
func VChanEnd(l, vc int) End { return End((vc+1)<<8 | l) }

// Link returns the link the end is on.
func (c End) Link() int { return int(c) & 0xff }

// VC returns the end's virtual channel, -1 for a link's own end.
func (c End) VC() int { return int(c>>8) - 1 }

// arg is the end's Arg in probe events: its vchan, 0 for a link's own.
func (c End) arg() int64 { return int64(max(c.VC(), 0)) }

// noun names the kind of channel word the end decodes from, for faults.
func (c End) noun() string {
	if c.VC() >= 0 {
		return "vchan"
	}
	return "link"
}

// External is implemented by the link engine.  BeginOutput/BeginInput
// are called when a process executes a message instruction on an
// external channel end; the process has already been descheduled, and
// the engine must call done exactly once when the transfer completes.
type External interface {
	BeginOutput(c End, ptr uint64, count int, done func())
	BeginInput(c End, ptr uint64, count int, done func())
	// EnableInput arms alternative-input signalling on an input end:
	// ready is called once when input data becomes available.  It
	// returns true if data is already buffered (the guard is
	// immediately ready).
	EnableInput(c End, ready func()) bool
	// DisableInput disarms signalling and reports whether input data is
	// available.
	DisableInput(c End) bool
	// HandoffFlow tells the engine which probe flow (see
	// probe.FlowTable) the output about to begin on c belongs to;
	// TransferFlow reports the flow carried by the packets that have
	// arrived on input end c, zero until the first lands.  The machine
	// calls them only when a probe bus is attached.
	HandoffFlow(c End, flow uint64)
	TransferFlow(c End) uint64
}
