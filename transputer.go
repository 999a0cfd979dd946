// Package transputer is a production-quality reproduction of "The
// Transputer" (Colin Whitby-Strevens, ISCA 1985): a cycle-accurate
// simulator for the IMS T424/T222 transputers, an occam-1 subset
// compiler, the bit-level inter-transputer link protocol, and a
// deterministic multi-transputer network simulator.
//
// The architecture is standardized at the level of occam: programs are
// collections of processes communicating over channels.  A program can
// run on one simulated transputer or be configured across a network of
// them, with channels placed on hardware links — the paper's central
// claim, reproducible here:
//
//	img, _ := transputer.CompileOccam(src, 4)
//	sys := transputer.NewSystem()
//	n := sys.MustAddTransputer("main", transputer.T424())
//	host, _ := sys.AttachHost(n, 0, os.Stdout)
//	n.Load(img)
//	sys.Run(0)
//
// Subpackage layout (under internal/): isa holds the I1 instruction
// set and the paper's cycle model; core is the processor with its
// two-priority scheduler, channels, timers and alternative input; link
// is the 10 Mbit/s link engine of figure 1; occam is the compiler;
// network assembles systems; sim is the event kernel.
package transputer

import (
	"transputer/internal/asm"
	"transputer/internal/core"
	"transputer/internal/isa"
	"transputer/internal/network"
	"transputer/internal/occam"
	"transputer/internal/sim"
)

// Re-exported core types.  A Machine is one transputer; an Image is a
// loadable program; Stats carries cycle and instruction counters.
type (
	Config  = core.Config
	Machine = core.Machine
	Image   = core.Image
	Stats   = core.Stats

	System = network.System
	Node   = network.Node
	Host   = network.Host
	Report = network.Report

	// Time is a simulated instant in nanoseconds.
	Time = sim.Time
)

// Simulated durations.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Host protocol commands understood by an attached host device.
const (
	HostCmdPutChar = network.HostCmdPutChar
	HostCmdPutWord = network.HostCmdPutWord
	HostCmdExit    = network.HostCmdExit
	HostCmdGetWord = network.HostCmdGetWord
)

// T424 returns the configuration of the 32-bit IMS T424 (4 KiB on-chip
// memory, 50 ns cycle).
func T424() Config { return core.T424() }

// T222 returns the configuration of the 16-bit IMS T222.
func T222() Config { return core.T222() }

// NewMachine builds a standalone transputer.
func NewMachine(cfg Config) (*Machine, error) { return core.New(cfg) }

// NewSystem builds an empty multi-transputer system.
func NewSystem() *System { return network.NewSystem() }

// CompileOccam compiles an occam program for the given word length in
// bytes (4 for T424, 2 for T222).
func CompileOccam(src string, wordBytes int) (Image, error) {
	c, err := occam.Compile(src, occam.Options{WordBytes: wordBytes})
	if err != nil {
		return Image{}, err
	}
	return c.Image, nil
}

// CompileOccamConfigured compiles a program whose outermost process is
// PLACED PAR (the occam configuration construct) into one image per
// processor, keyed by processor number: one per PROCESSOR block, or,
// for a replicated PLACED PAR, one per value of its replicator.  A program without PLACED PAR
// yields a single image under key 0.
func CompileOccamConfigured(src string, wordBytes int) (map[int64]Image, error) {
	procs, err := occam.CompileConfigured(src, occam.Options{WordBytes: wordBytes})
	if err != nil {
		return nil, err
	}
	out := make(map[int64]Image, len(procs))
	for _, p := range procs {
		out[p.ID] = p.Compiled.Image
	}
	return out, nil
}

// AssembleSource assembles I1 assembly text into an image.
func AssembleSource(src string, wordBytes int) (Image, error) {
	a, err := asm.Assemble(src, wordBytes)
	if err != nil {
		return Image{}, err
	}
	return a.Image, nil
}

// Disassemble renders a code image as a listing with the paper's full
// instruction names.
func Disassemble(code []byte) string { return isa.Sdisassemble(code) }

// RunResult describes why a standalone run stopped.
type RunResult = core.RunResult

// Run executes a loaded standalone machine until it quiesces or the
// limit passes (0 means run to quiescence).
func Run(m *Machine, limit Time) RunResult { return core.Run(m, limit) }
