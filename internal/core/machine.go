package core

import (
	"fmt"

	"transputer/internal/isa"
	"transputer/internal/probe"
	"transputer/internal/sim"
)

// Machine is one transputer: processor state, memory and scheduler.
// All methods must be called from the single simulation goroutine that
// runs the machine.  The one structure machines share is the CodeStore
// their decoded code lives in, which any number of goroutines may use
// at once.
type Machine struct {
	cfg      Config
	wordBits int
	bpw      int    // bytes per word
	mask     uint64 // word mask
	signBit  uint64 // MOSTNEG as an unsigned word

	// mem backs the memory from offset 0 up to its length, a prefix of
	// the cfg.MemBytes the address space runs to: the reserved words
	// until Load, then the loaded program's footprint, grown by any
	// write beyond it (see memory.go).
	mem []byte

	// The six registers used in the execution of a sequential process
	// (paper, figure 2).
	Iptr             uint64 // instruction pointer
	Wdesc            uint64 // workspace pointer with priority in bit 0
	Areg, Breg, Creg uint64 // evaluation stack
	Oreg             uint64 // operand register

	// Scheduling lists: front and back pointers per priority (paper,
	// figure 3).  notProcess marks an empty list.
	Fptr, Bptr [2]uint64

	// Timer queues: head workspace per priority, threaded through
	// wsTLink.
	Tptr        [2]uint64
	timerEvent  sim.EventID
	clockOffset [2]uint64

	// Saved low-priority state while a high-priority process runs
	// (modelling the reserved register save locations).
	savedLow struct {
		valid                   bool
		Iptr, Wdesc, A, B, C, O uint64
		longOp                  *longOpState
	}

	errorFlag bool
	haltErr   bool // halt-on-error flag
	halted    bool
	noCache   bool // the block cache is off (SetBlockCache)
	faulted   *MemoryFault

	clock sim.Clock
	ext   External

	// xfers holds the link transfer in progress on each link direction
	// ([link][0] input, [link][1] output; see externalTransfer), as
	// vchans does a mapped vchan word's; extraXfers counts the open
	// transfers that needed a record of their own, and altLinks has a
	// bit per link an alternative has armed for input.  Together with
	// the event and vchan state they are every way a delivery can reach
	// the machine, which is what running ahead of the window has to know
	// (see ahead.go); haz is its scratch list of the memory those
	// deliveries touch, hazLo and hazHi its envelope.
	xfers        [NumLinks][2]extXfer
	extraXfers   int
	altLinks     uint8
	haz          []hazard
	hazLo, hazHi uint64

	// onReady is invoked when the machine transitions from idle (no
	// current process) to having work; the driver uses it to resume
	// stepping.
	onReady func()

	// preemptPending is set when a high-priority process became ready
	// while a low-priority one was executing; honoured at the next
	// instruction boundary.
	preemptPending bool

	// pendingSwitchCycles accumulates scheduler charges (preemption
	// save, low-priority resume) to be added to the next step.
	pendingSwitchCycles int

	// timesliceCount accumulates cycles since the current low-priority
	// process was dispatched.
	timesliceCount int

	// longOp holds the state of an interruptible multi-cycle operation
	// (block move) executed in installments so that a priority switch
	// can occur during it (paper, 3.2.4).
	longOp *longOpState

	loadedCodeBytes int
	entryWptr       uint64

	trace Trace

	// Event channel state (paper 2.2.2): a latched pending signal, a
	// process blocked inputting, or an armed alternative.
	eventPending bool
	eventWaiter  uint64
	eventArmed   func()

	// waiting counts processes blocked on channels, timers, events or
	// stop, for deadlock diagnostics; blocked records what each one is
	// waiting for.  It is an unordered slice rather than a map: entries
	// come and go on every blocking communication — the engine's hottest
	// cycle — while it is only read by the cold watchdog snapshot, and
	// the handful of live entries make a linear scan cheaper than
	// hashing.
	waiting int
	blocked []BlockedProcess

	// forcedHalt records the reason a fault campaign stopped the node.
	forcedHalt string

	// bus, when non-nil, receives structured probe events from the
	// scheduler, channels and timers.  Every emit site nil-checks it,
	// so a detached machine pays nothing.
	bus *probe.Bus

	// Flow-tracing state, only touched when a bus is attached: flows
	// allocated here are packed (flowOrigin, sequence) pairs, and
	// chanFlows holds the flow offered on each internal channel word
	// between ChanBlock and ChanRendezvous.
	flowOrigin uint64
	flowSeq    uint64
	chanFlows  map[uint64]uint64

	// vchans is nil until the network layer maps a placed channel word
	// onto a vchan end (MapVChan); it keys masked channel addresses.
	vchans map[uint64]*extXfer

	// bc caches predecoded straight-line instruction blocks; curBlock
	// and curIdx form the execution cursor: the record after the last
	// one executed from the cache, or, with curIdx past the last record,
	// the block whose chain edges lead on (see find in blockcache.go).
	bc       *blockCache
	curBlock *block
	curIdx   int
	// qlen tracks the run-queue length per priority, published in
	// probe events.
	qlen [2]int

	// stats holds every counter but the per-operation tallies, which
	// live in opCounts (defined codes) and rareOps (anything else) and
	// are folded into Stats.OpCounts on demand; stats.OpCounts stays nil.
	stats    Stats
	opCounts [denseOps]uint64
	rareOps  map[uint16]uint64

	// store holds the code bc's blocks are handles on, shared with every
	// machine built with the same store (see CodeStore).  A cold field,
	// it stays last, so the fields the instruction loop touches keep
	// their offsets.
	store *CodeStore
}

// longOpState is an in-progress interruptible long operation: either a
// block move (remaining > 0) or a cycle burn modelling the tail of a
// long message communication (burnCycles > 0).
type longOpState struct {
	src, dst  uint64
	remaining int
	// overheadCharged reports whether the fixed part of the move cost
	// has been charged yet.
	overheadCharged bool
	burnCycles      int
	// onDone runs when the operation completes (e.g. rescheduling the
	// communication partner).
	onDone func()
}

// longOpChunkBytes bounds the uninterruptible portion of a block move;
// it is sized so the low-to-high priority switch stays within the
// paper's 58-cycle bound.
const longOpChunkBytes = 64

// notProcess is the minimum integer, used as the "no process" marker in
// channel words and list pointers.
func (m *Machine) notProcess() uint64 { return m.signBit }

// ALT state markers (stored in the wsState slot).
func (m *Machine) altEnabling() uint64 { return (m.signBit + 1) & m.mask }
func (m *Machine) altWaiting() uint64  { return (m.signBit + 2) & m.mask }
func (m *Machine) altReady() uint64    { return (m.signBit + 3) & m.mask }

// Timer ALT state markers (stored in the wsTLink slot).
func (m *Machine) timeSet() uint64    { return (m.signBit + 1) & m.mask }
func (m *Machine) timeNotSet() uint64 { return (m.signBit + 2) & m.mask }

// noneSelected marks an alternative with no selected branch yet.
func (m *Machine) noneSelected() uint64 { return m.mask } // -1

// New builds a machine from a configuration.  The machine has no clock
// or link engine attached; Attach must be called before Run when timers
// or links are used.  The code it decodes is its own.
func New(cfg Config) (*Machine, error) { return NewShared(cfg, nil) }

// NewShared is New for a machine that shares the code it decodes with
// every other machine built with store (see CodeStore).  A nil store
// gives the machine one of its own at its first decode.
func NewShared(cfg Config, store *CodeStore) (*Machine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:      cfg,
		wordBits: cfg.WordBits,
		bpw:      cfg.WordBits / 8,
		mem:      make([]byte, reservedWords*(cfg.WordBits/8)),
		store:    store,
	}
	m.mask = (uint64(1) << uint(cfg.WordBits)) - 1
	m.signBit = uint64(1) << uint(cfg.WordBits-1)
	for l := range m.xfers {
		m.xfers[l][0].end, m.xfers[l][1].end = End(l), End(l)
		m.xfers[l][1].output = true
	}
	m.resetSchedState()
	return m, nil
}

// MustNew is New for tests and examples with known-good configurations.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		// Unreachable from input: every caller passes a constant T424 or T222 configuration; trun and tnet (both through tool.BuildNetwork) and the loaders go through New.
		panic(err)
	}
	return m
}

func (m *Machine) resetSchedState() {
	np := m.notProcess()
	m.Wdesc = np
	m.Iptr = 0
	m.Areg, m.Breg, m.Creg, m.Oreg = 0, 0, 0, 0
	for p := 0; p < 2; p++ {
		m.Fptr[p] = np
		m.Bptr[p] = np
		m.Tptr[p] = np
	}
	for w := 0; w < wordEvent+1; w++ {
		m.setWordIndex(m.addrOf(0), w, np)
	}
	m.savedLow.valid = false
	m.preemptPending = false
	m.pendingSwitchCycles = 0
	m.longOp = nil
	m.halted = false
	m.errorFlag = false
	m.faulted = nil
	m.eventPending = false
	m.eventWaiter = np
	m.eventArmed = nil
	m.altLinks = 0
	m.waiting = 0
	m.blocked = m.blocked[:0]
	m.forcedHalt = ""
	m.qlen[0], m.qlen[1] = 0, 0
	m.flowSeq = 0
	m.chanFlows = nil
}

// Attach provides the simulated clock and, optionally, the link engine.
func (m *Machine) Attach(clock sim.Clock, ext External) {
	m.clock = clock
	m.ext = ext
}

// OnReady registers the idle-to-ready callback used by the driver.
func (m *Machine) OnReady(fn func()) { m.onReady = fn }

// AttachProbe connects (or with nil, disconnects) the machine's probe
// bus.  With no bus attached the instrumentation is a nil check per
// scheduling event and nothing more.
func (m *Machine) AttachProbe(b *probe.Bus) { m.bus = b }

// SetFlowOrigin fixes the origin half of flow identities this machine
// allocates (see probe.PackFlow).  The network layer assigns each node
// its creation ordinal so flows are globally unique and deterministic.
func (m *Machine) SetFlowOrigin(origin uint64) { m.flowOrigin = origin }

// newFlow allocates the next flow identity.  Called only under a
// non-nil bus, so a detached run never advances the sequence.
func (m *Machine) newFlow() uint64 {
	m.flowSeq++
	return probe.PackFlow(m.flowOrigin, m.flowSeq)
}

// offerFlow allocates a flow for a message offered on an internal
// channel word and remembers it until the rendezvous completes.
func (m *Machine) offerFlow(chAddr uint64) uint64 {
	fl := m.newFlow()
	if m.chanFlows == nil {
		m.chanFlows = make(map[uint64]uint64)
	}
	m.chanFlows[chAddr] = fl
	return fl
}

// takeFlow consumes the flow offered on a channel word at rendezvous.
// A missing entry (the partner blocked before the probe attached)
// yields a fresh flow so the rendezvous still joins one.
func (m *Machine) takeFlow(chAddr uint64) uint64 {
	if fl, ok := m.chanFlows[chAddr]; ok {
		delete(m.chanFlows, chAddr)
		return fl
	}
	return m.newFlow()
}

// emit stamps and publishes a probe event.  Callers must have checked
// m.bus != nil.
//
//tvet:ignore probeguard the nil-bus fast path is the caller's contract, per the doc line above
func (m *Machine) emit(e probe.Event) {
	e.Time = m.now()
	e.Cycles = m.stats.Cycles
	e.Node = m.cfg.Name
	m.bus.Publish(e)
}

// cycleDur converts a cycle count to simulated time.
func (m *Machine) cycleDur(cycles int) sim.Time {
	return sim.Time(int64(cycles) * CycleNs)
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Name returns the machine's label.
func (m *Machine) Name() string { return m.cfg.Name }

// WordBits returns the word length in bits.
func (m *Machine) WordBits() int { return m.wordBits }

// BytesPerWord returns the word length in bytes.
func (m *Machine) BytesPerWord() int { return m.bpw }

// Halted reports whether the machine has stopped (halt-on-error or a
// simulator-detected memory fault).
func (m *Machine) Halted() bool { return m.halted }

// ErrorFlag reports the state of the error flag.
func (m *Machine) ErrorFlag() bool { return m.errorFlag }

// Fault returns the first memory fault or forced halt, if any.
func (m *Machine) Fault() error {
	if m.faulted != nil {
		return m.faulted
	}
	if m.forcedHalt != "" {
		return fmt.Errorf("core: halted: %s", m.forcedHalt)
	}
	return nil
}

// ForceHalt stops the machine from outside the simulation — the fault
// subsystem's node-halt campaign.  The processor executes nothing
// further; the reason is reported by Fault.
func (m *Machine) ForceHalt(reason string) {
	if m.halted {
		return
	}
	m.halted = true
	m.forcedHalt = reason
	if m.bus != nil {
		m.emit(probe.Event{Kind: probe.NodeHalt})
	}
}

// ClearForcedHalt reverses a ForceHalt: the processor may execute
// again, picking up exactly the state it froze with — a battery-backed
// board whose power came back.  Only a forced halt can be cleared; a
// halt-on-error or memory-fault halt is a program's own verdict and
// stays.  Reports whether the machine was revived.
func (m *Machine) ClearForcedHalt() bool {
	if !m.halted || m.forcedHalt == "" || m.faulted != nil {
		return false
	}
	m.halted = false
	m.forcedHalt = ""
	if m.bus != nil {
		m.emit(probe.Event{Kind: probe.NodeRestart})
	}
	return true
}

// Idle reports whether no process is executing.  An idle machine may
// still be waiting on timers or links.
func (m *Machine) Idle() bool { return m.Wdesc == m.notProcess() || m.halted }

// now returns the current simulated time, or zero when no clock is
// attached (pure cycle-counting runs).
func (m *Machine) now() sim.Time {
	if m.clock == nil {
		return 0
	}
	return m.clock.Now()
}

func (m *Machine) setError() {
	m.errorFlag = true
	if m.cfg.HaltOnError || m.haltErr {
		m.halted = true
	}
}

// signed interprets a word value as a signed integer.
func (m *Machine) signed(v uint64) int64 {
	v &= m.mask
	if v&m.signBit != 0 {
		return int64(v | ^m.mask)
	}
	return int64(v)
}

// unsigned masks a host value to a word.
func (m *Machine) unsigned(v int64) uint64 { return uint64(v) & m.mask }

// later implements the transputer's modular AFTER comparison: a AFTER b
// when (a-b) interpreted as a signed word is positive.
func (m *Machine) later(a, b uint64) bool {
	return m.signed((a-b)&m.mask) > 0
}

// Image is a loadable program produced by the assembler or the occam
// compiler.
type Image struct {
	// Code is the instruction stream, loaded at MemStart.
	Code []byte
	// Entry is the byte offset of the first instruction within Code.
	Entry int
	// DataBytes reserves zeroed space after the code image (vector
	// space for arrays placed outside workspaces).
	DataBytes int
	// WsBelow is the workspace requirement, in words, below the initial
	// workspace pointer: call frames, PAR component workspaces and the
	// five scheduler slots.
	WsBelow int
	// WsAbove is the number of local-variable words at and above the
	// initial workspace pointer.
	WsAbove int
	// Marks is the optional source map, sorted by offset; see
	// isa.SourceLine.
	Marks []isa.SourceMark
}

// CodeStart returns the address code is loaded at.
func (m *Machine) CodeStart() uint64 { return m.MemStart() }

// DataStart returns the address of the reserved data area for the
// loaded image.
func (m *Machine) DataStart() uint64 {
	return m.index(m.MemStart(), (m.loadedCodeBytes+m.bpw-1)/m.bpw)
}

var errNoRoom = fmt.Errorf("core: program does not fit in memory")

// Load places the image in memory and creates the initial process at
// low priority, mirroring the hardware boot convention.
func (m *Machine) Load(img Image) error {
	m.resetSchedState()
	m.flushBlocks()
	codeStart := m.MemStart()
	codeWords := (len(img.Code) + m.bpw - 1) / m.bpw
	dataWords := (img.DataBytes + m.bpw - 1) / m.bpw
	wsBase := int(m.offset(codeStart))/m.bpw + codeWords + dataWords
	wptrWord := wsBase + img.WsBelow + 5 // room for scheduler slots below
	topWord := wptrWord + img.WsAbove
	if topWord*m.bpw > m.cfg.MemBytes {
		return fmt.Errorf("%w: need %d words, have %d",
			errNoRoom, topWord, m.cfg.MemBytes/m.bpw)
	}
	if top := topWord * m.bpw; top > len(m.mem) {
		// Code, data and workspaces lie below top, so the backing
		// covers what the program touches before it is loaded.
		m.resize(uint64(top))
	}
	m.loadedCodeBytes = len(img.Code)
	m.WriteBytes(codeStart, img.Code)
	wptr := m.addrOf(uint64(wptrWord * m.bpw))
	m.entryWptr = wptr
	m.Wdesc = wptr | PriorityLow
	m.Iptr = m.index(codeStart, 0) + uint64(img.Entry)
	m.stats.CodeBytes = len(img.Code)
	return nil
}

// EntryWptr returns the initial workspace pointer established by Load;
// tests and tools use it to locate the program's local variables.
func (m *Machine) EntryWptr() uint64 { return m.entryWptr }

// Local reads local variable n of the entry workspace.
func (m *Machine) Local(n int) uint64 {
	return m.word(m.index(m.entryWptr, n))
}

// StartProcess enqueues an additional process with the given workspace
// pointer, instruction pointer and priority; used by loaders that build
// multi-process systems directly (the occam compiler instead emits
// start process instructions).
func (m *Machine) StartProcess(wptr, iptr uint64, priority int) {
	wdesc := (wptr &^ 1) | uint64(priority)
	m.setWordIndex(wptr&^1, wsIptr, iptr)
	m.schedule(wdesc)
}
