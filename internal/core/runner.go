package core

import "transputer/internal/sim"

// Runner drives a machine from its scheduling port.  Instructions are
// executed in batches: one heap event runs a tight loop of Machine.Step
// calls, advancing a virtual-time offset per instruction, until the
// next scheduled event, the port's window horizon, or the machine
// idling or halting — so many instructions share one heap event while
// observable time stays exactly as if each had been its own.  A batch
// the horizon stopped goes on past it for as long as its instructions
// are delivery-independent (see ahead.go).  The machine's ready
// callback resumes a stopped runner.
type Runner struct {
	M      *Machine
	port   *sim.Port
	active bool
	// stepFn is r.step bound once: the runner schedules a continuation
	// per batch, and a fresh method value each time is an allocation on
	// the engine's hottest cycle.
	stepFn func()
	// BusyCycles counts cycles the processor spent executing; the
	// difference from elapsed time is idle time.
	BusyCycles uint64
	// Ahead counts what ran past the port's horizon, and what ended it.
	Ahead AheadStats
}

// aheadCapCycles bounds one run past the horizon, so that a loop no
// delivery can reach still returns to the kernel now and then.  It is
// above the default timeslice, which ends a low-priority run-ahead at
// the next j anyway.
const aheadCapCycles = 1 << 16

// park is the event a machine that halted past its horizon leaves at
// its last instruction, so the port's clock ends there once the window
// reaches it.
func park() {}

// NewRunner puts a machine on a port: the port becomes the machine's
// clock and the thing it is stepped from, and ext (nil for a machine
// with no links) its link engine.
func NewRunner(p *sim.Port, m *Machine, ext External) *Runner {
	r := &Runner{M: m, port: p}
	r.stepFn = r.step
	m.Attach(p, ext)
	m.OnReady(r.resume)
	return r
}

// Start begins stepping the machine if it has work.
func (r *Runner) Start() { r.resume() }

func (r *Runner) resume() {
	if r.active || r.M.Halted() {
		return
	}
	r.active = true
	r.port.Schedule(r.port.Now(), r.stepFn)
}

// bound returns the exclusive virtual time the current batch may run
// to: the earlier of the next scheduled event (which must interleave
// exactly as it would with one event per instruction) and the port's
// horizon (its conservative window).
func (r *Runner) bound() sim.Time {
	b := r.port.Horizon()
	if t, ok := r.port.NextTime(); ok && t < b {
		b = t
	}
	return b
}

// step executes one batch of instructions.  The first instruction runs
// unconditionally (its event was scheduled inside the bound); each
// subsequent instruction runs only while the batch's virtual time
// stays strictly before bound(), so any pending event — scheduled
// earlier, hence with an earlier tie-break — fires first, exactly as
// in one-event-per-instruction stepping.
func (r *Runner) step() {
	r.active = false
	m := r.M
	if m.Halted() {
		return
	}
	d := r.port
	base := d.Now()
	var off, last sim.Time
	stamp := d.Stamp()
	bound := r.bound()
	for {
		last = base + off
		// Fast path: a run of predecoded records — pure ones, and the
		// branches between their blocks — executes in one call, with the
		// same per-instruction accounting and the same bound semantics
		// as the stepwise loop below.  These records cannot schedule or
		// cancel events, so the cached bound stays valid; they cannot
		// deschedule, so only a halt can park the machine.
		if n, lastC := m.StepRun(int64(bound - (base + off))); n > 0 {
			r.BusyCycles += uint64(n)
			off += sim.Time(int64(n) * CycleNs)
			if m.Halted() {
				d.SetOffset(0)
				d.AdvanceTo(base + off - sim.Time(int64(lastC)*CycleNs))
				return
			}
			if base+off >= bound {
				break
			}
			d.SetOffset(off)
			continue
		}
		cycles := m.Step()
		r.BusyCycles += uint64(cycles)
		delay := sim.Time(int64(cycles) * CycleNs)
		if cycles == 0 {
			delay = sim.Time(CycleNs)
		}
		off += delay
		if m.Halted() || (m.Idle() && m.longOp == nil && m.pendingSwitchCycles == 0) {
			// The machine stopped producing work at `last`; park the
			// clock there, as stepwise execution would have.
			d.SetOffset(0)
			d.AdvanceTo(last)
			return
		}
		if s := d.Stamp(); s != stamp {
			stamp = s
			bound = r.bound()
		}
		if base+off >= bound {
			break
		}
		d.SetOffset(off)
	}
	d.SetOffset(0)
	if base+off >= d.Horizon() {
		// The window, not an event of this port's own, ended the batch.
		n, lastC := r.runAhead(base + off)
		off += sim.Time(int64(n) * CycleNs)
		if m.Halted() {
			// Deliveries may still be due before the halt, so the clock
			// cannot be moved there now; an event takes it there.
			d.Schedule(base+off-sim.Time(int64(lastC)*CycleNs), park)
			return
		}
	}
	r.active = true
	id := d.Schedule(base+off, r.stepFn)
	if ahead := m.SendLookaheadCycles(); ahead > 0 {
		// The continuation will not start or acknowledge any link
		// transfer before then; the coordinator extends neighbouring
		// windows past the per-link lookahead on the strength of it.
		d.PromiseQuiet(id, base+off+sim.Time(int64(ahead)*CycleNs))
	}
}

// runAhead executes delivery-independent instructions from virtual time
// at, which is at or past the port's horizon, up to the port's next own
// event, the run's limit or the cap, and returns the cycles consumed
// and those of the last instruction.  The clock is not touched: nothing
// that runs here can read it.
func (r *Runner) runAhead(at sim.Time) (total, last int) {
	if r.M.aheadOff() {
		return 0, 0
	}
	d := r.port
	hard, why := at+aheadCapCycles*CycleNs, AheadCap
	if l := d.Limit(); l <= hard {
		hard, why = l, AheadLimit
	}
	if t, ok := d.NextTime(); ok && t <= hard {
		hard, why = t, AheadOwnEvent
	}
	exit := AheadBound
	if at < hard {
		total, last, exit = r.M.RunAhead(int64(hard - at))
	}
	if exit == AheadBound {
		exit = why
	}
	r.Ahead.Exits[exit]++
	if total > 0 {
		r.BusyCycles += uint64(total)
		r.Ahead.Batches++
		r.Ahead.Cycles += uint64(total)
	}
	return total, last
}

// RunResult describes why a standalone run stopped.
type RunResult struct {
	Time    sim.Time // final simulated time
	Settled bool     // true if the machine quiesced (idle, no pending events)
}

// Run executes a loaded machine standalone (no links) until it
// quiesces or the time limit passes.  A zero limit means no limit.  The
// machine runs as a network of one: a coordinator with a single port,
// the path every networked machine takes.
func Run(m *Machine, limit sim.Time) RunResult {
	c := sim.NewCoordinator(1)
	NewRunner(c.NewShard().Port(), m, nil).Start()
	if limit > 0 {
		settled := c.RunUntil(limit)
		return RunResult{Time: c.Now(), Settled: settled}
	}
	return RunResult{Time: c.Run(), Settled: true}
}
