package sim

import (
	"runtime"
	"sync"
	"time"
)

// claim-word layout: epoch(32) | len(16) | idx(16).
const (
	claimEpochShift = 32
	claimLenShift   = 16
	claimMask       = 0xffff
)

// startPool launches the helper goroutines for a run.  With one worker
// (or one shard) no goroutines are started and windows run inline.
// The coordinator itself executes shards too, so a run uses workers-1
// helpers: on a machine with nothing to run them on, the coordinator
// simply claims every shard itself and a window costs a handful of
// atomic operations more than sequential execution.
func (c *Coordinator) startPool() (stop func()) {
	n := c.workers
	if n > len(c.shards) {
		n = len(c.shards)
	}
	if n <= 1 {
		return func() {}
	}
	c.helpers = n - 1
	c.tokenCh = make(chan struct{}, c.helpers)
	var alive sync.WaitGroup
	alive.Add(c.helpers)
	for i := 0; i < c.helpers; i++ {
		go func() {
			defer alive.Done()
			c.helperLoop()
		}()
	}
	ch := c.tokenCh
	return func() {
		close(ch)
		alive.Wait()
		c.tokenCh = nil
		c.helpers = 0
	}
}

// helperLoop claims shards whenever a window is open.  Between windows
// a helper spins briefly on the claim word (windows are short, often
// only a few hundred simulated nanoseconds apart), then parks on the
// token channel until the coordinator wakes it or the run ends.
func (c *Coordinator) helperLoop() {
	const spinBudget = 1 << 12
	spins := 0
	for {
		if c.tryClaim() {
			spins = 0
			continue
		}
		spins++
		if spins < spinBudget {
			if spins%64 == 0 {
				runtime.Gosched()
			}
			continue
		}
		// Park.  Re-check after registering as a sleeper so a window
		// opened concurrently cannot be missed: the coordinator reads
		// sleepers after publishing the claim word.
		c.sleepers.Add(1)
		if c.tryClaim() {
			c.sleepers.Add(-1)
			spins = 0
			continue
		}
		_, ok := <-c.tokenCh
		c.sleepers.Add(-1)
		if !ok {
			return
		}
		spins = 0
	}
}

// tryClaim takes one shard of the current window, if any remains, and
// runs it.  The epoch bits in the claim word pin the coordinator: a
// successful CAS means the window it belongs to is still open (the
// coordinator cannot pass the barrier until every claimed shard is
// done), so c.active is stable and safe to read.
func (c *Coordinator) tryClaim() bool {
	for {
		cur := c.claim.Load()
		idx := cur & claimMask
		if idx >= (cur>>claimLenShift)&claimMask {
			return false
		}
		if !c.claim.CompareAndSwap(cur, cur+1) {
			continue
		}
		s := c.active[idx]
		s.runBefore(s.hzn)
		c.windowWg.Done()
		return true
	}
}

// runWindow executes one window: every active shard runs its events
// strictly before its horizon.  The barrier (WaitGroup) makes all
// shard work of this window happen-before the coordinator resumes.
func (c *Coordinator) runWindow(active []*Shard) {
	if c.tokenCh == nil || len(active) == 1 {
		for _, s := range active {
			s.runBefore(s.hzn)
		}
		return
	}
	if len(active) > claimMask {
		// Unreachable from input: a window holds at most one shard a port, and ports stop at MaxPorts, under claimMask.
		panic("sim: too many shards in one window")
	}
	// Publish the window.  The WaitGroup is armed before the claim
	// word: a helper that claims the first shard instantly must find
	// the barrier already counting it.
	c.active = active
	c.windowWg.Add(len(active))
	epoch := (c.claim.Load() >> claimEpochShift) + 1
	c.claim.Store(epoch<<claimEpochShift | uint64(len(active))<<claimLenShift)
	if c.sleepers.Load() > 0 {
		// Wake parked helpers, at most one per remaining shard.
		for i := 0; i < c.helpers && i < len(active)-1; i++ {
			select {
			case c.tokenCh <- struct{}{}:
			default:
				i = c.helpers // buffer full: every helper already has a wakeup pending
			}
		}
	}
	// The coordinator works the window too, then waits out the stragglers.
	for c.tryClaim() {
	}
	//tvet:ignore nondetsource wall-clock here only feeds EngineStats barrier-wait diagnostics, never simulation state
	t0 := time.Now()
	c.windowWg.Wait()
	//tvet:ignore nondetsource wall-clock here only feeds EngineStats barrier-wait diagnostics, never simulation state
	c.stBarrierWait += time.Since(t0).Nanoseconds()
}
