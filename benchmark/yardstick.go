package main

import "time"

// The yardstick.  The reference host is a two-processor slice of a
// shared machine, and what the neighbours do to its caches and
// execution units moves the wall time of identical iterations by 20 to
// 40 % for seconds to minutes at a stretch: no estimator over a run of
// any length the contract allows steadies that, because a whole run
// sits inside one such phase.  So every timed region is bracketed by a
// fixed piece of work that belongs to the benchmark alone — no code of
// the repository is in it, so no later change can speed it up — and
// the region's time is divided by how much slower than nominal that
// work ran just before and just after it.  What the timing metrics
// report is therefore wall time at the nominal host speed.
//
// The work is three loops of about equal length, each slowed by a
// different kind of neighbour: arithmetic that keeps several execution
// units busy (a sibling hyperthread), a pointer chase round 1 MiB (the
// second-level cache it shares with that sibling), and a hash map
// filled from empty (allocation and the collector, scattered reads).
// On half an hour of recordings, ten-second blocks of every workload
// in turn, this mix brought the spread of the block medians from
// 18-28 % of the median down to 3-7 %; a lone arithmetic loop, a lone
// memory walk, and walks of 4 and 16 MiB each did worse on some
// workload.
const (
	yardArith = 7_400_000
	yardChase = 1_280_000
	yardMap   = 116_000
	// yardNominal is what the yardstick takes on the reference host
	// (Xeon 2.1 GHz) when nothing else runs.  It only fixes the scale.
	yardNominal = 30 * time.Millisecond
)

// chaseRing is one cycle through all its slots in a scrambled order,
// so that every load depends on the last and none is predictable.  It
// is a global, not a slice, to stay out of the heap live_heap_mb
// reads.
var chaseRing [1 << 18]uint32

func xorshift(x *uint64) uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return *x
}

func init() {
	for i := range chaseRing {
		chaseRing[i] = uint32(i)
	}
	x := uint64(12345)
	for i := len(chaseRing) - 1; i > 0; i-- { // Sattolo: a single cycle
		j := xorshift(&x) % uint64(i)
		chaseRing[i], chaseRing[j] = chaseRing[j], chaseRing[i]
	}
}

// yardSink keeps the compiler from dropping the loops.
var yardSink uint64

// yardstick does the fixed work and returns how long it took.
func yardstick() time.Duration {
	start := time.Now()

	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	for i := uint64(0); i < yardArith; i++ {
		a = a*6364136223846793005 + 1442695040888963407
		b ^= b<<13 ^ i
		c += c>>3 + 7
		d = d*3 + a&0xff
	}

	p := uint32(0)
	for i := 0; i < yardChase; i++ {
		p = chaseRing[p]
	}

	x := uint64(3)
	m := make(map[uint64]*[4]uint64)
	for i := 0; i < yardMap; i++ {
		k := xorshift(&x) & 0xffff
		e := m[k]
		if e == nil {
			e = new([4]uint64)
			m[k] = e
		}
		e[i&3]++
	}

	yardSink += a + b + c + d + uint64(p) + uint64(len(m))
	return time.Since(start)
}

// pacer brackets consecutive timed regions with the yardstick: the
// reading after one region is the reading before the next.
type pacer struct{ last time.Duration }

// slowdown runs fn and returns how much slower than nominal the host
// was around it: the mean of the yardstick before and after, over
// yardNominal.
func (p *pacer) slowdown(fn func()) float64 {
	if p.last == 0 {
		p.last = yardstick()
	}
	fn()
	before := p.last
	p.last = yardstick()
	return float64(before+p.last) / 2 / float64(yardNominal)
}
