package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestScheduleOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	k.Schedule(30, func() { got = append(got, 3) })
	k.Schedule(10, func() { got = append(got, 1) })
	k.Schedule(20, func() { got = append(got, 2) })
	k.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("fired order %v, want [1 2 3]", got)
	}
	if k.Now() != 30 {
		t.Errorf("final time %v, want 30", k.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(5, func() { got = append(got, i) })
	}
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events fired out of order: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	id := k.Schedule(10, func() { fired = true })
	if k.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", k.Pending())
	}
	k.Cancel(id)
	if k.Pending() != 0 {
		t.Errorf("Pending after cancel = %d, want 0", k.Pending())
	}
	k.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	k.Cancel(id) // double cancel is a no-op
	k.Cancel(0)  // zero ID is a no-op
	if k.Pending() != 0 {
		t.Errorf("Pending = %d, want 0", k.Pending())
	}
}

func TestNestedScheduling(t *testing.T) {
	k := NewKernel()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			k.After(7, tick)
		}
	}
	k.After(7, tick)
	k.Run()
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if k.Now() != 35 {
		t.Errorf("final time = %v, want 35", k.Now())
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel()
	var got []Time
	for _, at := range []Time{5, 15, 25} {
		at := at
		k.Schedule(at, func() { got = append(got, at) })
	}
	drained := k.RunUntil(20)
	if drained {
		t.Error("RunUntil(20) reported drained with an event at 25 pending")
	}
	if len(got) != 2 {
		t.Errorf("fired %v, want two events", got)
	}
	if k.Now() != 20 {
		t.Errorf("Now = %v, want 20 (advanced to limit)", k.Now())
	}
	if !k.RunUntil(100) {
		t.Error("RunUntil(100) should drain")
	}
	if len(got) != 3 {
		t.Errorf("fired %v, want three events", got)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	k := NewKernel()
	k.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		k.Schedule(5, func() {})
	})
	k.Run()
}

// TestHeapProperty drives the kernel with random schedules and checks
// events fire in nondecreasing time order.
func TestHeapProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel()
		var times []Time
		var fired []Time
		for i := 0; i < int(n)+1; i++ {
			at := Time(rng.Intn(1000))
			times = append(times, at)
			at2 := at
			k.Schedule(at, func() { fired = append(fired, at2) })
		}
		k.Run()
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		if len(fired) != len(times) {
			return false
		}
		for i := range fired {
			if fired[i] != times[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		500:                "500ns",
		6 * Microsecond:    "6.000µs",
		1300 * Microsecond: "1.300ms",
		2 * Second:         "2.000s",
		-5:                 "-5ns",
		1234567:            "1.235ms",
		MaxTime:            "9223372036.855s",
	}
	for v, want := range cases {
		if got := v.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(v), got, want)
		}
		if got := string(v.AppendTo([]byte("at "))); got != "at "+want {
			t.Errorf("%d.AppendTo = %q, want %q", int64(v), got, "at "+want)
		}
	}
}

// TestEventSize pins the heap entry at 24 bytes: every sift copies
// entries, and ordering by one (at, key) pair is what keeps an entry at
// three words.  Growing it costs sim.kernel.ns_per_event on every event
// the engine fires.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 24 {
		t.Errorf("unsafe.Sizeof(event{}) = %d, want 24", got)
	}
}

// refEvent is a pending entry of the reference queue, ordered by the
// three-field rule the one-key order must reproduce: time, then rank
// (deliveries 0 before locals 1), then seq — a local's scheduling
// ordinal, or a delivery's (rank+1)<<48 | xseq identity.
type refEvent struct {
	at   Time
	rank uint8
	seq  uint64
	tag  int
}

func refLess(a, b refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.seq < b.seq
}

// orderLog records the tags of fired events; deliveries carry theirs
// in word A.
type orderLog []int

func (l *orderLog) Receive(m Msg) { *l = append(*l, int(m.A)) }

// orderRanks are the source ranks a delivery is drawn from: small
// ones, the 2^15 boundary, and the last ranks below MaxPorts.
var orderRanks = []int{0, 1, 2, 1<<15 - 1, 1 << 15, MaxPorts - 2, MaxPorts - 1}

// checkOrder interprets prog as byte pairs (op, arg) — schedule a
// local, schedule a delivery, cancel, or fire by Step, RunBefore or
// RunUntil — on a kernel and on a reference queue sorted by the
// three-field rule, then drains both, and reports the first point where
// the fired orders differ.
func checkOrder(prog []byte) error {
	k := NewKernel()
	var got, want orderLog
	var ref []refEvent
	var ids []EventID
	var localSeq uint64
	xseq := map[int]uint64{}
	// fire pops the reference's earliest entry while it satisfies ok.
	fire := func(ok func(Time) bool) {
		for len(ref) > 0 {
			m := 0
			for i := range ref {
				if refLess(ref[i], ref[m]) {
					m = i
				}
			}
			if !ok(ref[m].at) {
				return
			}
			want = append(want, ref[m].tag)
			ref = append(ref[:m], ref[m+1:]...)
		}
	}
	for i := 0; i+1 < len(prog); i += 2 {
		op, arg := prog[i], prog[i+1]
		at := k.Now() + Time(arg%4)
		tag := len(ids)
		switch op % 4 {
		case 0:
			ids = append(ids, k.Schedule(at, func() { got = append(got, tag) }))
			ref = append(ref, refEvent{at: at, rank: 1, seq: localSeq, tag: tag})
			localSeq++
		case 1:
			r := orderRanks[int(arg/4)%len(orderRanks)]
			seq := xseq[r]
			xseq[r]++
			ids = append(ids, k.ScheduleDelivery(at, deliveryKey(r, seq), &got, Msg{A: uint64(tag)}))
			ref = append(ref, refEvent{at: at, rank: 0, seq: uint64(r+1)<<48 | seq, tag: tag})
		case 2:
			if len(ids) == 0 {
				continue
			}
			c := int(arg) % len(ids)
			k.Cancel(ids[c])
			for j := range ref {
				if ref[j].tag == c {
					ref = append(ref[:j], ref[j+1:]...)
					break
				}
			}
		case 3:
			switch bound := k.Now() + Time(arg/4%3); arg % 4 {
			case 0:
				k.Step()
				n := 0
				fire(func(Time) bool { n++; return n == 1 })
			case 1:
				k.RunBefore(bound)
				fire(func(t Time) bool { return t < bound })
			default:
				k.RunUntil(bound)
				fire(func(t Time) bool { return t <= bound })
			}
		}
		if !slices.Equal(got, want) {
			return fmt.Errorf("after op %d: fired %v, reference %v", i/2, got, want)
		}
		if k.Pending() != len(ref) {
			return fmt.Errorf("after op %d: Pending = %d, reference holds %d", i/2, k.Pending(), len(ref))
		}
	}
	k.Run()
	fire(func(Time) bool { return true })
	if !slices.Equal(got, want) {
		return fmt.Errorf("drained: fired %v, reference %v", got, want)
	}
	return nil
}

// orderPrograms are checkOrder's table: hand-written same-instant cases
// and random mixes.
func orderPrograms() map[string][]byte {
	progs := map[string][]byte{
		// A local, then a delivery from the last rank at the same
		// instant: the delivery still fires first.
		"edge-delivery-before-local": {0, 0, 1, 4 * 6, 3, 2},
		// Deliveries from both sides of the 2^15 boundary and the edge,
		// scheduled in descending rank, all at one instant.
		"rank-order": {1, 4 * 6, 1, 4 * 5, 1, 4 * 4, 1, 4 * 3, 1, 0, 0, 0, 3, 2},
		// Cancel the top, then fire past it.
		"cancelled-top": {0, 0, 1, 4 * 6, 2, 1, 3, 1 + 4*2},
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 400)
		rng.Read(prog)
		progs[fmt.Sprintf("random-%d", seed)] = prog
	}
	return progs
}

// TestEventOrderDifferential checks the one-key order against the
// three-field rule it replaced, on locals, deliveries at the MaxPorts
// edge, cancels and same-instant ties.
func TestEventOrderDifferential(t *testing.T) {
	if k := deliveryKey(MaxPorts-1, 1<<deliveryRankShift-1); k >= localClass {
		t.Fatalf("deliveryKey at the MaxPorts edge = %#x, not below the class bit", k)
	}
	for name, prog := range orderPrograms() {
		if err := checkOrder(prog); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func FuzzEventOrder(f *testing.F) {
	for _, prog := range orderPrograms() {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1024 {
			return
		}
		if err := checkOrder(prog); err != nil {
			t.Fatal(err)
		}
	})
}
