package core_test

import (
	"reflect"
	"strings"
	"testing"

	"transputer/internal/core"
	"transputer/internal/network"
	"transputer/internal/sim"
)

// The link-free kernels the experiment tables run through core.Run:
// the paper's assignment and expression mix (exp/rates.go, E11) and the
// straight-line fetch-buffer loop (A3).  loopSource adds control flow,
// so batches end and resume.
var (
	tableMix = strings.Repeat("\tldc 0\n\tstl 1\n\tldl 2\n\tstl 1\n\tldl 1\n\tadc 2\n\tstl 1\n"+
		"\tldl 1\n\tldl 2\n\tadd\n\tstl 1\n", 64) + "\tstopp\n"
	fetchLoop = strings.Repeat("\tldl 1\n\tadc 1\n\tstl 1\n", 200) + "\tstopp\n"
)

// TestRunMatchesOneNodeSystem pins core.Run and network.System.Run as
// one path: a standalone machine is a network of one, so the same image
// run either way — block cache on or off, to quiescence, to a generous
// limit or to a limit that stops it mid-program — ends at the same
// time with the same verdict, statistics and instruction trace.
func TestRunMatchesOneNodeSystem(t *testing.T) {
	type outcome struct {
		time    sim.Time
		settled bool
		stats   core.Stats
		trace   []core.TraceEvent
	}
	cfg := core.T424().WithMemory(64 * 1024)
	for _, k := range []struct{ name, src string }{
		{"tableMix", tableMix}, {"fetchLoop", fetchLoop}, {"loop", loopSource},
	} {
		name, img := k.name, assemble(t, k.src)
		for _, cache := range []bool{true, false} {
			for _, limit := range []sim.Time{0, 10 * sim.Millisecond, 5 * sim.Microsecond} {
				var alone, networked outcome

				m := core.MustNew(cfg)
				m.SetBlockCache(cache)
				if err := m.Load(img); err != nil {
					t.Fatal(err)
				}
				m.SetTrace(func(e core.TraceEvent) { alone.trace = append(alone.trace, e) })
				res := core.Run(m, limit)
				alone.time, alone.settled, alone.stats = res.Time, res.Settled, m.Stats()

				s := network.NewSystem()
				s.SetBlockCache(cache)
				n := s.MustAddTransputer("m", cfg)
				if err := n.Load(img); err != nil {
					t.Fatal(err)
				}
				n.M.SetTrace(func(e core.TraceEvent) { networked.trace = append(networked.trace, e) })
				rep := s.Run(limit)
				networked.time, networked.settled, networked.stats = rep.Time, rep.Settled, n.M.Stats()

				if wantSettled := limit != 5*sim.Microsecond; alone.settled != wantSettled {
					t.Errorf("%s cache=%v limit=%v: core.Run settled=%v, want %v", name, cache, limit, alone.settled, wantSettled)
				}
				if !reflect.DeepEqual(alone, networked) {
					t.Errorf("%s cache=%v limit=%v: core.Run and a one-node system differ:\n%v %v %+v (%d instructions traced)\n%v %v %+v (%d instructions traced)",
						name, cache, limit,
						alone.time, alone.settled, alone.stats, len(alone.trace),
						networked.time, networked.settled, networked.stats, len(networked.trace))
				}
			}
		}
	}
}
