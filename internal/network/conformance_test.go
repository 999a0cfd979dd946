package network_test

import (
	"bytes"
	"testing"

	"transputer/internal/core"
	"transputer/internal/network"
	"transputer/internal/sim"
)

// Conformance across the protocol stack's configurations: the same
// transfer scenario — one node streams a known message to its peer
// over one wire — must deliver byte-identical data through the raw
// protocol, the stop-and-wait ablation, the error-detecting mode, and
// a virtual-channel multiplexed link; and every configuration must be
// deterministic across worker counts and across the partition — the
// two nodes pinned on a shard each (tnet's -fuse off), fused onto one
// (-fuse full), or wherever the worker count puts them — completion
// instant included.

type xferOutcome struct {
	got  []byte
	done sim.Time
}

// stackPlacements are the partitions of the pair: nil leaves it to the
// worker count.
var stackPlacements = map[string][][]string{
	"private": {{"a"}, {"b"}},
	"fused":   {{"a", "b"}},
	"derived": nil,
}

// stackPair builds a two-node system wired a.0 <-> b.1 under one of
// stackPlacements.
func stackPair(t *testing.T, workers int, place string, reliable bool) (*network.System, *network.Node, *network.Node) {
	t.Helper()
	s := network.NewSystem()
	s.SetWorkers(workers)
	if groups := stackPlacements[place]; groups != nil {
		if err := s.SetPlacement(groups); err != nil {
			t.Fatal(err)
		}
	}
	c := core.T424().WithMemory(64 * 1024)
	a := s.MustAddTransputer("a", c)
	b := s.MustAddTransputer("b", c)
	s.MustConnect(a, 0, b, 1)
	if reliable {
		s.SetLinkMode(network.LinkMode{Reliable: true})
	}
	return s, a, b
}

// transferRaw streams the payload as one raw byte stream.
func transferRaw(t *testing.T, workers int, place string, payload []byte, stopwait, reliable bool) xferOutcome {
	t.Helper()
	s, a, b := stackPair(t, workers, place, reliable)
	if stopwait {
		a.Engine.SetStopAndWait(true)
		b.Engine.SetStopAndWait(true)
	}
	var out xferOutcome
	b.Clock().Schedule(sim.Microsecond, func() {
		b.Engine.RecvRaw(1, len(payload), func(d []byte) {
			out.got = d
			out.done = b.Clock().Now()
		})
	})
	a.Clock().Schedule(2*sim.Microsecond, func() {
		a.Engine.SendRaw(0, payload, nil)
	})
	s.Run(0)
	return out
}

// transferVC streams the payload as n equal strips, one per virtual
// channel, reassembled by vchan index at the receiver.
func transferVC(t *testing.T, workers int, place string, payload []byte, n int) xferOutcome {
	t.Helper()
	s, a, b := stackPair(t, workers, place, false)
	if err := s.EnableVChans(a, 0, n); err != nil {
		t.Fatal(err)
	}
	strip := len(payload) / n
	got := make([]byte, len(payload))
	var out xferOutcome
	left := n
	b.Clock().Schedule(sim.Microsecond, func() {
		for vc := 0; vc < n; vc++ {
			vc := vc
			b.Engine.RecvVC(1, vc, strip, func(d []byte) {
				copy(got[vc*strip:], d)
				left--
				if left == 0 {
					out.got = got
					out.done = b.Clock().Now()
				}
			})
		}
	})
	a.Clock().Schedule(2*sim.Microsecond, func() {
		for vc := 0; vc < n; vc++ {
			a.Engine.SendVC(0, vc, payload[vc*strip:(vc+1)*strip], nil)
		}
	})
	s.Run(0)
	return out
}

// TestProtocolStackConformance is the table: every configuration
// delivers the identical bytes, at an instant independent of the
// worker count and of whether the two nodes share a shard, by
// placement or by default.
func TestProtocolStackConformance(t *testing.T) {
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i*13 + 7)
	}
	configs := []struct {
		name string
		run  func(workers int, place string) xferOutcome
	}{
		{"raw", func(w int, p string) xferOutcome { return transferRaw(t, w, p, payload, false, false) }},
		{"stopwait", func(w int, p string) xferOutcome { return transferRaw(t, w, p, payload, true, false) }},
		{"reliable", func(w int, p string) xferOutcome { return transferRaw(t, w, p, payload, false, true) }},
		{"vchan8", func(w int, p string) xferOutcome { return transferVC(t, w, p, payload, 8) }},
	}
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			one := c.run(1, "private")
			if !bytes.Equal(one.got, payload) {
				t.Fatalf("delivered %d bytes differ from the sent message", len(one.got))
			}
			if one.done == 0 {
				t.Fatal("transfer never completed")
			}
			for _, place := range []string{"private", "fused", "derived"} {
				for _, workers := range []int{1, 4} {
					got := c.run(workers, place)
					if !bytes.Equal(one.got, got.got) || one.done != got.done {
						t.Errorf("placement=%s workers=%d changed the outcome: %d bytes at %v, want %d bytes at %v",
							place, workers, len(got.got), got.done, len(one.got), one.done)
					}
				}
			}
		})
	}
}
