package network_test

import (
	"fmt"
	"strings"
	"testing"

	"transputer/internal/fault"
	"transputer/internal/link"
	"transputer/internal/network"
	"transputer/internal/sim"
)

// TestChannelEndDecode drives the machine's channel-word decode over
// real engines: node a's link 1 is multiplexed (two vchans, to b) and
// its link 2 is a plain wire to c.  A message or ALT instruction on a
// link word or a vchan word in the wrong direction halts the node with
// a positioned fault naming the kind of word; an ALT over one vchan
// input and one plain link input selects whichever is used first.
func TestChannelEndDecode(t *testing.T) {
	// The convention vchan words of a 32-bit machine are the most
	// positive 4 links × 32 vchans × 2 directions words.
	vcOut := func(l, vc int) string { return fmt.Sprintf("\tldc %d\n", 0x7ffffc00+(l*32+vc)*4) }
	vcIn := func(l, vc int) string { return fmt.Sprintf("\tldc %d\n", 0x7ffffc00+((4+l)*32+vc)*4) }
	linkOut := func(l int) string { return fmt.Sprintf("\tmint\n\tldnlp %d\n", l) }
	linkIn := func(l int) string { return fmt.Sprintf("\tmint\n\tldnlp %d\n", 4+l) }
	output := func(ch string) string { return "\tldlp 1\n" + ch + "\tldc 4\n\tout\n\tstopp\n" }
	outword := func(ch string) string { return "\tldc 9\n" + ch + "\toutword\n\tstopp\n" }
	input := func(ch string) string { return "\tldlp 1\n" + ch + "\tldc 4\n\tin\n\tstopp\n" }
	alt := func(ch string) string { return "\talt\n\tldc 1\n" + ch + "\tenbc\n\taltwt\n\tstopp\n" }
	// choose ALTs over vchan 1 of link 1 and link 2's input, inputs
	// from the guard that fired and stores its branch (1 or 2) and the
	// word it read in locals 2 and 3.
	choose := "\talt\n\tldc 1\n" + vcIn(1, 1) + "\tenbc\n\tldc 1\n" + linkIn(2) + "\tenbc\n\taltwt\n" +
		"\tldc b1-dend\n\tldc 1\n" + vcIn(1, 1) + "\tdisc\n" +
		"\tldc b2-dend\n\tldc 1\n" + linkIn(2) + "\tdisc\n\taltend\ndend:\n" +
		"b1:\n\tldlp 3\n" + vcIn(1, 1) + "\tldc 4\n\tin\n\tldc 1\n\tstl 2\n\tstopp\n" +
		"b2:\n\tldlp 3\n" + linkIn(2) + "\tldc 4\n\tin\n\tldc 2\n\tstl 2\n\tstopp\n"

	cases := []struct {
		name  string
		a     string // node a's program
		b, c  string // the peers' programs, "" for none
		fault string // the fault a halts with, "" for a clean run
		arm   int64  // the ALT branch a takes
		word  int64  // the word that branch reads
	}{
		{name: "out on a link input", a: output(linkIn(2)), fault: "output on input link channel at address 0x80000018"},
		{name: "outword on a link input", a: outword(linkIn(2)), fault: "output on input link channel at address 0x80000018"},
		{name: "in on a link output", a: input(linkOut(2)), fault: "input on output link channel at address 0x80000008"},
		{name: "alt on a link output", a: alt(linkOut(2)), fault: "alternative on output link channel at address 0x80000008"},
		{name: "out on a vchan input", a: output(vcIn(1, 1)), fault: "output on input vchan channel at address 0x7ffffe84"},
		{name: "outword on a vchan input", a: outword(vcIn(1, 1)), fault: "output on input vchan channel at address 0x7ffffe84"},
		{name: "in on a vchan output", a: input(vcOut(1, 1)), fault: "input on output vchan channel at address 0x7ffffc84"},
		{name: "alt on a vchan output", a: alt(vcOut(1, 1)), fault: "alternative on output vchan channel at address 0x7ffffc84"},
		{name: "alt selects a vchan input", a: choose, b: outword(vcOut(1, 1)), arm: 1, word: 9},
		{name: "alt selects a link input", a: choose, c: outword(linkOut(2)), arm: 2, word: 9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := network.NewSystem()
			a := s.MustAddTransputer("a", cfg())
			b := s.MustAddTransputer("b", cfg())
			c := s.MustAddTransputer("c", cfg())
			s.MustConnect(a, 1, b, 1)
			s.MustConnect(a, 2, c, 2)
			if err := s.EnableVChans(a, 1, 2); err != nil {
				t.Fatal(err)
			}
			load(t, a, tc.a)
			for _, p := range []struct {
				n   *network.Node
				src string
			}{{b, tc.b}, {c, tc.c}} {
				if p.src == "" {
					p.src = "\tstopp\n"
				}
				load(t, p.n, p.src)
			}
			rep := s.Run(sim.Millisecond)
			if !rep.Settled {
				t.Fatalf("did not settle: %+v", rep)
			}
			if tc.fault != "" {
				err := a.M.Fault()
				if err == nil || !strings.HasSuffix(err.Error(), "memory fault: "+tc.fault) || !a.M.Halted() {
					t.Fatalf("fault %v (halted %v), want %q", err, a.M.Halted(), tc.fault)
				}
				return
			}
			for _, n := range []*network.Node{a, b, c} {
				if err := n.M.Fault(); err != nil {
					t.Fatal(err)
				}
			}
			if len(rep.Blocked) > 0 {
				t.Fatalf("blocked: %+v", rep.Blocked)
			}
			if arm, word := int64(a.M.Local(2)), int64(a.M.Local(3)); arm != tc.arm || word != tc.word {
				t.Errorf("branch %d read %d, want branch %d reading %d", arm, word, tc.arm, tc.word)
			}
		})
	}
}

// TestEnableVChansRejects: System.EnableVChans refuses what it cannot
// do — a count outside 2..link.MaxVChans, a wire already multiplexed
// from either end, a link with no transputer at the far end, a call
// once the run has started — and changes nothing when it does.
func TestEnableVChansRejects(t *testing.T) {
	cases := []struct {
		name  string
		prep  func(s *network.System, a, b *network.Node) // before the call under test
		count int
		link  int    // a's link to multiplex; 0 means 1, the wire to b
		want  string // "" when the call must succeed
	}{
		{name: "two", count: 2},
		{name: "the most", count: link.MaxVChans},
		{name: "one", count: 1, want: "1 vchans on a link 1, want 2..32"},
		{name: "none", count: 0, want: "0 vchans on a link 1, want 2..32"},
		{name: "too many", count: link.MaxVChans + 1, want: "33 vchans on a link 1, want 2..32"},
		{name: "unwired", count: 4, link: 2, want: "vchan on unwired link end a.2"},
		{name: "host link", count: 4, link: 2, want: "vchan on host link end a.2 (vchans need a transputer-to-transputer connect)",
			prep: func(s *network.System, a, b *network.Node) { s.AttachHost(a, 2, nil) }},
		{name: "faulted wire", count: 4, want: "vchans on a link 1, a wire the fault plan touches",
			prep: func(s *network.System, a, b *network.Node) {
				s.ApplyFaults(fault.Plan{Rules: []fault.Rule{{Kind: fault.Drop, Node: "b", Link: 0, Rate: 0.5}}})
			}},
		{name: "this end again", count: 4, want: "a link 1 is already multiplexed",
			prep: func(s *network.System, a, b *network.Node) { s.EnableVChans(a, 1, 8) }},
		{name: "the far end first", count: 4, want: "a link 1 is already multiplexed",
			prep: func(s *network.System, a, b *network.Node) { s.EnableVChans(b, 0, 8) }},
		{name: "after the run", count: 4, want: "vchans on a link 1 enabled after the run has started",
			prep: func(s *network.System, a, b *network.Node) { s.Run(sim.Microsecond) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := network.NewSystem()
			a := s.MustAddTransputer("a", cfg())
			b := s.MustAddTransputer("b", cfg())
			s.MustConnect(a, 1, b, 0)
			if tc.link == 0 {
				tc.link = 1
			}
			if tc.prep != nil {
				tc.prep(s, a, b)
			}
			before := a.Engine.VChans(tc.link)
			err := s.EnableVChans(a, tc.link, tc.count)
			switch {
			case tc.want == "" && err != nil:
				t.Fatal(err)
			case tc.want == "" && (a.Engine.VChans(1) != tc.count || b.Engine.VChans(0) != tc.count):
				t.Fatalf("multiplexed %d and %d ways, want %d", a.Engine.VChans(1), b.Engine.VChans(0), tc.count)
			case tc.want != "" && (err == nil || err.Error() != "network: "+tc.want):
				t.Fatalf("error %v, want %q", err, "network: "+tc.want)
			case tc.want != "" && a.Engine.VChans(tc.link) != before:
				t.Fatalf("a refused call changed the link: %d vchans, had %d", a.Engine.VChans(tc.link), before)
			}
		})
	}
}
