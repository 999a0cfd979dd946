package network_test

import (
	"bytes"

	"testing"

	"transputer/internal/asm"
	"transputer/internal/core"
	"transputer/internal/network"
	"transputer/internal/sim"
)

func load(t *testing.T, n *network.Node, src string) {
	t.Helper()
	a, err := asm.Assemble(src, n.M.BytesPerWord())
	if err != nil {
		t.Fatalf("assemble for %s: %v", n.M.Name(), err)
	}
	if err := n.Load(a.Image); err != nil {
		t.Fatalf("load %s: %v", n.M.Name(), err)
	}
}

func cfg() core.Config { return core.T424().WithMemory(64 * 1024) }

// TestPingFourBytes sends one 4-byte message between two transputers
// and checks both the value and the paper's "about 6 microseconds"
// latency figure (section 4.2).
func TestPingFourBytes(t *testing.T) {
	s := network.NewSystem()
	a := s.MustAddTransputer("a", cfg())
	b := s.MustAddTransputer("b", cfg())
	s.MustConnect(a, 0, b, 0)

	load(t, a, `
	ldc 42
	mint
	outword        -- link 0 output channel is at MOSTNEG
	stopp
`)
	load(t, b, `
	ldlp 1
	mint
	ldnlp 4        -- link 0 input channel
	ldc 4
	in
	stopp
`)
	rep := s.Run(sim.Millisecond)
	if !rep.Settled {
		t.Fatalf("system did not settle: %+v", rep)
	}
	if got := b.M.Local(1); got != 42 {
		t.Errorf("received %d, want 42", got)
	}
	// 4 bytes at 1.1 µs each plus instruction overhead at both ends:
	// the paper quotes about 6 µs.
	if rep.Time < 4*sim.Microsecond || rep.Time > 8*sim.Microsecond {
		t.Errorf("4-byte message took %v, want roughly 6µs", rep.Time)
	}
	if err := a.M.Fault(); err != nil {
		t.Error(err)
	}
	if err := b.M.Fault(); err != nil {
		t.Error(err)
	}
}

// TestBothDirections exercises the pair of channels a link provides.
func TestBothDirections(t *testing.T) {
	s := network.NewSystem()
	a := s.MustAddTransputer("a", cfg())
	b := s.MustAddTransputer("b", cfg())
	s.MustConnect(a, 2, b, 3)

	// a sends 7 on link 2, then receives the reply (value+1) on the
	// same link's input channel.
	load(t, a, `
	ldc 7
	mint
	ldnlp 2        -- link 2 output
	outword
	ldlp 1
	mint
	ldnlp 6        -- link 2 input
	ldc 4
	in
	stopp
`)
	load(t, b, `
	ldlp 1
	mint
	ldnlp 7        -- link 3 input
	ldc 4
	in
	ldl 1
	adc 1
	stl 1
	ldl 1
	mint
	ldnlp 3        -- link 3 output
	outword
	stopp
`)
	rep := s.Run(sim.Millisecond)
	if !rep.Settled {
		t.Fatalf("did not settle: %+v", rep)
	}
	if got := a.M.Local(1); got != 8 {
		t.Errorf("round trip got %d, want 8", got)
	}

}

// TestHostProtocol runs a program that prints through the host device.
func TestHostProtocol(t *testing.T) {
	s := network.NewSystem()
	n := s.MustAddTransputer("app", cfg())
	var out bytes.Buffer
	host, err := s.AttachHost(n, 0, &out)
	if err != nil {
		t.Fatal(err)
	}
	load(t, n, `
	ldc 1          -- put char command
	mint
	outword
	ldc 'h'
	mint
	outword
	ldc 1
	mint
	outword
	ldc 'i'
	mint
	outword
	ldc 2          -- put word command
	mint
	outword
	ldc 1234
	mint
	outword
	ldc 4          -- exit command
	mint
	outword
	stopp
`)
	rep := s.Run(10 * sim.Millisecond)
	if !rep.Settled {
		t.Fatalf("did not settle: %+v", rep)
	}
	if !host.Done {
		t.Error("host did not receive exit")
	}
	if got := out.String(); got != "hi1234\n" {
		t.Errorf("output = %q, want %q", got, "hi1234\n")
	}
	if len(host.Values) != 1 || host.Values[0] != 1234 {
		t.Errorf("values = %v", host.Values)
	}
}

// TestHostInput: the program requests a word from the host queue.
func TestHostInput(t *testing.T) {
	s := network.NewSystem()
	n := s.MustAddTransputer("app", cfg())
	host, err := s.AttachHost(n, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	host.QueueInput(77)
	load(t, n, `
	ldc 5          -- get word command
	mint
	outword
	ldlp 1
	mint
	ldnlp 4        -- link 0 input
	ldc 4
	in
	ldc 2          -- echo it back
	mint
	outword
	ldl 1
	mint
	outword
	ldc 4
	mint
	outword
	stopp
`)
	rep := s.Run(10 * sim.Millisecond)
	if !rep.Settled || !host.Done {
		t.Fatalf("rep=%+v done=%v", rep, host.Done)
	}
	if n.M.Local(1) != 77 {
		t.Errorf("program read %d, want 77", n.M.Local(1))
	}
	if len(host.Values) != 1 || host.Values[0] != 77 {
		t.Errorf("echoed %v", host.Values)
	}
}

// TestAlternativeOverLinks: a transputer ALTs over two link inputs;
// the message arrives on the second.
func TestAlternativeOverLinks(t *testing.T) {
	s := network.NewSystem()
	mid := s.MustAddTransputer("mid", cfg())
	left := s.MustAddTransputer("left", cfg())
	right := s.MustAddTransputer("right", cfg())
	s.MustConnect(left, 0, mid, 0)
	s.MustConnect(right, 0, mid, 1)

	// Only right sends.
	load(t, left, "\tstopp\n")
	load(t, right, `
	ldc 55
	mint
	outword
	stopp
`)
	load(t, mid, `
	alt
	ldc 1
	mint
	ldnlp 4        -- link 0 in
	enbc
	ldc 1
	mint
	ldnlp 5        -- link 1 in
	enbc
	altwt
	ldc b0-dend
	ldc 1
	mint
	ldnlp 4
	disc
	ldc b1-dend
	ldc 1
	mint
	ldnlp 5
	disc
	altend
dend:
b0:
	ldlp 1
	mint
	ldnlp 4
	ldc 4
	in
	ldc 1
	stl 2
	j done
b1:
	ldlp 1
	mint
	ldnlp 5
	ldc 4
	in
	ldc 2
	stl 2
	j done
done:
	stopp
`)
	rep := s.Run(10 * sim.Millisecond)
	if !rep.Settled {
		t.Fatalf("did not settle: %+v", rep)
	}
	if mid.M.Local(1) != 55 || mid.M.Local(2) != 2 {
		t.Errorf("got value %d from branch %d, want 55 from 2",
			mid.M.Local(1), mid.M.Local(2))
	}
}

// TestPipelineChain forwards a word along a chain of four transputers.
func TestPipelineChain(t *testing.T) {
	s := network.NewSystem()
	n0 := s.MustAddTransputer("n0", cfg())
	n1 := s.MustAddTransputer("n1", cfg())
	n2 := s.MustAddTransputer("n2", cfg())
	n3 := s.MustAddTransputer("n3", cfg())
	s.MustConnect(n0, 1, n1, 0)
	s.MustConnect(n1, 1, n2, 0)
	s.MustConnect(n2, 1, n3, 0)

	load(t, n0, `
	ldc 5
	mint
	ldnlp 1        -- link 1 out
	outword
	stopp
`)
	forward := `
	ldlp 1
	mint
	ldnlp 4        -- link 0 in
	ldc 4
	in
	ldl 1
	adc 1
	stl 1
	ldlp 1
	mint
	ldnlp 1        -- link 1 out
	ldc 4
	out
	stopp
`
	load(t, n1, forward)
	load(t, n2, forward)
	load(t, n3, `
	ldlp 1
	mint
	ldnlp 4
	ldc 4
	in
	stopp
`)
	rep := s.Run(sim.Millisecond)
	if !rep.Settled {
		t.Fatalf("did not settle: %+v", rep)
	}
	if got := n3.M.Local(1); got != 7 {
		t.Errorf("end of chain got %d, want 7 (5 incremented twice)", got)
	}
}

// TestTopologyErrors covers connection validation.
func TestTopologyErrors(t *testing.T) {
	s := network.NewSystem()
	a := s.MustAddTransputer("a", cfg())
	b := s.MustAddTransputer("b", cfg())
	if _, err := s.AddTransputer("a", cfg()); err == nil {
		t.Error("duplicate name should fail")
	}
	if err := s.Connect(a, 4, b, 0); err == nil {
		t.Error("link 4 should be rejected")
	}
	if err := s.Connect(a, 0, a, 0); err == nil {
		t.Error("self-connection of one link should be rejected")
	}
	if err := s.Connect(a, 0, b, 0); err != nil {
		t.Errorf("valid connect: %v", err)
	}
	if err := s.Connect(a, 0, b, 1); err == nil {
		t.Error("double use of a link should be rejected")
	}
	if _, ok := s.Node("a"); !ok {
		t.Error("lookup by name failed")
	}
	if len(s.Nodes()) != 2 {
		t.Errorf("nodes = %d", len(s.Nodes()))
	}
}

// TestUnconnectedLinkBlocks: output on an unwired link never completes,
// like real hardware; the system still settles (goes idle).
func TestUnconnectedLinkBlocks(t *testing.T) {
	s := network.NewSystem()
	n := s.MustAddTransputer("lonely", cfg())
	load(t, n, `
	ldc 1
	mint
	outword
	ldc 9
	stl 1
	stopp
`)
	rep := s.Run(sim.Millisecond)
	if !rep.Settled {
		t.Fatal("should settle (idle)")
	}
	if n.M.Local(1) == 9 {
		t.Error("process should still be blocked on the unconnected link")
	}
}

// TestDeadlockDiagnostics: a settled system with processes still
// blocked on channels reports them.
func TestDeadlockDiagnostics(t *testing.T) {
	s := network.NewSystem()
	n := s.MustAddTransputer("dead", cfg())
	// Two processes input from each other's channels: classic deadlock.
	load(t, n, `
	mint
	stl 3          -- channel 1
	mint
	stl 4          -- channel 2
	ldc 2
	stl 1
	ldpi cont
	stl 0
	ldc child-after
	ldlp -40
	startp
after:
	ajw -20
	ldlp 1
	ldlp 23        -- wait on channel 1
	ldc 4
	in
	ldlp 20
	endp
child:
	ldlp 1
	ldlp 44        -- wait on channel 2
	ldc 4
	in
	ldlp 40
	endp
cont:
	stopp
`)
	rep := s.Run(sim.Millisecond)
	if !rep.Settled {
		t.Fatalf("deadlocked system should settle (go idle): %+v", rep)
	}
	if len(rep.Blocked) != 1 || rep.Blocked[0] != "dead" {
		t.Errorf("Blocked = %v, want [dead]", rep.Blocked)
	}
	if n.M.WaitingProcesses() != 2 {
		t.Errorf("waiting = %d, want 2", n.M.WaitingProcesses())
	}
}

// TestNoFalseDeadlockReport: a cleanly finishing program reports only
// its final stop.
func TestNoFalseDeadlockReport(t *testing.T) {
	s := network.NewSystem()
	a := s.MustAddTransputer("a", cfg())
	b := s.MustAddTransputer("b", cfg())
	s.MustConnect(a, 0, b, 0)
	load(t, a, "\tldc 1\n\tmint\n\toutword\n\tstopp\n")
	load(t, b, "\tldlp 1\n\tmint\n\tldnlp 4\n\tldc 4\n\tin\n\tstopp\n")
	rep := s.Run(sim.Millisecond)
	if !rep.Settled {
		t.Fatalf("%+v", rep)
	}
	// The final stop process is deliberate, not a communication wait:
	// a clean finish reports no blocked processes.
	if a.M.WaitingProcesses() != 0 || b.M.WaitingProcesses() != 0 {
		t.Errorf("waiting = %d/%d, want 0/0",
			a.M.WaitingProcesses(), b.M.WaitingProcesses())
	}
	if len(rep.Blocked) != 0 {
		t.Errorf("Blocked = %v, want none", rep.Blocked)
	}
}

// TestHostQueuesReplies: a program may ask the host for a second word
// before it reads the first; the host sends the replies in order, each
// once the one before has been taken.
func TestHostQueuesReplies(t *testing.T) {
	s := network.NewSystem()
	n := s.MustAddTransputer("app", cfg())
	host, err := s.AttachHost(n, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	host.QueueInput(7, 8)
	load(t, n, `
	ldc 5          -- get word, twice
	mint
	outword
	ldc 5
	mint
	outword
	ldlp 1
	mint
	ldnlp 4
	ldc 4
	in
	ldlp 2
	mint
	ldnlp 4
	ldc 4
	in
	ldc 2          -- put word: the second reply, then the first
	mint
	outword
	ldl 2
	mint
	outword
	ldc 2
	mint
	outword
	ldl 1
	mint
	outword
	ldc 4          -- exit
	mint
	outword
	stopp
`)
	rep := s.Run(sim.Millisecond)
	if !rep.Settled || !host.Done || len(host.Values) != 2 || host.Values[0] != 8 || host.Values[1] != 7 {
		t.Fatalf("settled=%v done=%v values=%v, want 8 then 7", rep.Settled, host.Done, host.Values)
	}
	if wd := s.Watchdog(); wd != nil {
		t.Errorf("watchdog: %v", wd)
	}
}
