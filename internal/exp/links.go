package exp

import (
	"fmt"

	"transputer/internal/core"
	"transputer/internal/link"
	"transputer/internal/network"
	"transputer/internal/occam"
	"transputer/internal/sim"
)

// E6LinkThroughput measures one direction of one link (figure 1 and
// section 2.3.1): at 10 Mbit/s with 11-bit data packets and overlapped
// acknowledges, a link carries 0.909 MByte/s — the paper's "about
// 1 Mbyte/sec in each direction".
func E6LinkThroughput() Result {
	r := Result{
		ID:    "E6",
		Title: "link throughput, one direction (paper 2.3.1 / figure 1)",
	}
	mbps, cont := HostPairThroughput(false)
	r.Rows = append(r.Rows, Row{
		Label:    "64 KiB stream at 10 Mbit/s",
		Paper:    "about 1 Mbyte/s",
		Measured: fmt.Sprintf("%.3f Mbyte/s", mbps),
		OK:       within(mbps, 0.909, 0.02),
	})
	r.Rows = append(r.Rows, Row{
		Label:    "transmission continuous (11 bit times per byte)",
		Paper:    "yes (ack overlaps reception)",
		Measured: fmt.Sprintf("%v", cont),
		OK:       cont,
	})
	return r
}

// HostPairThroughput streams 64 KiB between two host link ends and
// returns MByte/s and whether streaming was gapless.
func HostPairThroughput(stopAndWait bool) (mbps float64, continuous bool) {
	k := sim.NewKernel()
	a := link.NewHostEnd(k)
	b := link.NewHostEnd(k)
	link.ConnectHosts(a, b)
	b.SetStopAndWait(stopAndWait)
	const n = 64 * 1024
	var done sim.Time
	b.Recv(n, func([]byte) { done = k.Now() })
	a.Send(make([]byte, n), nil)
	k.Run()
	mbps = float64(n) / (float64(done) * 1e-9) / 1e6
	continuous = done == sim.Time(n*link.DataBits*link.BitNs)
	return mbps, continuous
}

// A1StopAndWaitLink is the ablation for the overlapped acknowledge: a
// plain stop-and-wait handshake pays 11+2 bit times per byte.
func A1StopAndWaitLink() Result {
	r := Result{
		ID:    "A1",
		Title: "ablation: overlapped acknowledge vs stop-and-wait",
		Notes: "the design choice behind 'transmission may be continuous' (paper 2.3)",
	}
	overlapped, _ := HostPairThroughput(false)
	plain, _ := HostPairThroughput(true)
	r.Rows = append(r.Rows, Row{
		Label:    "overlapped acknowledge (the paper's design)",
		Paper:    "11 bit times/byte = 0.909 MB/s",
		Measured: fmt.Sprintf("%.3f Mbyte/s", overlapped),
		OK:       within(overlapped, 0.909, 0.02),
	})
	r.Rows = append(r.Rows, Row{
		Label:    "stop-and-wait acknowledge",
		Paper:    "13 bit times/byte = 0.769 MB/s",
		Measured: fmt.Sprintf("%.3f Mbyte/s", plain),
		OK:       within(plain, 0.769, 0.02),
	})
	r.Rows = append(r.Rows, Row{
		Label:    "speedup from overlapping",
		Paper:    "13/11 = 1.18x",
		Measured: fmt.Sprintf("%.2fx", overlapped/plain),
		OK:       within(overlapped/plain, 13.0/11.0, 0.03),
	})
	return r
}

// E14AggregateBandwidth drives all four links of a transputer pair in
// both directions at once: the T424's "total of 8 Mbytes per second of
// communications bandwidth" (section 3.1; 4 links x 2 directions x
// ~0.909 MB/s = 7.3 MB/s of payload after protocol framing).
func E14AggregateBandwidth() Result {
	r := Result{
		ID:    "E14",
		Title: "aggregate link bandwidth of one transputer (paper 3.1)",
		Notes: "the paper's 8 Mbytes/s is 4 links x 2 directions x ~1 MB/s; under full bidirectional saturation each signal line also carries the reverse channel's acknowledges (11+2 bit times per byte), so the physical payload ceiling is 8 x 0.769 = 6.15 MB/s",
	}
	mbps, err := aggregateBandwidth()
	if err != nil {
		r.Rows = append(r.Rows, Row{Label: "aggregate", Measured: "error: " + err.Error()})
		return r
	}
	r.Rows = append(r.Rows, Row{
		Label:    "4 links, both directions saturated",
		Paper:    "8 Mbytes/s of link bandwidth",
		Measured: fmt.Sprintf("%.2f Mbyte/s payload (ceiling 6.15)", mbps),
		OK:       mbps > 5.8 && mbps < 6.2,
	})
	return r
}

func aggregateBandwidth() (float64, error) {
	// Each side runs eight concurrent occam processes: four senders
	// and four receivers, one per link direction, streaming 64-word
	// blocks.
	const blocks = 48
	src := func() string {
		s := "DEF blocks = 48:\n"
		for i := 0; i < 4; i++ {
			s += fmt.Sprintf("CHAN out%d:\nPLACE out%d AT LINK%dOUT:\n", i, i, i)
			s += fmt.Sprintf("CHAN in%d:\nPLACE in%d AT LINK%dIN:\n", i, i, i)
		}
		s += "PROC send(CHAN c) =\n  VAR buf[64]:\n  SEQ b = [0 FOR blocks]\n    c ! buf\n:\n"
		s += "PROC recv(CHAN c) =\n  VAR buf[64]:\n  SEQ b = [0 FOR blocks]\n    c ? buf\n:\n"
		s += "PAR\n"
		for i := 0; i < 4; i++ {
			s += fmt.Sprintf("  send(out%d)\n  recv(in%d)\n", i, i)
		}
		return s
	}()
	net := network.NewSystem()
	cfg := core.T424().WithMemory(64 * 1024)
	a, err := net.AddTransputer("a", cfg)
	if err != nil {
		return 0, err
	}
	b, err := net.AddTransputer("b", cfg)
	if err != nil {
		return 0, err
	}
	for i := 0; i < 4; i++ {
		if err := net.Connect(a, i, b, i); err != nil {
			return 0, err
		}
	}
	comp, err := occam.Compile(src, occam.Options{})
	if err != nil {
		return 0, err
	}
	if err := a.Load(comp.Image); err != nil {
		return 0, err
	}
	if err := b.Load(comp.Image); err != nil {
		return 0, err
	}
	rep := net.Run(sim.Second)
	if !rep.Settled {
		return 0, fmt.Errorf("streams did not settle: %+v", rep)
	}
	if err := a.M.Fault(); err != nil {
		return 0, err
	}
	payload := float64(8 * blocks * 64 * 4) // bytes over all half-links
	return payload / (float64(rep.Time) * 1e-9) / 1e6, nil
}

// E7MessageLatency measures the 4-byte inter-transputer message of
// section 4.2: "it takes about 6 microseconds to send a 4 byte message
// from one transputer to another."
func E7MessageLatency() Result {
	r := Result{
		ID:    "E7",
		Title: "4-byte message between transputers (paper 4.2)",
	}
	t, err := PingLatency()
	if err != nil {
		r.Rows = append(r.Rows, Row{Label: "ping", Measured: "error: " + err.Error()})
		return r
	}
	us := float64(t) / 1000
	r.Rows = append(r.Rows, Row{
		Label:    "4-byte message, boot to delivery",
		Paper:    "about 6 µs",
		Measured: fmt.Sprintf("%.2f µs", us),
		OK:       us > 4 && us < 8,
	})
	return r
}

func PingLatency() (sim.Time, error) {
	net := network.NewSystem()
	cfg := core.T424().WithMemory(64 * 1024)
	a, err := net.AddTransputer("a", cfg)
	if err != nil {
		return 0, err
	}
	b, err := net.AddTransputer("b", cfg)
	if err != nil {
		return 0, err
	}
	if err := net.Connect(a, 0, b, 0); err != nil {
		return 0, err
	}
	sendSrc := "CHAN out:\nPLACE out AT LINK0OUT:\nout ! 42\n"
	recvSrc := "CHAN in:\nPLACE in AT LINK0IN:\nVAR v:\nin ? v\n"
	for _, p := range []struct {
		node *network.Node
		src  string
	}{{a, sendSrc}, {b, recvSrc}} {
		comp, cerr := occam.Compile(p.src, occam.Options{})
		if cerr != nil {
			return 0, cerr
		}
		if lerr := p.node.Load(comp.Image); lerr != nil {
			return 0, lerr
		}
	}
	rep := net.Run(sim.Millisecond)
	if !rep.Settled {
		return 0, fmt.Errorf("ping did not settle")
	}
	if b.M.Local(2) != 42 { // first VAR lands in workspace slot 2
		return 0, fmt.Errorf("ping value corrupted: %d", b.M.Local(2))
	}
	return rep.Time, nil
}
