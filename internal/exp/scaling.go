package exp

import (
	"fmt"
	"strings"

	"transputer/internal/core"
	"transputer/internal/network"
	"transputer/internal/occam"
	"transputer/internal/sim"
)

// E16ConfigurationTradeoff reproduces the paper's development-model
// claim (section 1): "the program may be configured for execution by a
// single transputer (low cost), or for execution by a network of
// transputers (high performance)".  The same prime-counting PROC runs
// once with every worker on one transputer, then configured across a
// network of four; the answers must match and the network
// configuration must deliver near-linear speedup.
func E16ConfigurationTradeoff() Result {
	r := Result{
		ID:    "E16",
		Title: "configuration trade-off: one transputer vs a network (paper section 1)",
	}
	// Three workers: the collector's fourth link carries the host
	// connection (a transputer has exactly four links, a real
	// configuration constraint).
	const workers = 3
	const limit = 1200
	want := hostCountPrimes(2, limit)

	single, t1, err := runPrimesSingle(workers, limit)
	if err != nil {
		r.Rows = append(r.Rows, Row{Label: "single", Measured: "error: " + err.Error()})
		return r
	}
	multi, tn, err := runPrimesConfigured(workers, limit)
	if err != nil {
		r.Rows = append(r.Rows, Row{Label: "network", Measured: "error: " + err.Error()})
		return r
	}
	r.Rows = append(r.Rows, Row{
		Label:    "same logical program, same answer",
		Paper:    "logical behaviour unchanged by configuration",
		Measured: fmt.Sprintf("single %d, network %d, host %d", single, multi, want),
		OK:       single == want && multi == want,
	})
	r.Rows = append(r.Rows, Row{
		Label:    "one transputer (low cost)",
		Paper:    "-",
		Measured: t1.String(),
		OK:       true,
	})
	speedup := float64(t1) / float64(tn)
	r.Rows = append(r.Rows, Row{
		Label:    fmt.Sprintf("%d worker transputers + collector (high performance)", workers),
		Paper:    "near-linear speedup from the added concurrency",
		Measured: fmt.Sprintf("%v (%.2fx speedup)", tn, speedup),
		OK:       speedup > float64(workers)*0.7,
	})
	return r
}

func hostCountPrimes(lo, hi int) int64 {
	count := int64(0)
	for n := lo; n < hi; n++ {
		prime := n >= 2
		for d := 2; d*d <= n; d++ {
			if n%d == 0 {
				prime = false
				break
			}
		}
		if prime {
			count++
		}
	}
	return count
}

// primeProc is the shared worker: counts primes in the strided set
// {start, start+stride, ...} below limit by trial division, and
// reports the count.  Striding balances the load — larger candidates
// cost more divisions.
const primeProc = `PROC count.primes(VALUE start, stride, limit, CHAN out) =
  VAR count, n, d, prime:
  SEQ
    count := 0
    n := start
    WHILE n < limit
      SEQ
        IF
          n < 2
            SKIP
          TRUE
            SEQ
              prime := TRUE
              d := 2
              WHILE (d * d) <= n
                SEQ
                  IF
                    (n \ d) = 0
                      prime := FALSE
                    TRUE
                      SKIP
                  d := d + 1
              IF
                prime
                  count := count + 1
                TRUE
                  SKIP
        n := n + stride
    out ! count
:
`

// runPrimesSingle runs all workers as a PAR on one transputer.
func runPrimesSingle(workers, limit int) (int64, sim.Time, error) {
	var sb strings.Builder
	sb.WriteString("CHAN screen:\nPLACE screen AT LINK0OUT:\n")
	fmt.Fprintf(&sb, "DEF workers = %d:\nDEF limit = %d:\n", workers, limit)
	sb.WriteString(primeProc)
	fmt.Fprintf(&sb, "CHAN results[%d]:\nVAR total, part:\nSEQ\n  total := 0\n  PAR\n", workers)
	for w := 0; w < workers; w++ {
		fmt.Fprintf(&sb, "    count.primes(%d, %d, limit, results[%d])\n", 2+w, workers, w)
	}
	sb.WriteString("    SEQ w = [0 FOR workers]\n      SEQ\n        results[w] ? part\n        total := total + part\n")
	sb.WriteString("  screen ! 2\n  screen ! total\n  screen ! 4\n")

	comp, err := occam.Compile(sb.String(), occam.Options{})
	if err != nil {
		return 0, 0, err
	}
	net := network.NewSystem()
	n, err := net.AddTransputer("single", core.T424().WithMemory(64*1024))
	if err != nil {
		return 0, 0, err
	}
	host, err := net.AttachHost(n, 0, nil)
	if err != nil {
		return 0, 0, err
	}
	if err := n.Load(comp.Image); err != nil {
		return 0, 0, err
	}
	rep := net.Run(30 * sim.Second)
	if !rep.Settled || !host.Done || len(host.Values) != 1 {
		return 0, 0, fmt.Errorf("single-transputer run failed: %+v", rep)
	}
	return host.Values[0], host.DoneAt, nil
}

// runPrimesConfigured places each worker on its own transputer via a
// replicated PLACED PAR, with a collector transputer summing the
// counts: processors 0 to workers-1 count, each from its own start, and
// the last, the configuration IF's other branch, collects.
func runPrimesConfigured(workers, limit int) (int64, sim.Time, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "DEF workers = %d:\nDEF limit = %d:\n", workers, limit)
	sb.WriteString(primeProc)
	sb.WriteString(`PLACED PAR i = [0 FOR workers + 1]
  PROCESSOR i
    DEF start = i + 2:
    IF
      i < workers
        CHAN out:
        PLACE out AT LINK0OUT:
        count.primes(start, workers, limit, out)
      TRUE
`)
	// The collector: one link per worker, the host on the remaining
	// link.
	fmt.Fprintf(&sb, "        CHAN screen:\n        PLACE screen AT LINK%dOUT:\n", workers)
	for w := 0; w < workers; w++ {
		fmt.Fprintf(&sb, "        CHAN in%d:\n        PLACE in%d AT LINK%dIN:\n", w, w, w)
	}
	sb.WriteString("        VAR total, part:\n        SEQ\n          total := 0\n")
	for w := 0; w < workers; w++ {
		fmt.Fprintf(&sb, "          in%d ? part\n          total := total + part\n", w)
	}
	sb.WriteString("          screen ! 2\n          screen ! total\n          screen ! 4\n")

	procs, err := occam.CompileConfigured(sb.String(), occam.Options{})
	if err != nil {
		return 0, 0, err
	}
	net := network.NewSystem()
	nodes := make(map[int64]*network.Node)
	for _, p := range procs {
		n, aerr := net.AddTransputer(fmt.Sprintf("p%d", p.ID), core.T424().WithMemory(64*1024))
		if aerr != nil {
			return 0, 0, aerr
		}
		nodes[p.ID] = n
	}
	coll := nodes[int64(workers)]
	for w := 0; w < workers; w++ {
		if err := net.Connect(nodes[int64(w)], 0, coll, w); err != nil {
			return 0, 0, err
		}
	}
	host, err := net.AttachHost(coll, workers, nil)
	if err != nil {
		return 0, 0, err
	}
	for _, p := range procs {
		if err := nodes[p.ID].Load(p.Compiled.Image); err != nil {
			return 0, 0, err
		}
	}
	rep := net.Run(30 * sim.Second)
	if !rep.Settled || !host.Done || len(host.Values) != 1 {
		return 0, 0, fmt.Errorf("configured run failed: %+v", rep)
	}
	return host.Values[0], host.DoneAt, nil
}
