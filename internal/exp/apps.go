package exp

import (
	"fmt"

	"transputer/internal/apps/dbsearch"
	"transputer/internal/apps/workstation"
	"transputer/internal/sim"
)

// E8DatabaseSearch16 reproduces figure 8: the 4x4 concurrent database
// search, with answers checked against a host-side reference search.
func E8DatabaseSearch16() Result {
	r := Result{
		ID:    "E8",
		Title: "concurrent database search, 4x4 array (figure 8)",
	}
	p := dbsearch.Defaults16()
	s, err := dbsearch.Build(p)
	if err != nil {
		r.Rows = append(r.Rows, Row{Label: "build", Measured: "error: " + err.Error()})
		return r
	}
	keys := []int64{11}
	counts, rep := s.RunSearches(keys, sim.Second)
	if !rep.Settled || len(counts) != 1 {
		r.Rows = append(r.Rows, Row{Label: "run", Measured: fmt.Sprintf("failed: %+v", rep)})
		return r
	}
	r.Rows = append(r.Rows, Row{
		Label:    "answers correct (vs host reference search)",
		Paper:    "search merges every transputer's matches",
		Measured: fmt.Sprintf("count %d == reference %d", counts[0], dbsearch.Reference(p, keys[0])),
		OK:       counts[0] == dbsearch.Reference(p, keys[0]),
	})
	r.Rows = append(r.Rows, Row{
		Label:    "longest request path",
		Paper:    "proportional to the longest path across the system",
		Measured: fmt.Sprintf("%d links for 4x4", p.LongestPathLinks()),
		OK:       p.LongestPathLinks() == 6,
	})
	r.Rows = append(r.Rows, Row{
		Label:    "single search latency, 3,200 records",
		Paper:    "(scaled-down figure 8 illustration)",
		Measured: rep.Time.String(),
		OK:       rep.Time < 3*sim.Millisecond,
	})
	return r
}

// E9DatabaseSearch128 reproduces the figure 7 analysis: 128
// transputers, 25,600 records, searched in under 1.3 ms; request
// propagation about 150 µs over the longest path.
func E9DatabaseSearch128() Result {
	r := Result{
		ID:    "E9",
		Title: "database search on the 128-transputer board (figure 7 / section 4.2)",
	}
	p := dbsearch.Defaults128()
	s, err := dbsearch.Build(p)
	if err != nil {
		r.Rows = append(r.Rows, Row{Label: "build", Measured: "error: " + err.Error()})
		return r
	}
	// One warm-up key plus measured keys, pipelined.
	keys := []int64{5, 17, 29, 41}
	counts, rep := s.RunSearches(keys, 10*sim.Second)
	if !rep.Settled || len(counts) != len(keys) {
		r.Rows = append(r.Rows, Row{Label: "run", Measured: fmt.Sprintf("failed: %+v", rep)})
		return r
	}
	ok := true
	for i, k := range keys {
		if counts[i] != dbsearch.Reference(p, k) {
			ok = false
		}
	}
	r.Rows = append(r.Rows, Row{
		Label:    "records held",
		Paper:    "25,000 records on one board",
		Measured: fmt.Sprintf("%d records on %d transputers", p.TotalRecords(), p.Rows*p.Cols),
		OK:       p.TotalRecords() >= 25000,
	})
	r.Rows = append(r.Rows, Row{
		Label:    "answers correct",
		Paper:    "-",
		Measured: fmt.Sprintf("%v", ok),
		OK:       ok,
	})
	// Propagation estimate: longest path x per-hop message time.
	hop, err := PingLatency()
	if err == nil {
		prop := hop * sim.Time(p.LongestPathLinks())
		r.Rows = append(r.Rows, Row{
			Label:    fmt.Sprintf("request propagation (%d links x %v per 4-byte hop)", p.LongestPathLinks(), hop),
			Paper:    "about 150 µs",
			Measured: prop.String(),
			OK:       prop > 80*sim.Microsecond && prop < 220*sim.Microsecond,
		})
	}
	perQuery := rep.Time / sim.Time(len(keys))
	r.Rows = append(r.Rows, Row{
		Label:    "whole-database search (pipelined, per query)",
		Paper:    "less than 1.3 ms",
		Measured: perQuery.String(),
		OK:       perQuery < 1300*sim.Microsecond,
	})
	// Figure 7's "up to 1 GIPS" is a peak: 128 processors at the rate
	// the 3.2 cost table gives typical sequences (E11).  What the search
	// achieves is work, records searched a second, which denser code
	// raises however few instructions it executes.
	if mix, err := tableMix(); err == nil {
		peak := float64(p.Rows*p.Cols) * mix.MIPS(50) / 1000
		perSec := float64(p.TotalRecords()) / (float64(perQuery) * 1e-9)
		r.Rows = append(r.Rows, Row{
			Label:    "search rate (pipelined queries)",
			Paper:    "up to 1 GIPS on the board",
			Measured: fmt.Sprintf("%.1fM records/s; peak %.2f GIPS", perSec/1e6, peak),
			OK:       peak >= 1 && perSec > 0,
		})
	}
	return r
}

// E13SearchPipelining shows requests overlapping in the array: with
// several requests in flight, the per-query period drops below the
// single-query latency — "requests can be pipelined through the
// system" — and throughput survives scaling from 16 to 128 nodes.
func E13SearchPipelining() Result {
	r := Result{
		ID:    "E13",
		Title: "search request pipelining and scaling (paper 4.2)",
	}
	single, err := searchTime(dbsearch.Defaults16(), 1)
	if err != nil {
		r.Rows = append(r.Rows, Row{Label: "single", Measured: "error: " + err.Error()})
		return r
	}
	burst, err := searchTime(dbsearch.Defaults16(), 8)
	if err != nil {
		r.Rows = append(r.Rows, Row{Label: "burst", Measured: "error: " + err.Error()})
		return r
	}
	perQuery := burst / 8
	r.Rows = append(r.Rows, Row{
		Label:    "one query latency (4x4)",
		Paper:    "-",
		Measured: single.String(),
		OK:       true,
	})
	r.Rows = append(r.Rows, Row{
		Label:    "per-query period, 8 pipelined",
		Paper:    "below the single-query latency",
		Measured: fmt.Sprintf("%v (%.2fx the latency)", perQuery, float64(perQuery)/float64(single)),
		OK:       perQuery < single,
	})
	big, err := searchTime(dbsearch.Defaults128(), 8)
	if err != nil {
		r.Rows = append(r.Rows, Row{Label: "scale", Measured: "error: " + err.Error()})
		return r
	}
	bigPer := big / 8
	r.Rows = append(r.Rows, Row{
		Label:    "per-query period on 128 nodes (8x database)",
		Paper:    "throughput not adversely affected by adding boards",
		Measured: fmt.Sprintf("%v vs %v on 16 nodes", bigPer, perQuery),
		OK:       bigPer < 2*perQuery,
	})
	return r
}

func searchTime(p dbsearch.Params, queries int) (sim.Time, error) {
	s, err := dbsearch.Build(p)
	if err != nil {
		return 0, err
	}
	keys := make([]int64, queries)
	for i := range keys {
		keys[i] = int64((7 * i) % p.KeySpace)
	}
	counts, rep := s.RunSearches(keys, 10*sim.Second)
	if !rep.Settled || len(counts) != queries {
		return 0, fmt.Errorf("search failed: %+v", rep)
	}
	return rep.Time, nil
}

// E10Workstation reproduces figure 6: the three-transputer personal
// workstation completing a disk-and-display session.
func E10Workstation() Result {
	r := Result{
		ID:    "E10",
		Title: "personal workstation: app, disk and graphics transputers (figure 6)",
	}
	s, err := workstation.Build()
	if err != nil {
		r.Rows = append(r.Rows, Row{Label: "build", Measured: "error: " + err.Error()})
		return r
	}
	rep := s.Run(sim.Second)
	okRun := rep.Settled && s.Host.Done && len(s.Host.Values) == 2
	r.Rows = append(r.Rows, Row{
		Label:    "session completes over standard links",
		Paper:    "functionally distributed transputers on one card",
		Measured: fmt.Sprintf("settled=%v in %v", okRun, rep.Time),
		OK:       okRun,
	})
	if okRun {
		r.Rows = append(r.Rows, Row{
			Label:    "disk transputer round trip verified",
			Paper:    "-",
			Measured: fmt.Sprintf("checksum %d (expect %d)", s.Host.Values[0], workstation.ExpectedDiskSum()),
			OK:       s.Host.Values[0] == workstation.ExpectedDiskSum(),
		})
		r.Rows = append(r.Rows, Row{
			Label:    "graphics transputer display verified",
			Paper:    "-",
			Measured: fmt.Sprintf("checksum %d (expect %d)", s.Host.Values[1], workstation.ExpectedGfxSum()),
			OK:       s.Host.Values[1] == workstation.ExpectedGfxSum(),
		})
	}
	return r
}
