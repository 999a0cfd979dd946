// Package dbsearch builds the concurrent database search of the
// paper's section 4.2 (figures 7 and 8): a rectangular array of
// transputers, each holding part of a database in local memory.  A
// search request is input at one corner, flooded across the array over
// a spanning tree of links, searched against each transputer's local
// records concurrently, and the answers merge back to the corner.
//
// Each node runs two concurrent occam processes, exactly as the paper
// sketches: one receives requests, forwards them to transputers that
// have not yet seen them, and searches the local data; the other
// merges the local answer with the answers from downstream transputers
// and forwards the combination.  Because the two are concurrent,
// "requests can be pipelined through the system with a further request
// being input before the previous one has come out."
//
// Each node generates its records deterministically from its node
// number with a small congruential generator, standing in for the
// partitioned database the paper assumes; Reference reproduces the
// same records on the host for answer checking.
//
// The array is one occam program, as the paper's networks are: a
// replicated PLACED PAR with a PROCESSOR for each node (ArraySource).
package dbsearch

import (
	"fmt"
	"strings"

	"transputer/internal/core"
	"transputer/internal/network"
	"transputer/internal/occam"
	"transputer/internal/sim"
)

// Params configures the array.
type Params struct {
	Rows, Cols int
	// RecordsPerNode is the local database size (the paper assumes 200
	// sixteen-byte records per transputer).
	RecordsPerNode int
	// KeySpace is the number of distinct keys.
	KeySpace int
	// MemBytes per transputer.
	MemBytes int
}

// Defaults16 is the paper's illustrative 4x4 array (figure 8).
func Defaults16() Params {
	return Params{Rows: 4, Cols: 4, RecordsPerNode: 200, KeySpace: 64, MemBytes: 64 * 1024}
}

// Defaults128 is the single-board 128-transputer system (figure 7):
// 8x16 transputers with 200 records each — 25,600 records, matching
// the paper's "the whole system can hold 25,000 records".
func Defaults128() Params {
	return Params{Rows: 8, Cols: 16, RecordsPerNode: 200, KeySpace: 64, MemBytes: 64 * 1024}
}

// System is a built search array.
type System struct {
	Params Params
	Net    *network.System
	// Results receives one count per search request.
	Results *network.Host
	// Keys feeds search keys to the corner transputer; a negative key
	// ends the run.
	Keys *network.Host
	Root *network.Node
}

// nextState advances the record generator.  Kept small so checked
// 32-bit multiplication cannot overflow.
func nextState(x int64) int64 { return (x*1075 + 4567) % 10007 }

// Reference returns the number of records matching key across the
// whole array, computed on the host with the same generator.
func Reference(p Params, key int64) int64 {
	count := int64(0)
	for node := 0; node < p.Rows*p.Cols; node++ {
		x := int64(node + 1)
		for i := 0; i < p.RecordsPerNode; i++ {
			x = nextState(x)
			if x%int64(p.KeySpace) == key {
				count++
			}
		}
	}
	return count
}

// LongestPathLinks is the number of links on the longest request path
// — the quantity the paper's latency analysis is based on.
func (p Params) LongestPathLinks() int { return (p.Rows - 1) + (p.Cols - 1) }

// TotalRecords is the database size across the array.
func (p Params) TotalRecords() int { return p.Rows * p.Cols * p.RecordsPerNode }

// Link assignment per node:
//
//	link 0: parent (requests in, answers out); on the root this is the
//	        key-feed host
//	link 1: child to the right (requests out, answers in)
//	link 2: child below (first column only)
//	link 3: root only: the results host
//
// Requests enter node (0,0), flow down the first column and across
// each row — a spanning tree whose longest path is
// (Rows-1)+(Cols-1) links.

// Build compiles the array's one occam program and wires the array.
func Build(p Params) (*System, error) {
	net := network.NewSystem()
	nodes := make([][]*network.Node, p.Rows)
	cfg := core.T424().WithMemory(p.MemBytes)
	for r := 0; r < p.Rows; r++ {
		nodes[r] = make([]*network.Node, p.Cols)
		for c := 0; c < p.Cols; c++ {
			n, err := net.AddTransputer(fmt.Sprintf("n%d.%d", r, c), cfg)
			if err != nil {
				return nil, err
			}
			nodes[r][c] = n
		}
	}
	for r := 0; r < p.Rows; r++ {
		for c := 0; c < p.Cols; c++ {
			if c+1 < p.Cols {
				if err := net.Connect(nodes[r][c], 1, nodes[r][c+1], 0); err != nil {
					return nil, err
				}
			}
			if c == 0 && r+1 < p.Rows {
				if err := net.Connect(nodes[r][0], 2, nodes[r+1][0], 0); err != nil {
					return nil, err
				}
			}
		}
	}
	results, err := net.AttachHost(nodes[0][0], 3, nil)
	if err != nil {
		return nil, err
	}
	keys, err := net.AttachHost(nodes[0][0], 0, nil)
	if err != nil {
		return nil, err
	}
	procs, err := occam.CompileConfigured(ArraySource(p), occam.Options{})
	if err != nil {
		return nil, fmt.Errorf("dbsearch: %w", err)
	}
	for _, proc := range procs {
		r, c := int(proc.ID)/p.Cols, int(proc.ID)%p.Cols
		if lerr := nodes[r][c].Load(proc.Compiled.Image); lerr != nil {
			return nil, fmt.Errorf("node %d.%d: %w", r, c, lerr)
		}
	}
	return &System{
		Params: p, Net: net, Results: results, Keys: keys, Root: nodes[0][0],
	}, nil
}

// RunSearches feeds the keys through the array and returns the counts.
func (s *System) RunSearches(keys []int64, limit sim.Time) ([]int64, network.Report) {
	s.Keys.QueueInput(keys...)
	s.Keys.QueueInput(-1)
	rep := s.Net.Run(limit)
	return s.Results.Values, rep
}

// role is what sets one node's program apart from another's, besides
// its record seed: the links it uses.
type role struct{ root, right, down bool }

func (p Params) roleOf(r, c int) role {
	return role{root: r == 0 && c == 0, right: c+1 < p.Cols, down: c == 0 && r+1 < p.Rows}
}

// ArraySource is the whole array as one configured occam program, the
// paper's model of a network: a replicated PLACED PAR whose processor
// i is node (i / cols, i \ cols), its record seed i + 1, and its links
// chosen by a configuration IF on i — one branch for each role.  A
// branch no node takes is neither checked nor compiled.
func ArraySource(p Params) string {
	branches := [...]struct {
		guard string
		role  role
	}{
		{"i = 0", p.roleOf(0, 0)},
		{"((i \\ cols) = 0) AND (i < ((rows - 1) * cols))", role{right: p.Cols > 1, down: true}},
		{"((i \\ cols) + 1) < cols", role{right: true}},
		{"TRUE", role{}},
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "DEF rows = %d:\nDEF cols = %d:\n", p.Rows, p.Cols)
	fmt.Fprintf(&sb, "DEF n = %d:\n", p.RecordsPerNode)
	fmt.Fprintf(&sb, "DEF keyspace = %d:\n", p.KeySpace)
	sb.WriteString("PLACED PAR i = [0 FOR rows * cols]\n  PROCESSOR i\n    DEF seed = i + 1:\n    IF\n")
	for _, br := range branches {
		fmt.Fprintf(&sb, "      %s\n", br.guard)
		var node strings.Builder
		br.role.write(&node)
		for _, line := range strings.SplitAfter(node.String(), "\n") {
			if line != "" {
				sb.WriteString("        ")
				sb.WriteString(line)
			}
		}
	}
	return sb.String()
}

// NodeSource generates the occam program for node (r,c) alone, as
// ArraySource's processor r*cols + c compiles it.  Every node runs the
// same two-process algorithm; only link placement and the record seed
// differ — "a small program in each transputer does the search".
func NodeSource(p Params, r, c int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "DEF n = %d:\n", p.RecordsPerNode)
	fmt.Fprintf(&sb, "DEF keyspace = %d:\n", p.KeySpace)
	fmt.Fprintf(&sb, "DEF seed = %d:\n", r*p.Cols+c+1)
	p.roleOf(r, c).write(&sb)
	return sb.String()
}

// write writes a node's program after its DEFs of n, keyspace and seed.
func (ro role) write(sb *strings.Builder) {
	root, right, down := ro.root, ro.right, ro.down
	if root {
		sb.WriteString(`CHAN keys.req, keys.in, res.out:
PLACE keys.req AT LINK0OUT:
PLACE keys.in AT LINK0IN:
PLACE res.out AT LINK3OUT:
`)
	} else {
		sb.WriteString(`CHAN req.in, ans.out:
PLACE req.in AT LINK0IN:
PLACE ans.out AT LINK0OUT:
`)
	}
	if right {
		sb.WriteString("CHAN req.right, ans.right:\nPLACE req.right AT LINK1OUT:\nPLACE ans.right AT LINK1IN:\n")
	}
	if down {
		sb.WriteString("CHAN req.down, ans.down:\nPLACE req.down AT LINK2OUT:\nPLACE ans.down AT LINK2IN:\n")
	}

	// Forwarding channels are passed to the two PROCs as parameters
	// (this compiler's PROC bodies see only their parameters and
	// global constants).
	fwdParams := ""
	fwdArgs := ""
	ansParams := ""
	ansArgs := ""
	if right {
		fwdParams += ", CHAN fr"
		fwdArgs += ", req.right"
		ansParams += ", CHAN ar"
		ansArgs += ", ans.right"
	}
	if down {
		fwdParams += ", CHAN fd"
		fwdArgs += ", req.down"
		ansParams += ", CHAN ad"
		ansArgs += ", ans.down"
	}

	// The searcher process: generate the local database, then loop
	// receiving a key, forwarding it, searching locally and passing
	// the local count to the merger.
	sb.WriteString("CHAN local, issued:\n")
	fmt.Fprintf(sb, "PROC search(CHAN getkey, CHAN put, CHAN fin%s) =\n", fwdParams)
	sb.WriteString(`  VAR db[n], x, key, count, going, sent:
  SEQ
    x := seed
    SEQ i = [0 FOR n]
      SEQ
        x := ((x * 1075) + 4567) \ 10007
        db[i] := x \ keyspace
    going := TRUE
    sent := 0
    WHILE going
      SEQ
        getkey ? key
        IF
          key < 0
            SEQ
              fin ! sent
              going := FALSE
          TRUE
            SEQ
`)
	ind := "              "
	if right {
		sb.WriteString(ind + "fr ! key\n")
	}
	if down {
		sb.WriteString(ind + "fd ! key\n")
	}
	sb.WriteString(ind + "count := 0\n")
	sb.WriteString(ind + "SEQ i = [0 FOR n]\n")
	sb.WriteString(ind + "  IF\n")
	sb.WriteString(ind + "    db[i] = key\n")
	sb.WriteString(ind + "      count := count + 1\n")
	sb.WriteString(ind + "    TRUE\n")
	sb.WriteString(ind + "      SKIP\n")
	sb.WriteString(ind + "put ! count\n")
	sb.WriteString(ind + "sent := sent + 1\n")
	sb.WriteString(":\n")

	// The merger process: combine the local answer with downstream
	// answers and forward.
	fmt.Fprintf(sb, "PROC merge(CHAN take, CHAN put, CHAN fin%s) =\n", ansParams)
	sb.WriteString(`  VAR count, sub, total, answered:
  SEQ
    total := -1
    answered := 0
    WHILE (total < 0) OR (answered < total)
      ALT
        take ? count
          SEQ
`)
	ind = "            "
	if right {
		sb.WriteString(ind + "ar ? sub\n")
		sb.WriteString(ind + "count := count + sub\n")
	}
	if down {
		sb.WriteString(ind + "ad ? sub\n")
		sb.WriteString(ind + "count := count + sub\n")
	}
	if root {
		sb.WriteString(ind + "put ! 2\n")
	}
	sb.WriteString(ind + "put ! count\n")
	sb.WriteString(ind + "answered := answered + 1\n")
	sb.WriteString(`        (total < 0) & fin ? total
          SKIP
`)
	if root {
		sb.WriteString("    put ! 4\n")
	}
	sb.WriteString(":\n")

	// Top level: the root pulls keys from the key-feed host; other
	// nodes take requests from their parent link.
	if root {
		sb.WriteString(`CHAN feed:
PAR
  VAR k, going:
  SEQ
    going := TRUE
    WHILE going
      SEQ
        keys.req ! 5
        keys.in ? k
        feed ! k
        IF
          k < 0
            going := FALSE
          TRUE
            SKIP
`)
		fmt.Fprintf(sb, "  search(feed, local, issued%s)\n", fwdArgs)
		fmt.Fprintf(sb, "  merge(local, res.out, issued%s)\n", ansArgs)
	} else {
		sb.WriteString("PAR\n")
		fmt.Fprintf(sb, "  search(req.in, local, issued%s)\n", fwdArgs)
		fmt.Fprintf(sb, "  merge(local, ans.out, issued%s)\n", ansArgs)
	}
}
