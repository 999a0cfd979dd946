package network

import (
	"fmt"
	"strconv"
	"strings"

	"transputer/internal/core"
	"transputer/internal/fault"
	"transputer/internal/sim"
)

// Topology is a parsed network description: the text format used by
// the tnet tool to configure a system of transputers, in the spirit of
// occam configuration.
//
//	# a three-transputer workstation (paper, figure 6)
//	transputer app  t424 mem=64K program=app.occ
//	transputer disk t424 mem=64K program=disk.occ
//	transputer gfx  t424 mem=64K program=gfx.occ
//	connect app.1 disk.0
//	connect app.2 gfx.0
//	host app.0
//	input app 5 10
//	run 100ms
//
// Fault campaigns add a seed, an optional error-detecting link mode
// (a bare switch: its timeout and retry budget are the link package's
// constants), and scripted faults; a timed fault, like a message
// below, comes at or before the run limit:
//
//	seed 42
//	linkmode reliable
//	fault drop app.1 rate=0.05 pkt=data
//	fault corrupt app.1 rate=0.01
//	fault jitter disk.0 rate=0.5 max=2us
//	fault sever app.2 at=500us
//	fault halt gfx at=1ms
//	fault restart gfx at=2ms
//
// Self-healing topologies turn on the routing layer, and inject
// end-to-end messages instead of running programs.  route is a bare
// switch: it brings the error-detecting link mode and liveness
// monitoring with it, their timing is fixed (link.BeatTimeout and the
// route package's constants), and an option is an error:
//
//	route
//	message app gfx at=100us data=hello
//
// Virtual channels multiplex several logical channels over one
// physical wire (naming either end of the connection is equivalent):
//
//	vchan app.1 count=8
//
// The parser checks each line alone; how a line fits the others is
// checked by the system that builds it (tool.BuildNetwork), which names
// the spec's line — zero in a topology built in code.
type Topology struct {
	Transputers []TransputerSpec
	Connections []Connection
	Hosts       []HostSpec
	Inputs      map[string][]int64
	// InputLines is the line of each node's first input directive.
	InputLines map[string]int
	// RunLimit bounds the simulated run: a `run` line's positive
	// duration, one second when the file has none.  Zero, possible only
	// in a topology built in code, runs to quiescence.
	RunLimit sim.Time

	// Seed drives every random decision of the fault plan.
	Seed uint64
	// Reliable selects the error-detecting link mode for every link in
	// the system instead of the paper's plain protocol.
	Reliable bool
	// Faults is the scripted fault plan (empty when none), and
	// FaultLines the line of each of its rules.
	Faults     []fault.Rule
	FaultLines []int
	// Route enables the store-and-forward routing layer, and with it
	// the error-detecting link mode and liveness monitoring; RouteLine
	// is the line of its directive.
	Route     bool
	RouteLine int
	// Messages are end-to-end injections for routed topologies.
	Messages []MessageSpec
	// VChans multiplexes virtual channels over physical links.
	VChans []VChanSpec
}

// VChanSpec multiplexes Count virtual channels over the physical link
// at Node.Link (and, implicitly, its connected peer end).
type VChanSpec struct {
	Node  string
	Link  int
	Count int
	Line  int
}

// MessageSpec is one scripted end-to-end message.
type MessageSpec struct {
	From, To string
	At       sim.Time
	Data     string
	Line     int
}

// Plan packages the topology's fault script as a seeded plan.
func (t *Topology) Plan() fault.Plan {
	return fault.Plan{Seed: t.Seed, Rules: t.Faults}
}

// TransputerSpec describes one node.
type TransputerSpec struct {
	Name     string
	Model    string // "t424" or "t222"
	MemBytes int    // 0 means the model default
	Program  string // path to .occ or .tasm source
	Line     int
}

// Connection joins two link ends.
type Connection struct {
	A     string
	ALink int
	B     string
	BLink int
	Line  int
}

// HostSpec attaches a host device to a node's link.
type HostSpec struct {
	Node string
	Link int
	Line int
}

// ParseTopology reads the text format above.  It refuses a line it
// cannot read (an unknown directive or option, a malformed value) and a
// second run, seed, linkmode or route line; every error names its line.
// A value's range is checked where it is used: a model by
// tool.ModelConfig, a vchan count by System.EnableVChans, a fault's
// rate and time by fault.Rule.Validate.
func ParseTopology(src string) (*Topology, error) {
	topo := &Topology{Inputs: make(map[string][]int64), InputLines: make(map[string]int), RunLimit: sim.Second}
	onceAt := make(map[string]int) // singleton directive -> its line
	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		no := lineNo + 1
		fail := func(format string, args ...interface{}) error {
			return fmt.Errorf("topology line %d: %s", no, fmt.Sprintf(format, args...))
		}
		switch fields[0] {
		case "run", "seed", "linkmode", "route":
			if prev, dup := onceAt[fields[0]]; dup {
				return nil, fail("duplicate %s directive (first at line %d)", fields[0], prev)
			}
			onceAt[fields[0]] = no
		}
		switch fields[0] {
		case "transputer":
			if len(fields) < 3 {
				return nil, fail("transputer needs a name and model")
			}
			spec := TransputerSpec{Name: fields[1], Model: strings.ToLower(fields[2]), Line: no}
			for _, opt := range fields[3:] {
				k, v, ok := strings.Cut(opt, "=")
				if !ok {
					return nil, fail("bad option %q", opt)
				}
				switch k {
				case "mem":
					n, err := parseSize(v)
					if err != nil {
						return nil, fail("bad memory size %q", v)
					}
					spec.MemBytes = n
				case "program":
					spec.Program = v
				default:
					return nil, fail("unknown option %q", k)
				}
			}
			topo.Transputers = append(topo.Transputers, spec)
		case "connect":
			if len(fields) != 3 {
				return nil, fail("connect needs two link ends")
			}
			a, al, err := parseEnd(fields[1])
			if err != nil {
				return nil, fail("%v", err)
			}
			b, bl, err := parseEnd(fields[2])
			if err != nil {
				return nil, fail("%v", err)
			}
			topo.Connections = append(topo.Connections, Connection{A: a, ALink: al, B: b, BLink: bl, Line: no})
		case "host":
			if len(fields) != 2 {
				return nil, fail("host needs one link end")
			}
			n, l, err := parseEnd(fields[1])
			if err != nil {
				return nil, fail("%v", err)
			}
			topo.Hosts = append(topo.Hosts, HostSpec{Node: n, Link: l, Line: no})
		case "input":
			if len(fields) < 3 {
				return nil, fail("input needs a node and at least one word")
			}
			for _, f := range fields[2:] {
				v, err := strconv.ParseInt(f, 10, 64)
				if err != nil {
					return nil, fail("bad input word %q", f)
				}
				topo.Inputs[fields[1]] = append(topo.Inputs[fields[1]], v)
			}
			if _, seen := topo.InputLines[fields[1]]; !seen {
				topo.InputLines[fields[1]] = no
			}
		case "run":
			if len(fields) != 2 {
				return nil, fail("run needs a duration")
			}
			d, err := parseDuration(fields[1])
			if err != nil || d <= 0 {
				return nil, fail("bad duration %q", fields[1])
			}
			topo.RunLimit = d
		case "seed":
			if len(fields) != 2 {
				return nil, fail("seed needs one number")
			}
			v, err := strconv.ParseUint(fields[1], 0, 64)
			if err != nil {
				return nil, fail("bad seed %q", fields[1])
			}
			topo.Seed = v
		case "linkmode":
			switch {
			case len(fields) == 1:
				return nil, fail("linkmode needs a mode (reliable)")
			case fields[1] != "reliable":
				return nil, fail("unknown link mode %q (want reliable)", fields[1])
			case len(fields) > 2:
				return nil, fail("linkmode takes no options")
			}
			topo.Reliable = true
		case "fault":
			rule, err := parseFault(fields[1:])
			if err != nil {
				return nil, fail("%v", err)
			}
			topo.Faults = append(topo.Faults, rule)
			topo.FaultLines = append(topo.FaultLines, no)
		case "route":
			if len(fields) > 1 {
				return nil, fail("route takes no options")
			}
			topo.Route, topo.RouteLine = true, no
		case "vchan":
			if len(fields) != 3 {
				return nil, fail("vchan needs a link end and count=N")
			}
			n, l, err := parseEnd(fields[1])
			if err != nil {
				return nil, fail("%v", err)
			}
			k, v, ok := strings.Cut(fields[2], "=")
			if !ok || k != "count" {
				return nil, fail("vchan needs count=N, got %q", fields[2])
			}
			cnt, err := strconv.Atoi(v)
			if err != nil {
				return nil, fail("bad vchan count %q", v)
			}
			topo.VChans = append(topo.VChans, VChanSpec{Node: n, Link: l, Count: cnt, Line: no})
		case "message":
			msg, err := parseMessage(fields[1:])
			if err != nil {
				return nil, fail("%v", err)
			}
			msg.Line = no
			topo.Messages = append(topo.Messages, msg)
		default:
			return nil, fail("unknown directive %q", fields[0])
		}
	}
	return topo, nil
}

// parseMessage reads a message directive:
//
//	message <from> <to> at=T data=STRING
func parseMessage(args []string) (MessageSpec, error) {
	var msg MessageSpec
	if len(args) < 3 {
		return msg, fmt.Errorf("message needs a sender, a receiver and at=")
	}
	msg.From = args[0]
	msg.To = args[1]
	for _, opt := range args[2:] {
		k, v, ok := strings.Cut(opt, "=")
		if !ok {
			return msg, fmt.Errorf("bad message option %q", opt)
		}
		switch k {
		case "at":
			d, err := parseDuration(v)
			if err != nil || d <= 0 {
				return msg, fmt.Errorf("bad message time %q", v)
			}
			msg.At = d
		case "data":
			msg.Data = v
		default:
			return msg, fmt.Errorf("unknown message option %q", k)
		}
	}
	if msg.At <= 0 {
		return msg, fmt.Errorf("message needs at=")
	}
	return msg, nil
}

// parseFault reads the arguments of a fault directive:
//
//	fault corrupt <node>.<link> rate=R
//	fault drop    <node>.<link> rate=R [pkt=data|ack|any]
//	fault jitter  <node>.<link> rate=R max=D
//	fault sever   <node>.<link> at=T
//	fault halt    <node>        at=T
//	fault restart <node>        at=T
func parseFault(args []string) (fault.Rule, error) {
	var rule fault.Rule
	if len(args) < 2 {
		return rule, fmt.Errorf("fault needs a kind and a target")
	}
	kind, err := fault.ParseKind(args[0])
	if err != nil {
		return rule, err
	}
	rule.Kind = kind
	if kind == fault.Halt || kind == fault.Restart {
		if strings.ContainsRune(args[1], '.') {
			return rule, fmt.Errorf("fault %s targets a node, not a link end", kind)
		}
		rule.Node = args[1]
		rule.Link = -1
	} else {
		n, l, err := parseEnd(args[1])
		if err != nil {
			return rule, err
		}
		rule.Node = n
		rule.Link = l
	}
	for _, opt := range args[2:] {
		k, v, ok := strings.Cut(opt, "=")
		if !ok {
			return rule, fmt.Errorf("bad fault option %q", opt)
		}
		switch k {
		case "rate":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return rule, fmt.Errorf("bad rate %q", v)
			}
			rule.Rate = f
		case "pkt":
			pc, err := fault.ParsePacketClass(v)
			if err != nil {
				return rule, err
			}
			rule.Pkt = pc
		case "at":
			d, err := parseDuration(v)
			if err != nil {
				return rule, fmt.Errorf("bad time %q", v)
			}
			rule.At = d
		case "max":
			d, err := parseDuration(v)
			if err != nil {
				return rule, fmt.Errorf("bad duration %q", v)
			}
			rule.Max = d
		default:
			return rule, fmt.Errorf("unknown fault option %q", k)
		}
	}
	return rule, nil
}

// parseEnd reads a "node.link" link end, checking the link index range.
func parseEnd(s string) (node string, link int, err error) {
	node, ls, ok := strings.Cut(s, ".")
	if !ok || node == "" {
		return "", 0, fmt.Errorf("bad link end %q (want node.link)", s)
	}
	link, err = strconv.Atoi(ls)
	if err != nil {
		return "", 0, fmt.Errorf("bad link number in %q", s)
	}
	if link < 0 || link >= core.NumLinks {
		return "", 0, fmt.Errorf("link %d in %q out of range 0..%d", link, s, core.NumLinks-1)
	}
	return node, link, nil
}

func parseSize(s string) (int, error) {
	mult := 1
	switch {
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		mult = 1024
		s = s[:len(s)-1]
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		mult = 1024 * 1024
		s = s[:len(s)-1]
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, err
	}
	return n * mult, nil
}

func parseDuration(s string) (sim.Time, error) {
	mult := sim.Nanosecond
	switch {
	case strings.HasSuffix(s, "ms"):
		mult = sim.Millisecond
		s = s[:len(s)-2]
	case strings.HasSuffix(s, "us"):
		mult = sim.Microsecond
		s = s[:len(s)-2]
	case strings.HasSuffix(s, "ns"):
		s = s[:len(s)-2]
	case strings.HasSuffix(s, "s"):
		mult = sim.Second
		s = s[:len(s)-1]
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, err
	}
	return sim.Time(n) * mult, nil
}
