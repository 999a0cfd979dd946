package network

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"transputer/internal/core"
	"transputer/internal/fault"
	"transputer/internal/link"
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
// Fault campaigns add a seed, an optional error-detecting link mode,
// and scripted faults:
//
//	seed 42
//	linkmode reliable timeout=10us retries=32
//	fault drop app.1 rate=0.05 pkt=data
//	fault corrupt app.1 rate=0.01
//	fault jitter disk.0 rate=0.5 max=2us
//	fault sever app.2 at=500us
//	fault halt gfx at=1ms
//	fault restart gfx at=2ms
//
// Self-healing topologies enable liveness monitoring and the routing
// layer, and inject end-to-end messages instead of running programs.
// Both are bare switches: their timing is fixed (link.BeatTimeout and
// the route package's constants), and an option is an error:
//
//	linkmode reliable
//	heartbeat
//	route
//	message app gfx at=100us data=hello
//
// Virtual channels multiplex several logical channels over one
// physical wire (naming either end of the connection is equivalent):
//
//	vchan app.1 count=8
type Topology struct {
	Transputers []TransputerSpec
	Connections []Connection
	Hosts       []HostSpec
	Inputs      map[string][]int64
	// RunLimit bounds the simulated run: a `run` line's positive
	// duration, one second when the file has none.  Zero, possible only
	// in a topology built in code, runs to quiescence.
	RunLimit sim.Time

	// Seed drives every random decision of the fault plan.
	Seed uint64
	// LinkMode selects the paper's plain protocol or the
	// error-detecting mode for every link in the system.
	LinkMode LinkMode
	// Faults is the scripted fault plan (empty when none).
	Faults []fault.Rule
	// Heartbeat enables link liveness monitoring.
	Heartbeat bool
	// Route enables the store-and-forward routing layer.
	Route bool
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
}

// MessageSpec is one scripted end-to-end message.
type MessageSpec struct {
	From, To string
	At       sim.Time
	Data     string
}

// LinkMode configures the link protocol for a whole system.
type LinkMode struct {
	Reliable bool
	Timeout  sim.Time // 0 means the link package default
	Retries  int      // 0 means the link package default
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
}

// Connection joins two link ends.
type Connection struct {
	A     string
	ALink int
	B     string
	BLink int
}

// HostSpec attaches a host device to a node's link.
type HostSpec struct {
	Node string
	Link int
}

// ParseTopology reads the text format above.  Every error names the
// line it came from; duplicate node names, double-wired link ends,
// repeated singleton directives and references to undeclared nodes are
// rejected.
func ParseTopology(src string) (*Topology, error) {
	topo := &Topology{Inputs: make(map[string][]int64), RunLimit: sim.Second}
	nodeLine := make(map[string]int)  // node name -> declaring line
	wiredLine := make(map[string]int) // "node.link" -> wiring line
	var faultLine []int               // line of each rule in topo.Faults
	var vchanLine []int               // line of each spec in topo.VChans
	onceAt := make(map[string]int)    // singleton directive -> its line
	messageAt := 0                    // line of the first message
	// refs records node-name uses to validate after all declarations.
	type ref struct {
		name string
		line int
	}
	var refs []ref
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
		// claim marks a link end as wired, rejecting double wiring.
		claim := func(end string) error {
			if prev, dup := wiredLine[end]; dup {
				return fail("link end %s already wired at line %d", end, prev)
			}
			wiredLine[end] = no
			return nil
		}
		switch fields[0] {
		case "run", "seed", "linkmode", "heartbeat", "route":
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
			spec := TransputerSpec{Name: fields[1], Model: strings.ToLower(fields[2])}
			if prev, dup := nodeLine[spec.Name]; dup {
				return nil, fail("duplicate transputer name %q (first declared at line %d)", spec.Name, prev)
			}
			if spec.Model != "t424" && spec.Model != "t222" {
				return nil, fail("unknown model %q", fields[2])
			}
			if len(topo.Transputers) >= sim.MaxPorts {
				return nil, fail("too many transputers: a system holds at most %d", sim.MaxPorts)
			}
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
			nodeLine[spec.Name] = no
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
			if a == b && al == bl {
				return nil, fail("cannot connect link end %s to itself", fields[1])
			}
			for _, end := range []string{fields[1], fields[2]} {
				if err := claim(end); err != nil {
					return nil, err
				}
			}
			refs = append(refs, ref{a, no}, ref{b, no})
			topo.Connections = append(topo.Connections, Connection{A: a, ALink: al, B: b, BLink: bl})
		case "host":
			if len(fields) != 2 {
				return nil, fail("host needs one link end")
			}
			n, l, err := parseEnd(fields[1])
			if err != nil {
				return nil, fail("%v", err)
			}
			if err := claim(fields[1]); err != nil {
				return nil, err
			}
			refs = append(refs, ref{n, no})
			topo.Hosts = append(topo.Hosts, HostSpec{Node: n, Link: l})
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
			refs = append(refs, ref{fields[1], no})
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
			mode, err := parseLinkMode(fields[1:])
			if err != nil {
				return nil, fail("%v", err)
			}
			topo.LinkMode = mode
		case "fault":
			rule, err := parseFault(fields[1:])
			if err != nil {
				return nil, fail("%v", err)
			}
			refs = append(refs, ref{rule.Node, no})
			topo.Faults = append(topo.Faults, rule)
			faultLine = append(faultLine, no)
		case "heartbeat":
			if len(fields) > 1 {
				return nil, fail("heartbeat takes no options")
			}
			topo.Heartbeat = true
		case "route":
			if len(fields) > 1 {
				return nil, fail("route takes no options")
			}
			topo.Route = true
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
			if err != nil || cnt < 2 || cnt > link.MaxVChans {
				return nil, fail("bad vchan count %q (want 2..%d)", v, link.MaxVChans)
			}
			refs = append(refs, ref{n, no})
			topo.VChans = append(topo.VChans, VChanSpec{Node: n, Link: l, Count: cnt})
			vchanLine = append(vchanLine, no)
		case "message":
			msg, err := parseMessage(fields[1:])
			if err != nil {
				return nil, fail("%v", err)
			}
			refs = append(refs, ref{msg.From, no}, ref{msg.To, no})
			topo.Messages = append(topo.Messages, msg)
			if messageAt == 0 {
				messageAt = no
			}
		default:
			return nil, fail("unknown directive %q", fields[0])
		}
	}
	for _, r := range refs {
		if _, ok := nodeLine[r.name]; !ok {
			return nil, fmt.Errorf("topology line %d: unknown transputer %q", r.line, r.name)
		}
	}
	if err := validateFaults(topo, faultLine, wiredLine); err != nil {
		return nil, err
	}
	if err := validateVChans(topo, vchanLine, faultLine, wiredLine); err != nil {
		return nil, err
	}
	if topo.Route {
		if !topo.LinkMode.Reliable {
			return nil, fmt.Errorf("topology line %d: route requires linkmode reliable", onceAt["route"])
		}
		if !topo.Heartbeat {
			return nil, fmt.Errorf("topology line %d: route requires a heartbeat directive", onceAt["route"])
		}
	}
	if messageAt != 0 && !topo.Route {
		return nil, fmt.Errorf("topology line %d: message directives require a route directive", messageAt)
	}
	return topo, nil
}

// validateFaults cross-checks the fault script against the wiring, so
// a bad campaign is rejected when the file is read instead of
// surfacing as a puzzling mid-run no-op.  Every error carries the
// offending line.
func validateFaults(topo *Topology, faultLine []int, wiredLine map[string]int) error {
	// peerEnd maps each connected link end to its other end, so a
	// sever of the same physical link via either end is caught.
	peerEnd := make(map[string]string)
	for _, c := range topo.Connections {
		a := fmt.Sprintf("%s.%d", c.A, c.ALink)
		b := fmt.Sprintf("%s.%d", c.B, c.BLink)
		peerEnd[a] = b
		peerEnd[b] = a
	}
	severed := make(map[string]int) // link end -> line of its sever
	halted := make(map[string]int)  // node -> line of its halt
	restarted := make(map[string]int)
	for i, r := range topo.Faults {
		no := faultLine[i]
		fail := func(format string, args ...interface{}) error {
			return fmt.Errorf("topology line %d: %s", no, fmt.Sprintf(format, args...))
		}
		switch r.Kind {
		case fault.Halt:
			if prev, dup := halted[r.Node]; dup {
				return fail("duplicate halt of %q (first at line %d)", r.Node, prev)
			}
			halted[r.Node] = no
		case fault.Restart:
			if prev, dup := restarted[r.Node]; dup {
				return fail("duplicate restart of %q (first at line %d)", r.Node, prev)
			}
			restarted[r.Node] = no
			haltAt := sim.Time(-1)
			for _, h := range topo.Faults {
				if h.Kind == fault.Halt && h.Node == r.Node {
					haltAt = h.At
				}
			}
			if haltAt < 0 {
				return fail("restart of %q has no matching halt", r.Node)
			}
			if haltAt >= r.At {
				return fail("restart of %q at %v does not follow its halt at %v", r.Node, r.At, haltAt)
			}
		default:
			// Wire-targeted rules must name an end that is actually
			// wired (a connection or a host attachment).
			end := fmt.Sprintf("%s.%d", r.Node, r.Link)
			if _, wired := wiredLine[end]; !wired {
				return fail("fault %s targets unwired link end %s", r.Kind, end)
			}
			if r.Kind == fault.Sever {
				if prev, dup := severed[end]; dup {
					return fail("duplicate sever of %s (first at line %d)", end, prev)
				}
				if p, ok := peerEnd[end]; ok {
					if prev, dup := severed[p]; dup {
						return fail("sever of %s cuts the same link as %s at line %d", end, p, prev)
					}
				}
				severed[end] = no
			}
		}
	}
	return nil
}

// validateVChans cross-checks vchan directives against the wiring and
// the fault plan.  A vchan end must belong to a transputer-to-
// transputer connection (host links carry the boot protocol and cannot
// be multiplexed), a physical wire may be multiplexed only once even
// when named from its other end, and the fault plan may not touch a
// multiplexed wire: the mux frames multi-byte units and a corrupted or
// dropped header would desynchronise every logical channel at once, so
// the combination is rejected when the file is read.
func validateVChans(topo *Topology, vchanLine, faultLine []int, wiredLine map[string]int) error {
	if len(topo.VChans) == 0 {
		return nil
	}
	peerEnd := make(map[string]string)
	for _, c := range topo.Connections {
		a := fmt.Sprintf("%s.%d", c.A, c.ALink)
		b := fmt.Sprintf("%s.%d", c.B, c.BLink)
		peerEnd[a] = b
		peerEnd[b] = a
	}
	muxed := make(map[string]int) // link end -> line of its vchan
	for i, vc := range topo.VChans {
		no := vchanLine[i]
		fail := func(format string, args ...interface{}) error {
			return fmt.Errorf("topology line %d: %s", no, fmt.Sprintf(format, args...))
		}
		end := fmt.Sprintf("%s.%d", vc.Node, vc.Link)
		peer, connected := peerEnd[end]
		if !connected {
			if _, wired := wiredLine[end]; wired {
				return fail("vchan on host link end %s (vchans need a transputer-to-transputer connect)", end)
			}
			return fail("vchan targets unwired link end %s", end)
		}
		if prev, dup := muxed[end]; dup {
			return fail("duplicate vchan on %s (first at line %d)", end, prev)
		}
		if prev, dup := muxed[peer]; dup {
			return fail("vchan on %s multiplexes the same wire as %s at line %d", end, peer, prev)
		}
		muxed[end] = no
	}
	// adjacent records every node touching a multiplexed wire, so halt
	// and restart rules can be refused along with wire-level faults.
	// A node on two multiplexed wires keeps the line number of the
	// lexically earliest end, so refusals cite a stable line.
	muxEnds := make([]string, 0, len(muxed))
	for end := range muxed {
		muxEnds = append(muxEnds, end)
	}
	sort.Strings(muxEnds)
	adjacent := make(map[string]int)
	for _, end := range muxEnds {
		no := muxed[end]
		node, _, _ := strings.Cut(end, ".")
		if _, seen := adjacent[node]; !seen {
			adjacent[node] = no
		}
		pnode, _, _ := strings.Cut(peerEnd[end], ".")
		if _, seen := adjacent[pnode]; !seen {
			adjacent[pnode] = no
		}
	}
	for i, r := range topo.Faults {
		no := faultLine[i]
		switch r.Kind {
		case fault.Halt, fault.Restart:
			if vl, ok := adjacent[r.Node]; ok {
				return fmt.Errorf("topology line %d: fault %s of %q touches a multiplexed link (vchan at line %d)", no, r.Kind, r.Node, vl)
			}
		default:
			end := fmt.Sprintf("%s.%d", r.Node, r.Link)
			prev, dup := muxed[end]
			if !dup {
				if pe, ok := peerEnd[end]; ok {
					prev, dup = muxed[pe]
				}
			}
			if dup {
				return fmt.Errorf("topology line %d: fault %s targets multiplexed link end %s (vchan at line %d)", no, r.Kind, end, prev)
			}
		}
	}
	return nil
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

// parseLinkMode reads the arguments of a linkmode directive.
func parseLinkMode(args []string) (LinkMode, error) {
	var mode LinkMode
	if len(args) == 0 {
		return mode, fmt.Errorf("linkmode needs a mode (standard or reliable)")
	}
	switch args[0] {
	case "standard":
		if len(args) > 1 {
			return mode, fmt.Errorf("linkmode standard takes no options")
		}
		return mode, nil
	case "reliable":
		mode.Reliable = true
	default:
		return mode, fmt.Errorf("unknown link mode %q (want standard or reliable)", args[0])
	}
	for _, opt := range args[1:] {
		k, v, ok := strings.Cut(opt, "=")
		if !ok {
			return mode, fmt.Errorf("bad linkmode option %q", opt)
		}
		switch k {
		case "timeout":
			d, err := parseDuration(v)
			if err != nil || d <= 0 {
				return mode, fmt.Errorf("bad timeout %q", v)
			}
			mode.Timeout = d
		case "retries":
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				return mode, fmt.Errorf("bad retries %q", v)
			}
			mode.Retries = n
		default:
			return mode, fmt.Errorf("unknown linkmode option %q", k)
		}
	}
	return mode, nil
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
	if err := rule.Validate(); err != nil {
		return rule, err
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
