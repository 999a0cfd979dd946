// Package fault is the deterministic fault-injection subsystem: seeded,
// scriptable plans of wire-layer and node-layer faults, driven from
// `fault` directives in a topology file (or built programmatically) and
// applied to a system before it runs.
//
// The paper's link protocol assumes perfect wires; this package is how
// the simulation stops assuming.  A plan injects bit corruption, data
// or acknowledge packet loss, jitter, link severs at a given simulated
// time, and node halts — all derived from a single seed, so a campaign
// replays identically, packet for packet, run after run.
//
// Randomness comes from one splitmix64 stream per targeted link end
// (seeded from the plan seed and the end's name), so the decisions on
// one wire are independent of traffic on any other and a topology
// change on one link does not reshuffle the faults on the rest.
package fault

import (
	"fmt"

	"transputer/internal/link"
	"transputer/internal/sim"
)

// Kind is the type of one fault rule.
type Kind uint8

const (
	// Corrupt flips random payload bits of data packets at a given rate.
	Corrupt Kind = iota
	// Drop loses packets in transit at a given rate; Pkt selects which
	// packet class is affected.
	Drop
	// Jitter delays packets at a given rate by a random amount up to
	// Max.
	Jitter
	// Sever cuts both wires of a link at simulated time At.
	Sever
	// Halt stops a node's processor at simulated time At and cuts all
	// its links, as if the board lost power.
	Halt
	// Restart revives a node previously stopped by Halt at simulated
	// time At: power returns to a battery-backed board — the processor
	// resumes with its frozen state, its links resume their streams
	// (all but a severed one and those to a board still halted), and
	// the node rejoins the network.
	Restart

	numKinds
)

var kindNames = [numKinds]string{
	Corrupt: "corrupt",
	Drop:    "drop",
	Jitter:  "jitter",
	Sever:   "sever",
	Halt:    "halt",
	Restart: "restart",
}

// String names the fault kind as spelled in topology files.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// ParseKind reads a fault kind as spelled in topology files.
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if s == name {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("fault: unknown kind %q", s)
}

// PacketClass selects which packets a Drop rule affects.
type PacketClass uint8

const (
	// AnyPacket drops data and control packets alike.
	AnyPacket PacketClass = iota
	// DataPacket drops only data packets.
	DataPacket
	// CtlPacket drops only control packets (acknowledges and naks).
	CtlPacket
)

// ParsePacketClass reads a packet class as spelled in topology files.
func ParsePacketClass(s string) (PacketClass, error) {
	switch s {
	case "any":
		return AnyPacket, nil
	case "data":
		return DataPacket, nil
	case "ack", "ctl":
		return CtlPacket, nil
	}
	return 0, fmt.Errorf("fault: unknown packet class %q (want data, ack or any)", s)
}

// Rule is one scripted fault.  Probabilistic rules (Corrupt, Drop,
// Jitter) target the outgoing wire of the named link end; Sever cuts
// both wires of the link at that end; Halt targets a whole node and
// ignores Link.
type Rule struct {
	Kind Kind
	Node string
	Link int // -1 for Halt
	Pkt  PacketClass
	// Rate is the per-packet probability in [0,1] for probabilistic
	// rules.
	Rate float64
	// At is the trigger time for Sever and Halt.
	At sim.Time
	// Max bounds the extra delay of a Jitter rule.
	Max sim.Time
}

// Timed reports whether the rule fires once at a scheduled instant
// rather than probabilistically per packet.
func (r Rule) Timed() bool { return r.Kind == Sever || r.Kind == Halt || r.Kind == Restart }

// Validate checks a rule's parameters.
func (r Rule) Validate() error {
	switch r.Kind {
	case Corrupt, Drop, Jitter:
		if r.Rate < 0 || r.Rate > 1 {
			return fmt.Errorf("fault: %s rate %g out of range [0,1]", r.Kind, r.Rate)
		}
		if r.Kind == Jitter && r.Max <= 0 {
			return fmt.Errorf("fault: jitter needs max > 0")
		}
	case Sever, Halt, Restart:
		if r.At <= 0 {
			return fmt.Errorf("fault: %s needs at > 0", r.Kind)
		}
	}
	return nil
}

// Plan is a complete seeded fault campaign.
type Plan struct {
	Seed  uint64
	Rules []Rule
}

// Empty reports a plan with nothing to inject.
func (p Plan) Empty() bool { return len(p.Rules) == 0 }

// A RuleError is a plan refused for its rule Rules[Rule]; Prev is the
// earlier rule it clashes with, or -1.
type RuleError struct {
	Rule, Prev int
	Err        error
}

func (e *RuleError) Error() string { return fmt.Sprintf("rule %d: %v", e.Rule, e.Err) }

func (e *RuleError) Unwrap() error { return e.Err }

// Validate checks every rule, and that a node halts at most once and
// restarts at most once, strictly after its halt.  What a rule may
// target is the system's to check (network.System.ApplyFaults).
func (p Plan) Validate() error {
	type event struct {
		kind Kind
		node string
	}
	seen := make(map[event]int) // a node's halt or restart -> its rule
	for i, r := range p.Rules {
		if err := r.Validate(); err != nil {
			return &RuleError{Rule: i, Prev: -1, Err: err}
		}
		if r.Kind != Halt && r.Kind != Restart {
			continue
		}
		if prev, dup := seen[event{r.Kind, r.Node}]; dup {
			return &RuleError{Rule: i, Prev: prev, Err: fmt.Errorf("fault: duplicate %s of %q", r.Kind, r.Node)}
		}
		seen[event{r.Kind, r.Node}] = i
	}
	for i, r := range p.Rules {
		if r.Kind != Restart {
			continue
		}
		h, ok := seen[event{Halt, r.Node}]
		switch {
		case !ok:
			return &RuleError{Rule: i, Prev: -1, Err: fmt.Errorf("fault: restart of %q has no matching halt", r.Node)}
		case p.Rules[h].At >= r.At:
			return &RuleError{Rule: i, Prev: -1, Err: fmt.Errorf("fault: restart of %q at %v does not follow its halt at %v", r.Node, r.At, p.Rules[h].At)}
		}
	}
	return nil
}

// SplitMix64 is a splitmix64 stream whose value is its state: tiny,
// fast and stable across Go versions, which keeps fault plans and chaos
// campaigns reproducible independent of the standard library's
// generator.
type SplitMix64 uint64

// Next advances the stream and returns its next value.
func (r *SplitMix64) Next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// Float returns a uniform float64 in [0,1).
func (r *SplitMix64) Float() float64 { return float64(r.Next()>>11) / (1 << 53) }

// intn returns a uniform int in [0,n).
func (r *SplitMix64) intn(n int64) int64 { return int64(r.Next() % uint64(n)) }

// fnv1a hashes a string (FNV-1a 64), used to derive per-end seeds.
func fnv1a(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// Injector turns a plan into per-wire hooks.  Build one per system run;
// the per-end random streams are created lazily and advance only with
// that end's traffic.
type Injector struct {
	plan Plan
}

// NewInjector validates the plan and prepares an injector.
func NewInjector(plan Plan) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &Injector{plan: plan}, nil
}

// Timed returns the plan's scheduled rules (severs and halts).
func (inj *Injector) Timed() []Rule {
	var out []Rule
	for _, r := range inj.plan.Rules {
		if r.Timed() {
			out = append(out, r)
		}
	}
	return out
}

// WireHook builds the fault hook for the outgoing wire of one link end,
// or nil when no probabilistic rule targets it.
func (inj *Injector) WireHook(node string, lnk int) link.FaultHook {
	var rules []Rule
	for _, r := range inj.plan.Rules {
		if !r.Timed() && r.Node == node && r.Link == lnk {
			rules = append(rules, r)
		}
	}
	if len(rules) == 0 {
		return nil
	}
	stream := SplitMix64(inj.plan.Seed ^ fnv1a(fmt.Sprintf("%s.%d", node, lnk)))
	return func(isCtl bool) link.FaultAction {
		var act link.FaultAction
		for _, r := range rules {
			switch r.Kind {
			case Drop:
				if isCtl && r.Pkt == DataPacket || !isCtl && r.Pkt == CtlPacket {
					continue
				}
				if stream.Float() < r.Rate {
					act.Drop = true
				}
			case Corrupt:
				if isCtl {
					continue
				}
				if stream.Float() < r.Rate {
					act.Corrupt |= 1 << uint(stream.intn(8))
				}
			case Jitter:
				if stream.Float() < r.Rate {
					act.Delay += sim.Time(stream.intn(int64(r.Max)) + 1)
				}
			}
		}
		return act
	}
}
