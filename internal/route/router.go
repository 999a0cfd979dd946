// Package route is a store-and-forward routing layer over the link
// fabric: end-to-end sequenced messages delivered exactly once and in
// order on any surviving connected topology, while links fail, nodes
// halt and restart, and the fault campaign does its worst.
//
// The design splits cleanly along the simulator's determinism rule:
// every piece of per-node router state is touched only from that
// node's shard, and nodes talk to each other exclusively through link
// wires — the same deterministic mailbox all other traffic uses — so
// results stay byte-identical at any worker count.
//
// Mechanisms, bottom up:
//
//   - Hop custody: a frame queued on a link is "in custody" until the
//     link engine acknowledges its final byte (Engine.Send's completion).
//     A custody timer with exponential backoff catches links that die
//     mid-frame; a dead link's frames are resynchronised away and
//     rerouted.
//   - Failure detection: the link layer's heartbeat monitor (see
//     link/heartbeat.go) declares links down after bounded silence and
//     up when traffic returns.  Down: the local end aborts its streams
//     (ResyncLink), floods a link-state advertisement and reroutes.
//     Up: a HELLO handshake re-establishes the link — both ends have
//     reset their streams at the down verdict, so the byte streams
//     restart aligned — followed by a full advertisement exchange that
//     heals partitioned views.
//   - Routing: every node floods (origin, generation, down-mask)
//     advertisements and computes next hops by breadth-first search
//     over the agreed topology, with deterministic tie-breaks (lower
//     node ordinal, lower link index).  A TTL bounds transient loops.
//   - End-to-end reliability: each (origin, dest) stream is sequenced
//     from zero; the destination delivers contiguously, buffers
//     out-of-order arrivals, and acknowledges every receipt.  The
//     origin keeps unacknowledged messages in a replay buffer with
//     exponential backoff.  Duplicates created by replay or rerouting
//     collapse at the destination's sequence window.
//   - Crash recovery: a node halt wipes volatile state (queues, link
//     streams, others' advertisements) but preserves the stable store
//     (replay buffer, delivery ledger, own advertisement generation —
//     think battery-backed NVRAM).  At restart the node resets its
//     link streams, rejoins via HELLO, and replays its unacknowledged
//     messages.
//
// Like the link protocol under it, the router takes no options: the
// per-hop custody timeout, the replay backoff base and the hop budget
// are constants, as is the timing of the heartbeat it depends on.
package route

import (
	"fmt"
	"sort"

	"transputer/internal/core"
	"transputer/internal/network"
	"transputer/internal/probe"
	"transputer/internal/sim"
)

// The router's timing and hop budget are fixed.
const (
	// custodyTimeout is the custody timeout per hop — generous against
	// queueing and link-level retransmission, so it only fires for
	// genuinely stuck frames.
	custodyTimeout = 400 * sim.Microsecond
	// replayTimeout is the base end-to-end replay backoff.
	replayTimeout = 800 * sim.Microsecond
	// frameTTL is the hop budget of routed frames.
	frameTTL = 32
)

// Delivery is one in-order end-to-end delivery at a destination.
type Delivery struct {
	Origin  string
	Dest    string
	Seq     uint32
	At      sim.Time
	Payload []byte
}

// Injected records one message handed to SendAt, with the verdict on
// whether the origin was alive to accept it.
type Injected struct {
	From, To string
	At       sim.Time
	Seq      uint32
	Payload  []byte
	Accepted bool
}

// adjEntry is the static wiring of one link end: immutable after
// Attach, so safe to read from any shard during route computation.
type adjEntry struct {
	wired    bool
	peer     int
	peerLink int
}

// lsaEntry is one node's latest link-state advertisement as known
// here.
type lsaEntry struct {
	seq  uint32
	mask byte // bit l set: that node's link l is down
}

// pendKey identifies an unacknowledged message in the origin's replay
// buffer.
type pendKey struct {
	to  int
	seq uint32
}

// pendingMsg is one replay-buffer entry.
type pendingMsg struct {
	payload  []byte
	attempts int
	timer    sim.EventID
	armed    bool
}

// oooKey identifies an out-of-order buffered payload at a destination.
type oooKey struct {
	origin int
	seq    uint32
}

// sendSlot is one unit of send concurrency on a link: the whole wire
// for plain links, or one virtual channel of a multiplexed link.  A
// frame in a slot is "in custody" until the engine confirms its final
// byte, watched by the slot's hop timer.
type sendSlot struct {
	end      core.End // the link, or one of its vchans
	inFlight *frame
	sending  bool
	hopTimer sim.EventID
	hopArmed bool
	hopWait  sim.Time
}

// linkState is the dynamic router state of one link end.  Touched only
// from the owning node's shard.
type linkState struct {
	routable  bool // HELLO handshake complete; data may be routed here
	helloSent bool // greeting sent since the last down transition
	queue     []frame
	slots     []sendSlot
}

// rnode is the router's per-node state.
type rnode struct {
	r     *Router
	nn    *network.Node
	ord   int
	alive bool
	// gen invalidates outstanding timer and transfer closures across a
	// crash or restart: a closure captures the generation it was armed
	// under and goes silent if the node has since crossed a boot.
	gen uint64

	links [core.NumLinks]linkState

	// Stable store: survives a crash (battery-backed NVRAM).
	pending   map[pendKey]*pendingMsg
	nextSeq   []uint32 // per-destination next stream sequence
	expect    []uint32 // per-origin next in-order delivery
	ooo       map[oooKey][]byte
	lsaSeq    uint32 // own advertisement generation; bumped every boot
	delivered []Delivery

	// Volatile: wiped by a crash.
	db      []lsaEntry
	dbKnown []bool
	nextHop []int // per-destination link index, -1 unreachable
	reach   int
	parked  []frame // routable-nowhere frames awaiting a route change
}

// Router is the system-wide routing layer.  Build it with Attach
// before Run; read results (Deliveries, Injected, Undelivered) after.
type Router struct {
	sys      *network.System
	nodes    []*rnode
	byName   map[string]*rnode
	adj      [][core.NumLinks]adjEntry
	injected []*Injected
}

// Attach builds a router over every node of the system.  The system
// must be in error-detecting link mode with heartbeats enabled —
// the router's streams and failure detection are built on both — and
// fully wired: call Attach after the topology is connected (including
// any System.EnableVChans) and before Run.  On a multiplexed link the
// router runs one send slot and one receive pump per virtual channel,
// so frames to different destinations stream concurrently over the
// shared wire instead of queueing behind each other.
func Attach(s *network.System) (*Router, error) {
	if !s.LinkMode().Reliable {
		return nil, fmt.Errorf("route: router requires the error-detecting link mode")
	}
	if !s.HeartbeatSet() {
		return nil, fmt.Errorf("route: router requires heartbeats (System.SetHeartbeat)")
	}
	nodes := s.Nodes()
	if len(nodes) > 256 {
		return nil, fmt.Errorf("route: %d nodes exceed the 256-node frame address space", len(nodes))
	}
	r := &Router{sys: s, byName: make(map[string]*rnode)}
	r.adj = make([][core.NumLinks]adjEntry, len(nodes))
	for i, nn := range nodes {
		for l := 0; l < core.NumLinks; l++ {
			if pn, pl, ok := nn.Peer(l); ok {
				// Peer ordinal = its index in creation order.
				for j, cand := range nodes {
					if cand == pn {
						r.adj[i][l] = adjEntry{wired: true, peer: j, peerLink: pl}
						break
					}
				}
			}
		}
	}
	for i, nn := range nodes {
		nd := &rnode{
			r: r, nn: nn, ord: i, alive: true,
			pending: make(map[pendKey]*pendingMsg),
			nextSeq: make([]uint32, len(nodes)),
			expect:  make([]uint32, len(nodes)),
			ooo:     make(map[oooKey][]byte),
			db:      make([]lsaEntry, len(nodes)),
			dbKnown: make([]bool, len(nodes)),
			nextHop: make([]int, len(nodes)),
		}
		// Everyone starts presumed fully up: links begin synchronised,
		// and the no-fault case routes without a single advertisement.
		for j := range nd.dbKnown {
			nd.dbKnown[j] = true
		}
		for l := 0; l < core.NumLinks; l++ {
			if r.adj[i][l].wired {
				nd.links[l].routable = true
				nd.links[l].helloSent = true
			}
		}
		r.nodes = append(r.nodes, nd)
		r.byName[nn.Name] = nd
	}
	for _, nd := range r.nodes {
		nd.recompute()
		for l := 0; l < core.NumLinks; l++ {
			if r.adj[nd.ord][l].wired {
				nd.initSlots(l)
				nd.armRecv(l)
			}
		}
		nd.hookEngine()
	}
	s.OnNodeDown(func(nn *network.Node) {
		if nd, ok := r.byName[nn.Name]; ok {
			nd.crash()
		}
	})
	s.OnNodeUp(func(nn *network.Node) {
		if nd, ok := r.byName[nn.Name]; ok {
			nd.boot()
		}
	})
	return r, nil
}

// hookEngine subscribes the node to its engine's heartbeat verdicts.
func (nd *rnode) hookEngine() {
	nd.nn.Engine.OnHeartbeat(func(l int, up bool) {
		if up {
			nd.upVerdict(l)
		} else {
			nd.linkDown(l)
		}
	})
}

func (nd *rnode) clock() *sim.Port { return nd.nn.Clock() }

// SendAt schedules a message injection at the origin node at the given
// instant.  The message is accepted (sequenced, stored, routed) only
// if the origin is alive then; the returned record's Accepted field
// reports the verdict after the run.
func (r *Router) SendAt(at sim.Time, from, to string, payload []byte) (*Injected, error) {
	src, ok := r.byName[from]
	if !ok {
		return nil, fmt.Errorf("route: unknown origin %q", from)
	}
	dst, ok := r.byName[to]
	if !ok {
		return nil, fmt.Errorf("route: unknown destination %q", to)
	}
	if len(payload) > maxPayload {
		return nil, fmt.Errorf("route: payload %d exceeds %d-byte cap", len(payload), maxPayload)
	}
	rec := &Injected{From: from, To: to, At: at, Payload: append([]byte(nil), payload...)}
	r.injected = append(r.injected, rec)
	src.clock().Schedule(at, func() {
		if !src.alive {
			return
		}
		rec.Accepted = true
		seq := src.nextSeq[dst.ord]
		src.nextSeq[dst.ord]++
		rec.Seq = seq
		if dst.ord == src.ord {
			src.deliverLocal(frame{kind: fData, origin: byte(src.ord), dest: byte(src.ord), seq: seq,
				payload: append([]byte(nil), payload...)})
			return
		}
		msg := &pendingMsg{payload: append([]byte(nil), payload...)}
		src.pending[pendKey{dst.ord, seq}] = msg
		src.route(src.dataFrame(dst.ord, seq, msg.payload))
		src.armReplay(dst.ord, seq, msg)
	})
	return rec, nil
}

func (nd *rnode) dataFrame(to int, seq uint32, payload []byte) frame {
	return frame{kind: fData, origin: byte(nd.ord), dest: byte(to),
		ttl: frameTTL, seq: seq, payload: payload}
}

// armReplay schedules the message's next replay with exponential
// backoff.
func (nd *rnode) armReplay(to int, seq uint32, msg *pendingMsg) {
	gen := nd.gen
	wait := replayTimeout
	for i := 0; i < msg.attempts && i < 5; i++ {
		wait *= 2
	}
	msg.armed = true
	msg.timer = nd.clock().After(wait, func() {
		msg.armed = false
		if nd.gen != gen || !nd.alive {
			return
		}
		if _, still := nd.pending[pendKey{to, seq}]; !still {
			return
		}
		msg.attempts++
		if nd.nn.ProbeBus() != nil {
			nd.nn.Publish(probe.Event{Kind: probe.RouteReplay, Arg: int64(msg.attempts)})
		}
		nd.route(nd.dataFrame(to, seq, msg.payload))
		nd.armReplay(to, seq, msg)
	})
}

// route queues a frame toward its destination, or parks it until a
// route appears.
func (nd *rnode) route(f frame) {
	d := int(f.dest)
	if d == nd.ord {
		nd.frameForSelf(f)
		return
	}
	l := nd.nextHop[d]
	if l < 0 || !nd.links[l].routable {
		nd.parked = append(nd.parked, f)
		return
	}
	nd.enqueue(l, f)
}

func (nd *rnode) enqueue(l int, f frame) {
	nd.links[l].queue = append(nd.links[l].queue, f)
	nd.trySend(l)
}

// initSlots lays out link l's send concurrency: one slot per virtual
// channel on a multiplexed link, a single whole-wire slot otherwise.
// Frames of one link may then complete out of order across vchans;
// the destination's sequence window absorbs the reordering, exactly as
// it absorbs reroute duplicates.
func (nd *rnode) initSlots(l int) {
	ls := &nd.links[l]
	if n := nd.nn.Engine.VChans(l); n > 0 {
		ls.slots = make([]sendSlot, n)
		for vc := range ls.slots {
			ls.slots[vc].end = core.VChanEnd(l, vc)
		}
	} else {
		ls.slots = []sendSlot{{end: core.End(l)}}
	}
}

// trySend fills every free send slot of link l from its queue, taking
// custody of each frame until the link engine confirms its final byte
// was acknowledged.
func (nd *rnode) trySend(l int) {
	ls := &nd.links[l]
	for si := range ls.slots {
		if len(ls.queue) == 0 {
			return
		}
		if !ls.slots[si].sending {
			nd.sendOn(l, si)
		}
	}
}

// sendOn starts transmitting the head of link l's queue on slot si.
func (nd *rnode) sendOn(l, si int) {
	ls := &nd.links[l]
	sl := &ls.slots[si]
	f := ls.queue[0]
	ls.queue = ls.queue[1:]
	hold := f
	sl.inFlight = &hold
	sl.sending = true
	sl.hopWait = custodyTimeout
	nd.armHop(l, si)
	gen := nd.gen
	done := func() {
		if nd.gen != gen {
			return
		}
		nd.cancelHop(l, si)
		sl.sending = false
		sl.inFlight = nil
		nd.trySend(l)
	}
	if !nd.nn.Engine.Send(sl.end, f.encode(), done) {
		// The engine's sender is busy with a transfer the router does
		// not own — should not happen, but never wedge: back off and
		// retry.
		nd.cancelHop(l, si)
		sl.sending = false
		sl.inFlight = nil
		ls.queue = append([]frame{f}, ls.queue...)
		nd.clock().After(custodyTimeout/4, func() {
			if nd.gen == gen {
				nd.trySend(l)
			}
		})
	}
}

func (nd *rnode) armHop(l, si int) {
	sl := &nd.links[l].slots[si]
	gen := nd.gen
	sl.hopArmed = true
	sl.hopTimer = nd.clock().After(sl.hopWait, func() {
		sl.hopArmed = false
		if nd.gen != gen {
			return
		}
		nd.hopTimeout(l, si)
	})
}

func (nd *rnode) cancelHop(l, si int) {
	sl := &nd.links[l].slots[si]
	if sl.hopArmed {
		nd.clock().Cancel(sl.hopTimer)
		sl.hopArmed = false
	}
}

// cancelHops cancels every slot's custody timer on link l.
func (nd *rnode) cancelHops(l int) {
	for si := range nd.links[l].slots {
		nd.cancelHop(l, si)
	}
}

// hopTimeout fires when a frame's custody ran out.  A link the
// error-detecting layer has declared dead is torn down and its frames
// rerouted; a merely slow link gets its custody timer backed off, and
// the frame is duplicated onto the current best route if the table has
// moved away (the destination's sequence window absorbs duplicates).
func (nd *rnode) hopTimeout(l, si int) {
	sl := &nd.links[l].slots[si]
	if !sl.sending || sl.inFlight == nil {
		return
	}
	if down, _ := nd.nn.Engine.LinkDown(l); down {
		nd.linkDown(l)
		return
	}
	f := *sl.inFlight
	if f.kind == fData || f.kind == fE2EAck {
		if alt := nd.nextHop[int(f.dest)]; alt >= 0 && alt != l && nd.links[alt].routable {
			nd.enqueue(alt, f)
		}
	}
	if sl.hopWait < 8*custodyTimeout {
		sl.hopWait *= 2
	}
	nd.armHop(l, si)
}

// linkDown tears down this end of link l: abort and reset the byte
// streams, reroute every frame it held, advertise the loss, and leave
// the HELLO handshake to bring it back.  Called on the heartbeat down
// verdict and on custody timeout of a dead link; idempotent while
// down.
func (nd *rnode) linkDown(l int) {
	if !nd.r.adj[nd.ord][l].wired {
		return
	}
	ls := &nd.links[l]
	nd.cancelHops(l)
	nd.nn.Engine.ResyncLink(l)
	nd.armRecv(l) // the resync aborted the receive pumps; restart them
	var orphans []frame
	for si := range ls.slots {
		if sl := &ls.slots[si]; sl.inFlight != nil {
			orphans = append(orphans, *sl.inFlight)
		}
		ls.slots[si].inFlight = nil
		ls.slots[si].sending = false
	}
	orphans = append(orphans, ls.queue...)
	ls.queue = nil
	ls.helloSent = false
	if ls.routable {
		ls.routable = false
		nd.lsaSeq++
		nd.floodOwnLSA()
		nd.recompute()
	}
	for _, f := range orphans {
		if f.kind == fData || f.kind == fE2EAck {
			nd.route(f)
		}
	}
}

// upVerdict fires when the heartbeat hears a silent link again: greet
// the peer.  Routability waits for the peer's greeting — both ends
// reset their streams at the down verdict, so the greeting is the
// first frame of the fresh stream.
func (nd *rnode) upVerdict(l int) {
	ls := &nd.links[l]
	if !nd.r.adj[nd.ord][l].wired || ls.routable || ls.helloSent {
		return
	}
	ls.helloSent = true
	nd.enqueue(l, frame{kind: fHello, origin: byte(nd.ord), dest: byte(nd.r.adj[nd.ord][l].peer), ttl: 1})
}

// helloArrived completes the handshake: the link carries aligned
// streams again.  Reply if we have not greeted since the outage, then
// advertise the regained link and exchange full link-state databases
// so two healed partitions reconcile their views.
func (nd *rnode) helloArrived(l int) {
	ls := &nd.links[l]
	if !ls.helloSent {
		ls.helloSent = true
		nd.enqueue(l, frame{kind: fHello, origin: byte(nd.ord), dest: byte(nd.r.adj[nd.ord][l].peer), ttl: 1})
	}
	if ls.routable {
		return
	}
	ls.routable = true
	nd.lsaSeq++
	nd.floodOwnLSA()
	nd.enqueue(l, nd.ownLSA())
	for o := 0; o < len(nd.db); o++ {
		if o != nd.ord && nd.dbKnown[o] {
			nd.enqueue(l, frame{kind: fLSA, origin: byte(o), ttl: 1,
				seq: nd.db[o].seq, payload: []byte{nd.db[o].mask}})
		}
	}
	nd.recompute()
}

// ownMask is the node's current down-mask: a set bit per unroutable
// wired link.
func (nd *rnode) ownMask() byte {
	var m byte
	for l := 0; l < core.NumLinks; l++ {
		if nd.r.adj[nd.ord][l].wired && !nd.links[l].routable {
			m |= 1 << l
		}
	}
	return m
}

func (nd *rnode) ownLSA() frame {
	return frame{kind: fLSA, origin: byte(nd.ord), ttl: 1,
		seq: nd.lsaSeq, payload: []byte{nd.ownMask()}}
}

// floodOwnLSA advertises the node's current link state on every
// routable link.
func (nd *rnode) floodOwnLSA() {
	f := nd.ownLSA()
	for l := 0; l < core.NumLinks; l++ {
		if nd.r.adj[nd.ord][l].wired && nd.links[l].routable {
			nd.enqueue(l, f)
		}
	}
}

// lsaArrived merges a received advertisement, refloods news, and
// recomputes routes.
func (nd *rnode) lsaArrived(from int, f frame) {
	o := int(f.origin)
	if o == nd.ord || len(f.payload) != 1 {
		return
	}
	if nd.dbKnown[o] && f.seq <= nd.db[o].seq {
		return
	}
	nd.dbKnown[o] = true
	nd.db[o] = lsaEntry{seq: f.seq, mask: f.payload[0]}
	for l := 0; l < core.NumLinks; l++ {
		if l != from && nd.r.adj[nd.ord][l].wired && nd.links[l].routable {
			nd.enqueue(l, frame{kind: fLSA, origin: f.origin, ttl: 1, seq: f.seq,
				payload: []byte{f.payload[0]}})
		}
	}
	nd.recompute()
}

// edgeUp reports whether the directed link l out of node x is up in
// this node's view of the world.
func (nd *rnode) edgeUp(x, l int) bool {
	if x == nd.ord {
		return nd.links[l].routable
	}
	return nd.dbKnown[x] && nd.db[x].mask&(1<<l) == 0
}

// recompute rebuilds the next-hop table by breadth-first search over
// the agreed topology: an edge exists when both of its ends are up in
// this node's view.  Ties break to the lower node ordinal and lower
// link index, a rule independent of execution order.  A changed table
// publishes a RouteChange event and retries parked frames.
func (nd *rnode) recompute() {
	n := len(nd.r.nodes)
	next := make([]int, n)
	for i := range next {
		next[i] = -1
	}
	visited := make([]bool, n)
	visited[nd.ord] = true
	type hop struct{ node, first int }
	var q []hop
	step := func(x, first int) {
		for l := 0; l < core.NumLinks; l++ {
			e := nd.r.adj[x][l]
			if !e.wired || visited[e.peer] {
				continue
			}
			if !nd.edgeUp(x, l) || !nd.edgeUp(e.peer, e.peerLink) {
				continue
			}
			visited[e.peer] = true
			f := first
			if f < 0 {
				f = l
			}
			next[e.peer] = f
			q = append(q, hop{e.peer, f})
		}
	}
	step(nd.ord, -1)
	for len(q) > 0 {
		h := q[0]
		q = q[1:]
		step(h.node, h.first)
	}
	changed := false
	reach := 0
	for i := range next {
		if next[i] != nd.nextHop[i] {
			changed = true
		}
		if next[i] >= 0 {
			reach++
		}
	}
	nd.nextHop = next
	nd.reach = reach
	if !changed {
		return
	}
	if nd.nn.ProbeBus() != nil {
		nd.nn.Publish(probe.Event{Kind: probe.RouteChange, Arg: int64(reach)})
	}
	parked := nd.parked
	nd.parked = nil
	for _, f := range parked {
		nd.route(f)
	}
}

// armRecv (re)starts the receive pumps on link l, one on each end its
// send slots use — the whole wire, or each virtual channel of a
// multiplexed link, every vchan carrying an independent frame stream.
func (nd *rnode) armRecv(l int) {
	for _, sl := range nd.links[l].slots {
		nd.recvFrame(l, sl.end)
	}
}

// recvFrame is one end's receive pump: read a header, then the payload,
// dispatch, repeat.  A frame that fails validation is dropped; the pump
// realigns at the next header boundary, and the end-to-end replay layer
// absorbs whatever was lost.
func (nd *rnode) recvFrame(l int, c core.End) {
	gen := nd.gen
	nd.nn.Engine.Recv(c, headerLen, func(hdr []byte) {
		if nd.gen != gen {
			return
		}
		f, plen, err := parseHeader(hdr, len(nd.r.nodes))
		if err != nil {
			nd.recvFrame(l, c)
			return
		}
		if plen == 0 {
			nd.handleFrame(l, f)
			if nd.gen == gen {
				nd.recvFrame(l, c)
			}
			return
		}
		nd.nn.Engine.Recv(c, plen, func(payload []byte) {
			if nd.gen != gen {
				return
			}
			f.payload = payload
			nd.handleFrame(l, f)
			if nd.gen == gen {
				nd.recvFrame(l, c)
			}
		})
	})
}

// handleFrame dispatches one received frame.
func (nd *rnode) handleFrame(l int, f frame) {
	switch f.kind {
	case fHello:
		nd.helloArrived(l)
	case fLSA:
		nd.lsaArrived(l, f)
	case fData, fE2EAck:
		if int(f.dest) == nd.ord {
			nd.frameForSelf(f)
			return
		}
		if f.ttl <= 1 {
			return // hop budget spent: drop; the origin replays
		}
		f.ttl--
		nd.route(f)
	}
}

// frameForSelf consumes a DATA or E2EACK frame addressed to this node.
func (nd *rnode) frameForSelf(f frame) {
	switch f.kind {
	case fData:
		nd.deliverLocal(f)
	case fE2EAck:
		// origin field is the acker — the destination of our message.
		key := pendKey{int(f.origin), f.seq}
		if msg, ok := nd.pending[key]; ok {
			if msg.armed {
				nd.clock().Cancel(msg.timer)
				msg.armed = false
			}
			delete(nd.pending, key)
		}
	}
}

// deliverLocal runs the destination's exactly-once in-order window:
// acknowledge every receipt, deliver contiguously, buffer gaps.
func (nd *rnode) deliverLocal(f frame) {
	o := int(f.origin)
	if o != nd.ord {
		nd.route(frame{kind: fE2EAck, origin: byte(nd.ord), dest: f.origin,
			ttl: frameTTL, seq: f.seq})
	}
	if f.seq < nd.expect[o] {
		return // duplicate of an already-delivered message
	}
	key := oooKey{o, f.seq}
	if _, dup := nd.ooo[key]; dup {
		return
	}
	nd.ooo[key] = append([]byte(nil), f.payload...)
	for {
		k := oooKey{o, nd.expect[o]}
		p, ok := nd.ooo[k]
		if !ok {
			break
		}
		delete(nd.ooo, k)
		nd.delivered = append(nd.delivered, Delivery{
			Origin: nd.r.nodes[o].nn.Name, Dest: nd.nn.Name,
			Seq: nd.expect[o], At: nd.clock().Now(), Payload: p,
		})
		if nd.nn.ProbeBus() != nil {
			nd.nn.Publish(probe.Event{Kind: probe.RouteDeliver,
				Arg: int64(nd.expect[o]), Bytes: len(p)})
		}
		nd.expect[o]++
	}
}

// crash wipes the node's volatile state at a halt.  The link engine's
// wires were already severed by the fault layer; peers will notice the
// silence and tear down their ends.
func (nd *rnode) crash() {
	nd.gen++
	nd.alive = false
	for l := range nd.links {
		nd.cancelHops(l)
		nd.links[l] = linkState{}
	}
	for _, k := range nd.sortedPending() {
		if msg := nd.pending[k]; msg.armed {
			nd.clock().Cancel(msg.timer)
			msg.armed = false
		}
	}
	nd.parked = nil
	nd.dbKnown = make([]bool, len(nd.r.nodes))
	nd.db = make([]lsaEntry, len(nd.r.nodes))
	for i := range nd.nextHop {
		nd.nextHop[i] = -1
	}
	nd.reach = 0
}

// boot rejoins the network at a restart: reset every link stream to
// power-on state (peers did the same at their down verdicts), restart
// the receive pumps, presume the world up again, and replay the stable
// store's unacknowledged messages.  Links become routable only through
// the HELLO handshake, driven by the peers' heartbeat up verdicts.
func (nd *rnode) boot() {
	nd.gen++
	nd.alive = true
	nd.lsaSeq++ // boot counter: post-outage advertisements supersede stale ones
	for i := range nd.dbKnown {
		nd.dbKnown[i] = true
		nd.db[i] = lsaEntry{}
	}
	for l := 0; l < core.NumLinks; l++ {
		if !nd.r.adj[nd.ord][l].wired {
			continue
		}
		nd.nn.Engine.ResyncLink(l)
		nd.links[l] = linkState{}
		nd.initSlots(l)
		nd.armRecv(l)
	}
	nd.recompute()
	for _, k := range nd.sortedPending() {
		msg := nd.pending[k]
		msg.attempts = 0
		nd.route(nd.dataFrame(k.to, k.seq, msg.payload))
		nd.armReplay(k.to, k.seq, msg)
	}
}

// sortedPending returns the replay-buffer keys in deterministic order.
func (nd *rnode) sortedPending() []pendKey {
	keys := make([]pendKey, 0, len(nd.pending))
	for k := range nd.pending {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].to != keys[j].to {
			return keys[i].to < keys[j].to
		}
		return keys[i].seq < keys[j].seq
	})
	return keys
}

// Stop cancels the router's perpetual timers — the end-to-end replay
// backoffs — so a run can quiesce.  Call it from the driving goroutine
// between Run and the draining Continue, together with the system's
// StopHeartbeats.  In-flight frames keep moving and deliveries keep
// landing during the drain; only re-injection stops.
func (r *Router) Stop() {
	for _, nd := range r.nodes {
		for _, k := range nd.sortedPending() {
			if msg := nd.pending[k]; msg.armed {
				nd.clock().Cancel(msg.timer)
				msg.armed = false
			}
		}
	}
}

// Deliveries returns every in-order delivery recorded at the named
// node, in delivery order.  Read after the run.
func (r *Router) Deliveries(node string) []Delivery {
	nd, ok := r.byName[node]
	if !ok {
		return nil
	}
	return nd.delivered
}

// AllDeliveries returns every delivery in the system, grouped by
// destination in node-creation order — a deterministic serialisation
// of the run's outcome.
func (r *Router) AllDeliveries() []Delivery {
	var out []Delivery
	for _, nd := range r.nodes {
		out = append(out, nd.delivered...)
	}
	return out
}

// Injected returns the injection records in SendAt order.
func (r *Router) Injected() []*Injected {
	return r.injected
}

// Undelivered counts accepted messages that never reached their
// destination's in-order ledger.  Read after the run.
func (r *Router) Undelivered() int {
	type dk struct {
		from, to string
		seq      uint32
	}
	got := make(map[dk]bool)
	for _, nd := range r.nodes {
		for _, d := range nd.delivered {
			got[dk{d.Origin, d.Dest, d.Seq}] = true
		}
	}
	missing := 0
	for _, in := range r.injected {
		if in.Accepted && !got[dk{in.From, in.To, in.Seq}] {
			missing++
		}
	}
	return missing
}
