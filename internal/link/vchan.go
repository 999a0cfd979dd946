// Virtual-channel multiplexing — many logical channels per wire.
//
// The paper's links carry exactly one occam channel in each direction,
// so every extra logical conversation between two nodes costs a
// physical wire.  This layer multiplexes N logical channels (virtual
// channels, "vchans") onto one physical link, the direction the
// transputer's successors took: messages are cut into small chunks,
// each prefixed with a two-byte unit header, and the chunks of
// different vchans interleave on the wire.
//
// Framing.  Every unit on the byte stream is a two-byte header
// followed by an optional payload:
//
//	data chunk:   [vc, n, payload×n]   vc in 0..N-1, n in 1..maxChunk
//	credit frame: [0x80|vc, n]         grants the sender n more bytes
//
// Fairness.  A round-robin cursor walks the vchans; each eligible
// vchan (message pending, credit available) sends at most one chunk
// per turn, so a long message cannot monopolise the wire.  Credit
// frames for the reverse direction are sent ahead of data — they are
// tiny and keep the peer's senders unblocked.
//
// Flow control.  Each sender starts with VCWindow bytes of credit per
// vchan and spends it as chunks go out; the receiver holds undelivered
// bytes in a per-vchan staging buffer and grants credit back only as a
// consumer drains them.  Staging occupancy is therefore bounded by the
// window, and a vchan whose consumer stalls blocks only itself — the
// other vchans keep streaming.
//
// The multiplexer sits on the stream layer's half pair: chunks ride
// the ordinary data/acknowledge protocol (and the error-detecting mode
// when enabled), one unit in flight at a time, so everything below the
// seam — wire timing, reliability, heartbeats, fault injection — works
// unchanged.  Both ends of a link must enable the same vchan count
// before any traffic flows.
package link

import (
	"transputer/internal/core"
	"transputer/internal/probe"
)

const (
	// MaxVChans bounds the vchan count of one link; the unit header
	// spends 7 bits on the vchan id but 32 is plenty and keeps the
	// fairness scan cheap.
	MaxVChans = 32
	// maxChunk is the largest data-chunk payload: small enough that
	// interleaving is fine-grained, large enough that the two-byte
	// header overhead stays modest.
	maxChunk = 16
	// VCWindow is the per-vchan initial credit, and so the bound on
	// the receiver's per-vchan staging buffer.
	VCWindow = 64
	// creditFlag marks a unit header as a credit frame.
	creditFlag = 0x80
)

// MuxStats counts one direction of a link's multiplexer activity.
type MuxStats struct {
	// Chunks and ChunkBytes count data chunks sent and their payload.
	Chunks     uint64
	ChunkBytes uint64
	// Credits counts credit frames sent.
	Credits uint64
}

// vcOut is the sending side of one virtual channel.
type vcOut struct {
	active bool
	buf    []byte
	queued int // bytes handed to the wire (chunked out)
	acked  int // bytes whose chunk completed (final byte acknowledged)
	done   func()
	credit int
	flow   uint64 // probe flow identity of the message in progress
}

// vcIn is the receiving side of one virtual channel.
type vcIn struct {
	active  bool
	buf     []byte
	got     int
	done    func([]byte)
	armed   func() // alternative-input readiness callback
	pending []byte // arrived, not yet consumed (bounded by VCWindow)
	flow    uint64 // flow carried by the last chunk delivered here
}

// Mux multiplexes N virtual channels over one direction pair of a
// physical link.  It owns the link's halves: while a mux is enabled,
// plain transfers and raw streams on the link are refused.
type Mux struct {
	e    *Engine
	link int
	n    int

	out []vcOut
	in  []vcIn

	rr     int   // round-robin cursor for the next data chunk
	owed   []int // per-vchan credit not yet granted back
	grants []int // vchans owed a credit frame, in consumption order
	txBusy bool  // a unit is on the wire

	hdr   [2]byte // unit header being received
	stats MuxStats
}

// EnableVChans multiplexes n virtual channels over link l, claiming
// the link's byte streams.  Both ends must enable the same count
// before any traffic flows.  The caller passes n in [2, MaxVChans];
// network.System.EnableVChans checks it.
func (e *Engine) EnableVChans(l, n int) {
	if l < 0 || l >= core.NumLinks {
		return
	}
	m := &Mux{e: e, link: l, n: n,
		out:  make([]vcOut, n),
		in:   make([]vcIn, n),
		owed: make([]int, n),
	}
	for vc := range m.out {
		m.out[vc].credit = VCWindow
	}
	e.mux[l] = m
	m.armHeader()
}

// VChans reports how many virtual channels are multiplexed over link
// l; zero when the link carries a single conversation.
func (e *Engine) VChans(l int) int {
	if l < 0 || l >= core.NumLinks || e.mux[l] == nil {
		return 0
	}
	return e.mux[l].n
}

// VChanStats returns the send-side multiplexer counters of link l.
func (e *Engine) VChanStats(l int) (MuxStats, bool) {
	if l < 0 || l >= core.NumLinks || e.mux[l] == nil {
		return MuxStats{}, false
	}
	return e.mux[l].stats, true
}

// send starts a message of data, which the mux keeps, on vchan vc;
// done fires when the final chunk's last byte has been acknowledged.
// One message per vchan at a time: false when that vchan's sender is
// busy.
func (m *Mux) send(vc int, data []byte, done func()) bool {
	s := &m.out[vc]
	if s.active {
		return false
	}
	if len(data) == 0 {
		if done != nil {
			done()
		}
		return true
	}
	s.active = true
	s.buf = data
	s.queued = 0
	s.acked = 0
	s.done = done
	m.pump()
	return true
}

// recv receives exactly n bytes from vchan vc, handing the filled
// buffer to done, which may fire synchronously when staged bytes
// already satisfy the request.  One outstanding receive per vchan:
// false when that vchan's receiver is busy.
func (m *Mux) recv(vc, n int, done func([]byte)) bool {
	r := &m.in[vc]
	if r.active {
		return false
	}
	if n <= 0 {
		if done != nil {
			done(nil)
		}
		return true
	}
	r.active = true
	r.buf = make([]byte, n)
	r.got = 0
	r.done = done
	m.deliver(vc)
	return true
}

// enable arms alternative-input readiness signalling on vchan vc: ready
// fires (once) when staged bytes appear.  Returns true at once when
// bytes are already staged.
func (m *Mux) enable(vc int, ready func()) bool {
	r := &m.in[vc]
	if len(r.pending) > 0 {
		return true
	}
	r.armed = ready
	return false
}

// disable disarms signalling on vchan vc and reports staged data.
func (m *Mux) disable(vc int) bool {
	r := &m.in[vc]
	r.armed = nil
	return len(r.pending) > 0
}

// emitVC publishes a vchan probe event.  Cycle-stamp-free, like
// FlowArrive: mux activity is clocked by link completions, and the
// machine's cycle count at those instants depends on simulator
// batching, not on architecture.
func (m *Mux) emitVC(kind probe.Kind, vc, bytes int, flow uint64) {
	e := m.e
	if e.bus == nil {
		return
	}
	e.bus.Publish(probe.Event{Kind: kind, Link: m.link, Arg: int64(vc),
		Bytes: bytes, Flow: flow, Time: e.k.Now(), Node: e.m.Name()})
}

// pump puts the next unit on the wire if it is free: credit frames
// first, then one data chunk from the round-robin scan.
func (m *Mux) pump() {
	if m.txBusy {
		return
	}
	if len(m.grants) > 0 {
		vc := m.grants[0]
		m.grants = m.grants[1:]
		n := m.owed[vc]
		m.owed[vc] = 0
		m.stats.Credits++
		m.emitVC(probe.VChanCredit, vc, n, 0)
		m.xmit([]byte{creditFlag | byte(vc), byte(n)}, 0, nil)
		return
	}
	for i := 0; i < m.n; i++ {
		vc := (m.rr + i) % m.n
		s := &m.out[vc]
		if !s.active || s.credit == 0 || s.queued == len(s.buf) {
			continue
		}
		m.rr = (vc + 1) % m.n
		chunk := len(s.buf) - s.queued
		if chunk > maxChunk {
			chunk = maxChunk
		}
		if chunk > s.credit {
			chunk = s.credit
		}
		s.credit -= chunk
		unit := make([]byte, 2+chunk)
		unit[0] = byte(vc)
		unit[1] = byte(chunk)
		copy(unit[2:], s.buf[s.queued:s.queued+chunk])
		s.queued += chunk
		m.stats.Chunks++
		m.stats.ChunkBytes += uint64(chunk)
		m.emitVC(probe.VChanChunk, vc, chunk, s.flow)
		m.xmit(unit, s.flow, func() { m.chunkAcked(vc, chunk) })
		return
	}
}

// xmit puts one unit on the wire through the link's ordinary sender;
// done (then the next pump) runs when the unit's final byte has been
// acknowledged.
func (m *Mux) xmit(unit []byte, flow uint64, done func()) {
	m.txBusy = true
	o := m.e.outs[m.link]
	o.flow = flow
	o.start(unit, 0, len(unit), func() {
		m.txBusy = false
		if done != nil {
			done()
		}
		m.pump()
	})
}

// chunkAcked credits a completed chunk to its message and fires the
// message completion when the last chunk is in.
func (m *Mux) chunkAcked(vc, n int) {
	s := &m.out[vc]
	s.acked += n
	if s.acked == len(s.buf) {
		s.active = false
		s.buf = nil
		done := s.done
		s.done = nil
		if done != nil {
			done()
		}
	}
}

// armHeader starts the perpetual receive pump: two header bytes, then
// the unit's payload, then the next header.  Purely event-driven — an
// armed pump with no traffic never blocks quiescence.
func (m *Mux) armHeader() {
	in := m.e.ins[m.link]
	in.start(m.hdr[:], 0, 2, m.headerDone)
}

func (m *Mux) headerDone() {
	b0, n := m.hdr[0], int(m.hdr[1])
	if b0&creditFlag != 0 {
		vc := int(b0 &^ creditFlag)
		if vc < m.n {
			m.out[vc].credit += n
		}
		m.armHeader()
		m.pump() // fresh credit may unblock a sender
		return
	}
	vc := int(b0)
	buf := make([]byte, n)
	in := m.e.ins[m.link]
	in.start(buf, 0, n, func() { m.chunkArrived(vc, buf) })
}

// chunkArrived stages a data chunk's payload on its vchan and tries to
// deliver; the flow the chunk's packets carried is recorded so the
// consumer-side events join the sender's flow.
func (m *Mux) chunkArrived(vc int, payload []byte) {
	if vc < m.n {
		r := &m.in[vc]
		r.flow = m.e.ins[m.link].flow
		r.pending = append(r.pending, payload...)
		m.deliver(vc)
	}
	m.armHeader()
}

// deliver moves staged bytes to the vchan's consumer, grants the
// credit back, and completes the receive when it is satisfied.
func (m *Mux) deliver(vc int) {
	r := &m.in[vc]
	if r.armed != nil && len(r.pending) > 0 {
		ready := r.armed
		r.armed = nil
		ready()
	}
	if !r.active || len(r.pending) == 0 {
		return
	}
	take := len(r.pending)
	if rem := len(r.buf) - r.got; take > rem {
		take = rem
	}
	copy(r.buf[r.got:], r.pending[:take])
	r.pending = r.pending[take:]
	r.got += take
	m.grant(vc, take)
	if r.got == len(r.buf) {
		r.active = false
		buf := r.buf
		r.buf = nil
		done := r.done
		r.done = nil
		m.emitVC(probe.VChanDeliver, vc, len(buf), r.flow)
		if done != nil {
			done(buf)
		}
	}
}

// grant queues a credit frame returning n consumed bytes to the
// peer's sender for vchan vc.
func (m *Mux) grant(vc, n int) {
	if n == 0 {
		return
	}
	if m.owed[vc] == 0 {
		m.grants = append(m.grants, vc)
	}
	m.owed[vc] += n
	m.pump()
}

// resync resets the multiplexer to its power-on state (fresh credit,
// nothing staged, nothing owed) and re-arms the receive pump; part of
// the link resynchronisation handshake (see Engine.ResyncLink).
func (m *Mux) resync() {
	for vc := range m.out {
		m.out[vc] = vcOut{credit: VCWindow}
		m.in[vc] = vcIn{}
		m.owed[vc] = 0
	}
	m.grants = nil
	m.rr = 0
	m.txBusy = false
	m.armHeader()
}
