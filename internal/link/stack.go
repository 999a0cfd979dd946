// The protocol stack.
//
// The package is one engine type layered internally, not five objects
// wired together at run time — layering by file keeps the hot paths
// free of indirection while each layer stays narrow and independently
// testable.  Every layer below is a group of *Engine methods; the only
// interface is the one the machine consumes, asserted at the bottom.
// Its methods, and the stream layer's Send and Recv, take a core.End —
// a link, or one vchan of a multiplexed link — and dispatch on whether
// the link is multiplexed, so a plain link and a vchan share one entry
// point per operation.
//
//	┌─────────────────────────────────────────────────────┐
//	│ core.External engine.go  machine transfers, by End  │
//	├─────────────────────────────────────────────────────┤
//	│ multiplexer   vchan.go   N logical chans per wire   │
//	├─────────────────────────────────────────────────────┤
//	│ streams       stream.go  raw byte streams, resync   │
//	├─────────────────────────────────────────────────────┤
//	│ liveness      heartbeat.go  beats, per-link verdict │
//	├─────────────────────────────────────────────────────┤
//	│ reliability   reliable.go  CRC-8/seq/NAK/retransmit │
//	├─────────────────────────────────────────────────────┤
//	│ transfer      xfer.go    data/ack byte protocol     │
//	├─────────────────────────────────────────────────────┤
//	│ fabric        wire.go    packet timing, faults, cut │
//	└─────────────────────────────────────────────────────┘
package link

import "transputer/internal/core"

var _ core.External = (*Engine)(nil)
