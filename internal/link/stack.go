// The protocol stack.
//
// The package is one engine type layered internally, not five objects
// wired together at run time — layering by file keeps the hot paths
// free of indirection while each layer stays narrow and independently
// testable.  Every layer below is a group of *Engine methods; the only
// interfaces are the ones the machine consumes, asserted at the bottom.
//
//	┌─────────────────────────────────────────────────────┐
//	│ core.External / VChanExternal   (machine transfers) │
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

var (
	_ core.External      = (*Engine)(nil)
	_ core.FlowExternal  = (*Engine)(nil)
	_ core.VChanExternal = (*Engine)(nil)
)
