// Package link implements the inter-transputer link protocol of "The
// Transputer" (Whitby-Strevens, ISCA 1985), section 2.3 and figure 1.
//
// A link between two transputers provides a pair of occam channels, one
// in each direction, carried on two one-directional signal lines.  Each
// data byte is transmitted as a start bit, a one bit, eight data bits
// and a stop bit (11 bit times); an acknowledge is a start bit followed
// by a zero bit (2 bit times).  Data bytes and acknowledges are
// multiplexed down each signal line.
//
// An acknowledge is transmitted as soon as reception of a data byte
// starts — if there is a process waiting for it and there is room to
// buffer another — so transmission may be continuous.  A single byte
// buffer in each receiver ensures no information is lost: when no
// process is waiting, the byte is buffered and the acknowledge is
// withheld until a process inputs it.
//
// The package is organised as an explicit protocol stack, one layer per
// file (see stack.go for the layer diagram):
//
//	wire.go      wire scheduler: packet timing, ack priority, fault hooks
//	xfer.go      byte transfer: the paper's data/acknowledge protocol
//	reliable.go  reliability: CRC-8 trailer, sequence bit, NAK, retransmit
//	heartbeat.go liveness: beats on idle wires, per-link verdicts
//	stream.go    stream API: raw byte streams for the routing layer
//	vchan.go     virtual channels: N logical channels per physical wire
//	engine.go    the Engine tying the layers to a machine's four links
package link

// Protocol constants (paper, 2.3/2.3.1): the standard transmission rate
// is 10 MHz, about 1 Mbyte/s in each direction of each link.
const (
	// BitNs is one bit time at the standard 10 Mbit/s rate.
	BitNs = 100
	// DataBits is the length of a data packet: start bit, one bit,
	// eight data bits, stop bit.
	DataBits = 11
	// AckBits is the length of an acknowledge packet: start bit, zero
	// bit.
	AckBits = 2
)

// Error-detecting mode packet lengths (see reliable.go).  The mode is
// opt-in; the paper-faithful frames above remain the default.
const (
	// RelDataBits is an error-detecting data packet: the 11-bit frame
	// plus a sequence bit and an 8-bit CRC trailer.
	RelDataBits = DataBits + 1 + 8
	// RelAckBits is an error-detecting acknowledge: the 2-bit frame plus
	// the sequence bit being acknowledged.
	RelAckBits = AckBits + 1
	// NakBits is a negative acknowledge: start bit, zero bit, one bit —
	// only distinguishable from an acknowledge in error-detecting mode.
	NakBits = 3
	// BeatBits is a liveness probe (see heartbeat.go): start bit, two
	// one bits, stop bit, sent on idle wires so a severed link or a
	// dead peer is detected in bounded time instead of only when
	// traffic stalls.
	BeatBits = 4
)

// WireStats counts traffic on one signal line.  DataBytes is goodput:
// first transmissions only.  Retransmits counts data packets resent by
// the error-detecting mode (timeout or NAK), so DataBytes+Retransmits
// is the total data-packet count the wire carried.
type WireStats struct {
	DataBytes   uint64
	Retransmits uint64
	Acks        uint64
	Naks        uint64
	Beats       uint64
	BusyNs      int64
}
