// Wire format of the routing layer.
//
// A frame is a fixed 10-byte header followed by a payload, carried as
// plain bytes over a link's reliable byte stream:
//
//	kind(1) origin(1) dest(1) ttl(1) seq(4 LE) len(2 LE) payload...
//
// origin and dest are node ordinals (the creation order of the
// system's transputers), which caps a routed network at MaxNodes —
// comfortably above anything the simulator runs — and len is at most
// MaxPayload.  seq is the end-to-end stream sequence for DATA and
// E2EACK frames and the advertisement generation for LSA frames.
package route

import "fmt"

// The frame's caps: Attach refuses a system of more than MaxNodes
// transputers, and SendAt a message of more than MaxPayload bytes.
const (
	MaxNodes   = 256
	MaxPayload = 1024
)

// Frame kinds.  Zero is deliberately invalid so a stray byte is likely
// to surface as a bad frame instead of a plausible one.
const (
	fData   = 1 // application payload, origin→dest, exactly-once in order
	fE2EAck = 2 // end-to-end acknowledge: origin = acker, dest = message origin
	fLSA    = 3 // link-state advertisement: origin = advertiser, payload = down-mask
	fKinds  = 4
)

// headerLen is the fixed frame header size.
const headerLen = 10

// frame is one routed message in memory.
type frame struct {
	kind    byte
	origin  byte
	dest    byte
	ttl     byte
	seq     uint32
	payload []byte
}

// encode renders the frame as header + payload bytes.
func (f frame) encode() []byte {
	b := make([]byte, headerLen+len(f.payload))
	b[0] = f.kind
	b[1] = f.origin
	b[2] = f.dest
	b[3] = f.ttl
	b[4] = byte(f.seq)
	b[5] = byte(f.seq >> 8)
	b[6] = byte(f.seq >> 16)
	b[7] = byte(f.seq >> 24)
	b[8] = byte(len(f.payload))
	b[9] = byte(len(f.payload) >> 8)
	copy(b[headerLen:], f.payload)
	return b
}

// parseHeader decodes a header, reporting the payload length still to
// be read.  An error means the bytes are not a frame header; the
// caller drops them.
func parseHeader(b []byte, nodes int) (f frame, plen int, err error) {
	if len(b) != headerLen {
		return frame{}, 0, fmt.Errorf("route: short header (%d bytes)", len(b))
	}
	f.kind = b[0]
	if f.kind == 0 || f.kind >= fKinds {
		return frame{}, 0, fmt.Errorf("route: bad frame kind %d", f.kind)
	}
	f.origin = b[1]
	f.dest = b[2]
	if int(f.origin) >= nodes || int(f.dest) >= nodes {
		return frame{}, 0, fmt.Errorf("route: frame names node %d/%d of %d", f.origin, f.dest, nodes)
	}
	f.ttl = b[3]
	f.seq = uint32(b[4]) | uint32(b[5])<<8 | uint32(b[6])<<16 | uint32(b[7])<<24
	plen = int(b[8]) | int(b[9])<<8
	if plen > MaxPayload {
		return frame{}, 0, fmt.Errorf("route: frame payload %d exceeds cap", plen)
	}
	return f, plen, nil
}
