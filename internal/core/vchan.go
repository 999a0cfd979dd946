package core

// Virtual channels (see internal/link/vchan.go).
//
// The paper's channel-address decode gives each link exactly one
// channel word per direction.  Virtual channels extend the decode: the
// network layer maps additional channel words — placed by occam
// programs at the VC%dOUT/VC%dIN convention addresses, or anywhere
// else outside implemented memory — onto the ends (VChanEnd) of a
// multiplexed link.  "A process may be written and compiled without
// knowledge of where its channels are connected" holds unchanged: the
// same input/output message instructions work on an internal word, a
// link word or a vchan word, and one transfer path serves the last two
// (externalTransfer).
//
// The mapping lives in a nil-until-used map keyed on the masked
// channel address, so machines without vchans pay one nil check per
// external-channel decode and nothing more.

// VChanMax bounds the vchan words addressable per direction by the
// convention layout (matching link.MaxVChans).
const VChanMax = 32

// vchanWords is the word offset of the convention vchan channel-word
// block from the top of the address space: 4 links × VChanMax vchans ×
// 2 directions, placed at the most positive addresses so they cannot
// collide with the reserved words at MOSTNEG and sit far above any
// realistic memory size.  The words are never dereferenced — like link
// channel words under the external decode, they are pure names.
const vchanWords = NumLinks * VChanMax * 2

func (m *Machine) vchanBase() uint64 {
	return (m.mask + 1 - uint64(vchanWords*m.bpw)) & m.mask
}

// VChanOutAddr returns the convention channel address for output on
// virtual channel vc of link l.
func (m *Machine) VChanOutAddr(l, vc int) uint64 {
	return m.addrOf(m.vchanBase() + uint64((l*VChanMax+vc)*m.bpw))
}

// VChanInAddr returns the convention channel address for input on
// virtual channel vc of link l.
func (m *Machine) VChanInAddr(l, vc int) uint64 {
	return m.addrOf(m.vchanBase() + uint64(((NumLinks+l)*VChanMax+vc)*m.bpw))
}

// MapVChan maps the channel word at addr onto virtual channel vc of
// link l, in the given direction.  The network layer calls this for
// each vchan of a multiplexed link; any address may be used as long as
// the program treats it purely as a channel name.
func (m *Machine) MapVChan(addr uint64, l, vc int, out bool) {
	if m.vchans == nil {
		m.vchans = make(map[uint64]*extXfer)
	}
	m.vchans[addr&m.mask] = &extXfer{end: VChanEnd(l, vc), output: out}
}
