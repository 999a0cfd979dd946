package core

import (
	"maps"
	"slices"
	"unsafe"
)

// MemOf returns a machine's whole memory, all MemBytes of it, zero past
// the backing, for the external tests: the differential checker
// compares two whole memories after every batch, which byte-at-a-time
// reads would make the cost of the test.
func MemOf(m *Machine) []byte {
	mem := make([]byte, m.cfg.MemBytes)
	copy(mem, m.mem)
	return mem
}

// BackFully grows a machine's backing over all of MemBytes, as New
// allocated it before memory was backed lazily: the differential
// checkers run their reference machine so.
func BackFully(m *Machine) { m.resize(uint64(m.cfg.MemBytes)) }

// BackedBytes is the length of a machine's backing.
func BackedBytes(m *Machine) int { return len(m.mem) }

// ReachableBlocks counts the decoded blocks the machine keeps alive:
// everything reachable from the lookup map and the cursor over chain
// edges, invalidated blocks included.
func ReachableBlocks(m *Machine) int {
	seen := map[*block]bool{}
	var todo []*block
	if m.bc != nil {
		for _, b := range m.bc.blocks {
			todo = append(todo, b)
		}
	}
	todo = append(todo, m.curBlock)
	for len(todo) > 0 {
		b := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		if b != nil && !seen[b] {
			seen[b] = true
			todo = append(todo, b.succ[0], b.succ[1])
		}
	}
	return len(seen)
}

// MaxCodes is the cap on a store's entries.
const MaxCodes = maxCodes

// BlockSize is the size of a machine's handle on decoded code.
const BlockSize = int(unsafe.Sizeof(block{}))

// CachedCode counts the blocks in a machine's lookup map and the
// records they hold.
func CachedCode(m *Machine) (blocks, recs int) {
	if m.bc != nil {
		for _, b := range m.bc.blocks {
			blocks++
			recs += len(b.recs)
		}
	}
	return blocks, recs
}

// CachedRanges lists the address ranges [start, end) of the blocks in
// a machine's lookup map, in address order.
func CachedRanges(m *Machine) [][2]uint64 {
	var rs [][2]uint64
	if m.bc != nil {
		for _, start := range slices.Sorted(maps.Keys(m.bc.blocks)) {
			b := m.bc.blocks[start]
			rs = append(rs, [2]uint64{start, start + b.endOff - b.startOff})
		}
	}
	return rs
}

// StoreOf is the store a machine decodes into, nil before its first
// decode when it was built without one.
func StoreOf(m *Machine) *CodeStore { return m.store }

// StoreCounts counts the codes a store holds and their records.
func StoreCounts(st *CodeStore) (codes, recs int) {
	for i := range st.buckets {
		for c := st.buckets[i].Load(); c != nil; c = c.next {
			codes++
			recs += len(c.recs)
		}
	}
	return codes, recs
}

// SharesCode reports whether two machines hold a block over the same
// code.
func SharesCode(a, b *Machine) bool {
	if a.bc == nil || b.bc == nil {
		return false
	}
	for _, x := range a.bc.blocks {
		for _, y := range b.bc.blocks {
			if x.code == y.code {
				return true
			}
		}
	}
	return false
}
