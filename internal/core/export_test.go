package core

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
