package core

// MemOf exposes a machine's memory array to the external tests: the
// differential checker compares two whole memories after every batch,
// which byte-at-a-time reads would make the cost of the test.
func MemOf(m *Machine) []byte { return m.mem }

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
