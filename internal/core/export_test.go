package core

// MemOf exposes a machine's memory array to the external tests: the
// differential checker compares two whole memories after every batch,
// which byte-at-a-time reads would make the cost of the test.
func MemOf(m *Machine) []byte { return m.mem }
