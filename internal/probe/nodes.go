package probe

// nodeTable numbers node names: each name once, in order of first
// sight, so that a consumer keeps a small index where it would keep a
// string.  The timeline, the metrics and the flow table each have one.
type nodeTable struct {
	names []string
	index map[string]int
	// last is the number the previous call returned.  Consecutive
	// events mostly come from one node, and the next node is mostly the
	// one numbered next: the network merges same-instant events in node
	// order, and names are numbered as first seen.
	last int
}

// intern returns the name's number, adding the name at first sight.
func (n *nodeTable) intern(name string) int {
	if i := n.last; i < len(n.names) && n.names[i] == name {
		return i
	}
	next := n.last + 1
	if next >= len(n.names) {
		next = 0
	}
	if next < len(n.names) && n.names[next] == name {
		n.last = next
		return next
	}
	i, ok := n.index[name]
	if !ok {
		if n.index == nil {
			n.index = map[string]int{}
		}
		i = len(n.names)
		n.names = append(n.names, name)
		n.index[name] = i
	}
	n.last = i
	return i
}

// lookup returns the name's number, if it has one.
func (n *nodeTable) lookup(name string) (int, bool) {
	i, ok := n.index[name]
	return i, ok
}
