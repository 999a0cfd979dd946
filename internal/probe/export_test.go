package probe

import "unsafe"

// StoredBytes returns the bytes of record the timeline holds, the
// unused tails of its chunks not counted.
func StoredBytes(t *Timeline) int {
	n := 0
	for _, c := range t.chunks {
		n += len(c)
	}
	return n
}

// ChunkBytes is the size of the largest chunk of records.
const ChunkBytes = chunkBytes

// FlowTableBytes returns the bytes a flow table holds for its flows,
// counted from capacities: its record chunks, the unused tails included,
// its dense index rows and sparse entries, and its cold parts.
func FlowTableBytes(t *FlowTable) int {
	const header = int(unsafe.Sizeof([]byte(nil)))
	n := (cap(t.chunks)+cap(t.dense))*header + cap(t.cold)*int(unsafe.Sizeof(flowCold{}))
	for _, c := range t.chunks {
		n += cap(c) * int(unsafe.Sizeof(flowRec{}))
	}
	for _, row := range t.dense {
		n += cap(row) * int(unsafe.Sizeof(row[0]))
	}
	// A map entry's key and value, and about as much again of the
	// buckets' overhead at their load factor.
	return n + len(t.sparse)*2*int(unsafe.Sizeof(uint64(0))+unsafe.Sizeof(uint32(0)))
}

// FlowCount returns the number of flows the table holds.
func FlowCount(t *FlowTable) int { return t.n }

// ColdFlows returns the number of flows with a cold part.
func ColdFlows(t *FlowTable) int { return len(t.cold) }
