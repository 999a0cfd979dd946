package probe

// StoredBytes returns the bytes of record the timeline holds, the
// unused tails of its chunks not counted.
func StoredBytes(t *Timeline) int {
	n := 0
	for _, c := range t.chunks {
		n += len(c)
	}
	return n
}

// ChunkBytes is the size of one chunk of records.
const ChunkBytes = chunkBytes
