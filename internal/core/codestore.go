package core

import "sync/atomic"

// Shared decoded code.
//
// I1 code is position independent (paper, 3.2), and the machines of a
// network mostly run copies of a few programs: the search array's 128
// nodes differ only in a constant and their link set.  What decodeRec
// makes of a run of bytes depends on nothing but those bytes, their
// address and the word size, the key code.find compares, so machines
// that decode the same bytes at the same address can hold one copy of
// the records.  A CodeStore keeps that copy; each machine keeps only a
// block, its handle on the code, with its own chain edges and validity.
// A store changes what the host holds, never what a machine does: a
// machine that rewrites its own code invalidates its own handles and
// decodes the new bytes under their own key, while a machine sharing
// the old code runs on.

const (
	// storeBucketBits sizes the store's hash table: 256 chains.
	storeBucketBits = 8
	// maxCodes bounds a store.  Past it a run is decoded privately, so a
	// self-modifying program cannot grow the store without bound, as
	// maxBlocks keeps it from growing its machine's cache.
	maxCodes = 4096
)

// CodeStore holds decoded code under its content key for the machines
// that share it: every machine of one network.System, or one machine
// made by New alone.  It is the one structure machines share, and it
// takes no lock: shards decoding at once add entries by compare-and-swap
// to append-only bucket chains, and an entry is published fully built
// and never changes.
type CodeStore struct {
	buckets [1 << storeBucketBits]atomic.Pointer[code]
	codes   atomic.Int32 // entries published or being published, at most maxCodes
}

// NewCodeStore returns an empty store.
func NewCodeStore() *CodeStore { return &CodeStore{} }

// intern returns the code for recs, decoded from src at offset
// startOff: the store's own when it holds the same key, else new code,
// published for the next machine unless the store is full.  The bytes
// are compared in full; the hash only picks the chain.
func (st *CodeStore) intern(recs []blockRec, src []byte, startOff uint64, wordBits uint8) *code {
	addr := recs[0].addr
	bucket := &st.buckets[codeHash(addr, src, wordBits)>>(64-storeBucketBits)]
	head := bucket.Load()
	if c := head.find(nil, addr, src, wordBits); c != nil {
		return c
	}
	c := newCode(recs, src, startOff, wordBits)
	if st.codes.Add(1) > maxCodes {
		st.codes.Add(-1)
		return c // private: never published
	}
	for {
		c.next = head
		if bucket.CompareAndSwap(head, c) {
			return c
		}
		// Another shard published first: adopt its entry if it has our
		// key, else try again on top of what it added.
		newHead := bucket.Load()
		if w := newHead.find(head, addr, src, wordBits); w != nil {
			st.codes.Add(-1)
			return w
		}
		head = newHead
	}
}

// find walks a bucket chain from c up to stop for the code with the
// given key.
func (c *code) find(stop *code, addr uint64, src []byte, wordBits uint8) *code {
	for ; c != stop; c = c.next {
		if c.recs[0].addr == addr && c.wordBits == wordBits &&
			c.src == string(src) {
			return c
		}
	}
	return nil
}

// codeHash is FNV-1a over a content key; its top bits pick the chain.
func codeHash(addr uint64, src []byte, wordBits uint8) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	h = (h ^ addr) * prime
	h = (h ^ uint64(wordBits)) * prime
	for _, b := range src {
		h = (h ^ uint64(b)) * prime
	}
	return h
}
