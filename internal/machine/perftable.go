package machine

import "bytes"

// perfTable is the open-addressed fingerprint table behind each shard of
// the shared solve cache: solver states keyed by their exact encoded
// key, entries dense and insertion-ordered. A lookup costs one 64-bit
// FNV fingerprint (computed once per solve by encodeKey), a linear probe
// over an int32 slot index at ≤75% load, and an exact byte-compare of
// the stored key to rule out fingerprint collisions — where a
// map[string][]Perf spent a measurable slice of every fleet period in
// string hashing, bucket probing, and key interning. Keys live
// concatenated in one arena — no per-key string headers, no intern
// table — and insertion order makes eviction deterministic (oldest
// first).
//
// The table only ever changes speed, never values: a hit is
// bit-identical to recomputation because the key covers every solver
// input.
type perfTable struct {
	idx      []int32 // 1+entry or 0 = empty; len is a power of two
	fps      []uint64
	keyEnd   []int32 // keyArena[keyEnd[i-1]:keyEnd[i]] is entry i's key
	entries  [][]Perf
	keyArena []byte
}

//copart:noalloc
func (t *perfTable) size() int { return len(t.fps) }

// keyAt returns entry i's key bytes (aliasing the arena).
//
//copart:noalloc
func (t *perfTable) keyAt(i int) []byte {
	lo := int32(0)
	if i > 0 {
		lo = t.keyEnd[i-1]
	}
	return t.keyArena[lo:t.keyEnd[i]]
}

// find returns the entry index holding key (with fingerprint fp), or
// -1. Linear probe; the exact key compare makes collisions harmless.
//
//copart:noalloc
func (t *perfTable) find(fp uint64, key []byte) int {
	if len(t.idx) == 0 {
		return -1
	}
	mask := uint64(len(t.idx) - 1)
	for slot := fp & mask; ; slot = (slot + 1) & mask {
		s := t.idx[slot]
		if s == 0 {
			return -1
		}
		i := int(s - 1)
		if t.fps[i] == fp && bytes.Equal(t.keyAt(i), key) {
			return i
		}
	}
}

// insert appends a new entry (key must be absent) and indexes it,
// growing the probe table when load would exceed 75%.
//
//copart:noalloc
func (t *perfTable) insert(fp uint64, key []byte, entry []Perf) {
	if 4*(len(t.fps)+1) > 3*len(t.idx) {
		t.grow()
	}
	t.fps = append(t.fps, fp)                           //copart:allocok amortized table growth; steady state reuses capacity
	t.keyArena = append(t.keyArena, key...)             //copart:allocok amortized arena growth; steady state reuses capacity
	t.keyEnd = append(t.keyEnd, int32(len(t.keyArena))) //copart:allocok amortized table growth; steady state reuses capacity
	t.entries = append(t.entries, entry)                //copart:allocok amortized table growth; steady state reuses capacity
	mask := uint64(len(t.idx) - 1)
	slot := fp & mask
	for t.idx[slot] != 0 {
		slot = (slot + 1) & mask
	}
	t.idx[slot] = int32(len(t.fps))
}

// grow doubles the probe table (min 64 slots) and reindexes.
//
//copart:noalloc
func (t *perfTable) grow() {
	n := 2 * len(t.idx)
	if n < 64 {
		n = 64
	}
	t.idx = make([]int32, n) //copart:allocok table growth is amortized geometric
	t.reindex()
}

// reindex rebuilds the probe table from the dense entries.
//
//copart:noalloc
func (t *perfTable) reindex() {
	clear(t.idx)
	mask := uint64(len(t.idx) - 1)
	for i, fp := range t.fps {
		slot := fp & mask
		for t.idx[slot] != 0 {
			slot = (slot + 1) & mask
		}
		t.idx[slot] = int32(i + 1)
	}
}

// truncate drops every entry, retaining all capacity.
//
//copart:noalloc
func (t *perfTable) truncate() {
	clear(t.idx)
	clear(t.entries) // release entry references to the GC
	t.fps = t.fps[:0]
	t.keyEnd = t.keyEnd[:0]
	t.entries = t.entries[:0]
	t.keyArena = t.keyArena[:0]
}

// evictOldest removes the first (oldest) batch entries, compacting the
// dense storage and reindexing, and reports how many were evicted.
// Insertion-order victims make eviction deterministic — a speed/counter
// effect only, never a value change.
//
//copart:noalloc
func (t *perfTable) evictOldest(batch int) int {
	n := t.size()
	if batch >= n {
		t.truncate()
		return n
	}
	keyOff := t.keyEnd[batch-1]
	copy(t.keyArena, t.keyArena[keyOff:])
	t.keyArena = t.keyArena[:int32(len(t.keyArena))-keyOff]
	keep := n - batch
	for i := 0; i < keep; i++ {
		t.fps[i] = t.fps[batch+i]
		t.keyEnd[i] = t.keyEnd[batch+i] - keyOff
		t.entries[i] = t.entries[batch+i]
	}
	clear(t.entries[keep:])
	t.fps = t.fps[:keep]
	t.keyEnd = t.keyEnd[:keep]
	t.entries = t.entries[:keep]
	t.reindex()
	return batch
}
