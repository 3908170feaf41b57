package machine

import "encoding/binary"

// solveCache is what a memoizing machine keeps of its own: the key
// scratch and the batch of fresh solves waiting to be published to the
// process-wide sharedCache (sharedcache.go). The key encodes the config
// digest, the resolved models' 64-bit digests and the allocations: every
// solver input, so barring a digest collision a hit is bit-identical to
// recomputation and no entry goes stale, whatever AddApp, RemoveApp,
// Reset, RestoreHotState or a phase boundary did in between.
type solveCache struct {
	// encodeKey scratch: the current key bytes and their hashKey
	// fingerprint, consumed by the shared lookup (which shards on the
	// fingerprint) and by pend.
	key []byte
	fp  uint64

	// The pending buffer batches publications between period boundaries
	// (see Machine.FlushShared): keys concatenated in pendArena with
	// pendEnds[i] delimiting key i.
	pendArena   []byte
	pendEnds    []int32
	pendFps     []uint64
	pendEntries [][]Perf
}

// pend queues entry, solved under the scratch key, for batched
// publication, self-flushing when the buffer fills between period
// boundaries.
//
//copart:noalloc
func (c *solveCache) pend(entry []Perf) {
	c.pendArena = append(c.pendArena, c.key...)              //copart:allocok amortized append growth; capacity is retained across periods
	c.pendEnds = append(c.pendEnds, int32(len(c.pendArena))) //copart:allocok amortized append growth; capacity is retained across periods
	c.pendFps = append(c.pendFps, c.fp)                      //copart:allocok amortized append growth; capacity is retained across periods
	c.pendEntries = append(c.pendEntries, entry)             //copart:allocok amortized append growth; capacity is retained across periods
	if len(c.pendFps) >= pendFlushAt {
		c.flush()
	}
}

// pendFlushAt caps the pending buffer: a control period solves a
// handful of new states, so 64 is reached only by solve-heavy sweeps
// between steps.
const pendFlushAt = 64

// flush publishes the pending batch (dropped when the shared cache was
// switched off since the entries were queued) and empties the buffer,
// releasing the entry references but keeping capacity.
//
//copart:noalloc
func (c *solveCache) flush() {
	if SharedSolveCacheEnabled() {
		sharedSolve.storeBatch(c.pendArena, c.pendEnds, c.pendFps, c.pendEntries)
	}
	clear(c.pendEntries)
	c.pendArena = c.pendArena[:0]
	c.pendEnds = c.pendEnds[:0]
	c.pendFps = c.pendFps[:0]
	c.pendEntries = c.pendEntries[:0]
}

// encodeKey writes the exact solver fingerprint into the scratch key —
// the config digest, then per application its resolved-model digest and
// allocation pair — and hashes it once. digests[i] must be modelDigest
// of the *resolved* models[i] (phases folded); Machine maintains these
// incrementally so the key costs O(apps) fixed-width appends.
//
//copart:noalloc
func (c *solveCache) encodeKey(cfgDigest uint64, digests []uint64, allocs []Alloc) {
	k := c.key[:0]
	k = binary.LittleEndian.AppendUint64(k, cfgDigest)
	k = binary.AppendUvarint(k, uint64(len(digests)))
	for i, d := range digests {
		k = binary.LittleEndian.AppendUint64(k, d)
		// CBMs are short bit masks (a machine has a few dozen ways at
		// most), so the varint form is 1–2 bytes against 8 fixed — the
		// keys hashed and byte-compared on every solve shrink by a third.
		// Varints are prefix-free, so the encoding stays injective.
		k = binary.AppendUvarint(k, allocs[i].CBM)
		k = binary.AppendUvarint(k, uint64(allocs[i].MBALevel))
	}
	c.key = k
	c.fp = hashKey(k)
}
