package machine

import (
	"encoding/binary"
	"sync/atomic"
)

// defaultSolveCacheEntries bounds the per-machine memoization table.
// When the bound is exceeded a bounded batch is evicted (see store),
// which keeps behaviour deterministic (the cache only ever changes
// speed, never values — Solve is a pure function of its inputs).
const defaultSolveCacheEntries = 1 << 15

// solveCache is the per-machine L1: it memoizes SolveFor results keyed
// by an exact binary fingerprint of the machine config, the resolved
// model digests, and the allocations. Because the key covers every
// solver input, a hit is guaranteed bit-identical to recomputation;
// AddApp/RemoveApp/phase flushes (see Machine) only bound staleness and
// memory. Entries are immutable and may be shared with the process-wide
// L2 (sharedcache.go): both tiers hand out slices that callers copy
// from and never mutate.
//
// Storage is an open-addressed fingerprint table (perftable.go) rather
// than a Go map: encodeKey leaves both the exact key bytes and their
// 64-bit hash in the scratch, so a period's lookup/store pair probes on
// a precomputed fingerprint instead of re-hashing a string key, and the
// arena-backed keys need no intern table to keep stores
// allocation-free.
type solveCache struct {
	tab perfTable
	// base is an optional read-only tier below tab: a checkpoint's table
	// adopted by reference in RestoreHotState (hotstate.go). Lookups
	// fall back to it after missing tab; stores always go to tab (a key
	// can never be stored while present in either tier, so the tiers
	// stay disjoint). It never evicts — checkpoints hold a profiling
	// phase's worth of states, far under the table bound.
	base *perfTable
	max  int

	// encodeKey scratch: the current key bytes and their hashKey
	// fingerprint, consumed by lookup/store/pend and by the L2 (which
	// shards on the same fingerprint).
	key []byte
	fp  uint64

	// The pending buffer batches L2 publications between period
	// boundaries (see Machine.FlushShared). Keys are copied into the
	// pending arena — the L1 table may compact under eviction while a
	// publication is pending, so the buffer cannot alias it.
	pendArena   []byte
	pendEnds    []int32
	pendFps     []uint64
	pendEntries [][]Perf

	// The counters are atomics because fleet drivers snapshot stats
	// while nodes are mid-run; the table itself is still owned by
	// one Machine (a Machine is not safe for concurrent use).
	hits       atomic.Uint64
	misses     atomic.Uint64
	evictions  atomic.Uint64
	sharedHits atomic.Uint64 // L1 misses served by the shared L2
}

func newSolveCache(max int) *solveCache {
	return &solveCache{max: max}
}

// invalidate drops every entry. Safe on a nil cache.
func (c *solveCache) invalidate() {
	if c == nil {
		return
	}
	c.base = nil
	if c.tab.size() != 0 {
		c.tab.truncate()
	}
}

// reset returns the cache to its just-constructed state — entries
// dropped (capacity kept), all counters zeroed — while retaining the
// key scratch. Pending L2 publications must be flushed by the caller
// first (Machine.Reset does). Safe on nil.
//
//copart:noalloc
func (c *solveCache) reset() {
	if c == nil {
		return
	}
	c.base = nil
	c.tab.truncate()
	c.hits.Store(0)
	c.misses.Store(0)
	c.evictions.Store(0)
	c.sharedHits.Store(0)
}

// pend queues the entry just stored under the scratch key for batched
// L2 publication, self-flushing when the buffer fills between period
// boundaries.
//
//copart:noalloc
func (c *solveCache) pend(entry []Perf) {
	c.pendArena = append(c.pendArena, c.key...)              //copart:allocok amortized append growth; capacity is retained across periods
	c.pendEnds = append(c.pendEnds, int32(len(c.pendArena))) //copart:allocok amortized append growth; capacity is retained across periods
	c.pendFps = append(c.pendFps, c.fp)                      //copart:allocok amortized append growth; capacity is retained across periods
	c.pendEntries = append(c.pendEntries, entry)             //copart:allocok amortized append growth; capacity is retained across periods
	if len(c.pendFps) >= pendFlushAt {
		if SharedSolveCacheEnabled() {
			sharedSolve.storeBatch(c.pendArena, c.pendEnds, c.pendFps, c.pendEntries)
		}
		c.clearPending()
	}
}

// pendFlushAt caps the pending buffer: a control period solves a
// handful of new states, so 64 is reached only by solve-heavy sweeps
// between steps.
const pendFlushAt = 64

// clearPending empties the pending buffer, dropping entry references
// but keeping capacity.
//
//copart:noalloc
func (c *solveCache) clearPending() {
	clear(c.pendEntries)
	c.pendArena = c.pendArena[:0]
	c.pendEnds = c.pendEnds[:0]
	c.pendFps = c.pendFps[:0]
	c.pendEntries = c.pendEntries[:0]
}

// encodeKey writes the exact solver fingerprint into the scratch key —
// the config digest, then per application its resolved-model digest and
// allocation pair — and hashes it once (both tiers consume the same
// fingerprint). digests[i] must be modelDigest of the *resolved*
// models[i] (phases folded); Machine maintains these incrementally so
// the key costs O(apps) fixed-width appends.
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
		// keys both tiers hash and byte-compare on every solve shrink by
		// a third. Varints are prefix-free, so the encoding stays
		// injective.
		k = binary.AppendUvarint(k, allocs[i].CBM)
		k = binary.AppendUvarint(k, uint64(allocs[i].MBALevel))
	}
	c.key = k
	c.fp = hashKey(k)
}

// lookup returns the memoized solve for the key left by encodeKey. The
// returned slice is the cache's own entry: the caller must copy it into
// its destination and never mutate or retain it (solveForInto does
// exactly that), which keeps a hit allocation-free. The encoded key
// stays in the scratch so a following store needs no re-encoding.
//
//copart:noalloc
func (c *solveCache) lookup() ([]Perf, bool) {
	if i := c.tab.find(c.fp, c.key); i >= 0 {
		c.hits.Add(1)
		return c.tab.entries[i], true
	}
	if c.base != nil {
		if i := c.base.find(c.fp, c.key); i >= 0 {
			c.hits.Add(1)
			return c.base.entries[i], true
		}
	}
	c.misses.Add(1)
	return nil, false
}

// store memoizes an immutable entry under the key left by the preceding
// encodeKey, taking ownership of the slice (solveForInto passes a fresh
// copy, possibly shared with the L2). When the table is full a bounded
// batch (max/8) of the oldest entries is evicted instead of dropping
// the whole table — eviction affects only speed and counters, never
// values.
//
//copart:noalloc
func (c *solveCache) store(entry []Perf) {
	if i := c.tab.find(c.fp, c.key); i >= 0 {
		c.tab.entries[i] = entry
		return
	}
	if c.tab.size() >= c.max {
		batch := c.max / 8
		if batch < 1 {
			batch = 1
		}
		c.evictions.Add(uint64(c.tab.evictOldest(batch)))
	}
	c.tab.insert(c.fp, c.key, entry)
}

// CacheStats is a snapshot of one machine's L1 counters. Hits, Misses,
// and Evictions are deterministic for a seeded run even with the shared
// L2 enabled (an L2 hit is adopted into the L1, so the L1 trajectory
// matches a solve-and-store exactly); SharedHits — the portion of
// misses served by the L2 — depends on what the rest of the process
// solved first and is excluded from determinism comparisons.
type CacheStats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	SharedHits uint64
	Entries    int
}

// SolveCacheStats reports the machine's memoization counters (zeroes
// when the cache is disabled) — exposed for tests and benchmarks.
func (m *Machine) SolveCacheStats() (hits, misses uint64, entries int) {
	if m.cache == nil {
		return 0, 0, 0
	}
	return m.cache.hits.Load(), m.cache.misses.Load(), m.cache.entryCount()
}

// entryCount is the total resident entry count across both tiers.
//
//copart:noalloc
func (c *solveCache) entryCount() int {
	n := c.tab.size()
	if c.base != nil {
		n += c.base.size()
	}
	return n
}

// SolveCacheDetail reports the full L1 counter snapshot (zero value
// when the cache is disabled).
func (m *Machine) SolveCacheDetail() CacheStats {
	if m.cache == nil {
		return CacheStats{}
	}
	return CacheStats{
		Hits:       m.cache.hits.Load(),
		Misses:     m.cache.misses.Load(),
		Evictions:  m.cache.evictions.Load(),
		SharedHits: m.cache.sharedHits.Load(),
		Entries:    m.cache.entryCount(),
	}
}
