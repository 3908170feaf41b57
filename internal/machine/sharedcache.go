package machine

import (
	"sync"
	"sync/atomic"
)

// The process-wide solve cache, the only solve memo there is. Every
// machine consults it for the shared-way states it runs, a
// WithSolveCache machine for every solve (SolveSession sweeps bypass it),
// so a state solved once anywhere in the process is a lookup everywhere
// else. It is a pure memo: keys carry the full solver input (config
// digest + per-app 64-bit model digest + allocation bits), a hit is
// bit-identical to recomputation barring a digest collision, and sharing
// cannot perturb any seeded run regardless of goroutine interleaving —
// only which duplicate solve is skipped is timing-dependent. Lock
// striping (128 shards, each a mutex + map) keeps fleet workers from
// serializing on one lock; the hashKey fingerprint that encodeKey leaves
// in the machine's scratch selects the shard. A miss stores its fresh
// solve at once (store), so the next lookup of that state anywhere is a
// hit. The shard cap is the cache's only bound.
const (
	sharedShardCount = 128
	sharedShardCap   = 512 // entries per shard; 65 536 process-wide
)

// SharedCacheStats is a snapshot of the process-wide cache counters.
// Hits/Misses/Evictions are cumulative; Entries is the current size.
type SharedCacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Entries   int
}

// sharedShard maps encoded keys to their immutable entries; order lists
// the keys oldest first, so eviction is deterministic.
type sharedShard struct {
	mu    sync.Mutex
	m     map[string][]Perf
	order []string
}

type sharedCache struct {
	shards    [sharedShardCount]sharedShard
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

var (
	sharedSolve sharedCache
	// sharedOff gates the cache; the zero value means enabled, so it
	// is on by default without an init step.
	sharedOff atomic.Bool
)

// SetSharedSolveCache enables or disables the process-wide shared solve
// cache and reports the previous setting. Disabling only stops lookups
// and stores; entries are retained until ResetSharedSolveCache. The
// shared cache is enabled by default; disabling it changes speed only —
// results of every seeded run are bit-identical either way, which the
// determinism tests pin.
func SetSharedSolveCache(on bool) bool {
	return !sharedOff.Swap(!on)
}

// SharedSolveCacheEnabled reports whether the process-wide cache is on.
//
//copart:noalloc
func SharedSolveCacheEnabled() bool { return !sharedOff.Load() }

// SharedSolveCacheStats snapshots the process-wide cache counters.
//
//copart:noalloc fleet-merge telemetry snapshot; locks but never allocates
func SharedSolveCacheStats() SharedCacheStats {
	st := SharedCacheStats{
		Hits:      sharedSolve.hits.Load(),
		Misses:    sharedSolve.misses.Load(),
		Evictions: sharedSolve.evictions.Load(),
	}
	for i := range sharedSolve.shards {
		s := &sharedSolve.shards[i]
		s.mu.Lock()
		st.Entries += len(s.m)
		s.mu.Unlock()
	}
	return st
}

// ResetSharedSolveCache drops every shared entry and zeroes the
// counters — used by tests and benchmarks that need a cold cache.
func ResetSharedSolveCache() {
	for i := range sharedSolve.shards {
		s := &sharedSolve.shards[i]
		s.mu.Lock()
		clear(s.m)
		clear(s.order) // release the key strings to the GC
		s.order = s.order[:0]
		s.mu.Unlock()
	}
	sharedSolve.hits.Store(0)
	sharedSolve.misses.Store(0)
	sharedSolve.evictions.Store(0)
}

// lookup returns the shared entry for key (with its hashKey fingerprint
// fp, as left in the machine's scratch by encodeKey), if present. The
// returned slice is immutable by contract: readers copy out of it or
// alias it read-only (solveRef), and nobody writes through it.
//
//copart:noalloc
func (c *sharedCache) lookup(key []byte, fp uint64) ([]Perf, bool) {
	s := &c.shards[fp%sharedShardCount]
	s.mu.Lock()
	entry, ok := s.m[string(key)]
	s.mu.Unlock()
	if ok {
		c.hits.Add(1)
		return entry, true
	}
	c.misses.Add(1)
	return nil, false
}

// store publishes entry, solved under key (with its hashKey fingerprint
// fp), taking the shard's lock once. A key already present — stored by
// another machine since this one's lookup missed — keeps its equal
// entry. A full shard evicts its oldest eighth before taking a new key
// (eviction affects only speed and counters, never values). The key
// bytes are copied; entry is kept as is and is immutable from here on.
//
//copart:noalloc
func (c *sharedCache) store(key []byte, fp uint64, entry []Perf) {
	s := &c.shards[fp%sharedShardCount]
	s.mu.Lock()
	if _, ok := s.m[string(key)]; !ok {
		if len(s.order) >= sharedShardCap {
			c.evictions.Add(uint64(s.evictOldest(sharedShardCap / 8)))
		}
		if s.m == nil {
			s.m = make(map[string][]Perf) //copart:allocok first store into the shard
		}
		k := string(key) //copart:allocok cache-miss path: the map keeps its own copy of the key
		s.m[k] = entry
		s.order = append(s.order, k) //copart:allocok amortized growth up to the shard cap
	}
	s.mu.Unlock()
}

// evictOldest deletes the batch oldest keys (batch ≤ the shard's size)
// and reports how many went.
//
//copart:noalloc
func (s *sharedShard) evictOldest(batch int) int {
	for _, k := range s.order[:batch] {
		delete(s.m, k)
	}
	n := copy(s.order, s.order[batch:])
	clear(s.order[n:])
	s.order = s.order[:n]
	return batch
}
