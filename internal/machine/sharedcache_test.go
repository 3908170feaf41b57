package machine

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/membw"
)

// sharedTestModels builds a deterministic 4-app mix without importing
// the workloads package (which would cycle).
func sharedTestModels(n int) []AppModel {
	models := make([]AppModel, n)
	for i := range models {
		models[i] = AppModel{
			Name:        fmt.Sprintf("app%d", i),
			Cores:       2,
			CPIBase:     0.8 + 0.1*float64(i),
			AccPerInstr: 0.01 + 0.002*float64(i),
			StreamFrac:  0.1 * float64(i),
			MLP:         2,
			Hot: []WSComponent{
				{Bytes: float64(uint(1) << (19 + uint(i))), Weight: 0.7},
				{Bytes: 8 << 20, Weight: 0.3},
			},
		}
	}
	return models
}

// sweepAllocs enumerates a deterministic set of exclusive allocation
// states for n apps over the default 11-way LLC.
func sweepAllocs(cfg Config, n, count int, seed int64) [][]Alloc {
	rng := rand.New(rand.NewSource(seed))
	states := make([][]Alloc, count)
	for s := range states {
		counts := make([]int, n)
		remaining := cfg.LLCWays - n
		for i := range counts {
			counts[i] = 1
		}
		for remaining > 0 {
			counts[rng.Intn(n)]++
			remaining--
		}
		allocs := make([]Alloc, n)
		lo := 0
		for i, c := range counts {
			allocs[i] = Alloc{
				CBM:      ((uint64(1) << c) - 1) << uint(lo),
				MBALevel: membw.MinLevel + membw.Granularity*rng.Intn((membw.MaxLevel-membw.MinLevel)/membw.Granularity+1),
			}
			lo += c
		}
		states[s] = allocs
	}
	return states
}

// TestSharedSolveCacheBitIdentical pins the tentpole invariant: results
// are bit-identical whether a state is solved bare, through a warm L1,
// or served cross-machine from the shared L2.
func TestSharedSolveCacheBitIdentical(t *testing.T) {
	prev := SetSharedSolveCache(true)
	defer SetSharedSolveCache(prev)
	ResetSharedSolveCache()
	defer ResetSharedSolveCache()

	cfg := DefaultConfig()
	models := sharedTestModels(4)
	states := sweepAllocs(cfg, 4, 50, 7)

	bare, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	writer, err := New(cfg, WithSolveCache())
	if err != nil {
		t.Fatal(err)
	}
	reader, err := New(cfg, WithSolveCache())
	if err != nil {
		t.Fatal(err)
	}
	for i, allocs := range states {
		want, err := bare.SolveFor(models, allocs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := writer.SolveFor(models, allocs) // miss: solve + pend for L2
		if err != nil {
			t.Fatal(err)
		}
		// L2 publication batches until a period boundary (Step) or an
		// explicit flush; cross-machine visibility starts at the flush.
		writer.FlushShared()
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("state %d: cached solve differs from bare solve", i)
		}
		via, err := reader.SolveFor(models, allocs) // L1 miss, served by L2
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, via) {
			t.Fatalf("state %d: shared-cache result differs from bare solve", i)
		}
	}
	if cs := reader.SolveCacheDetail(); cs.SharedHits == 0 {
		t.Fatalf("reader machine never hit the shared cache: %+v", cs)
	}
	// The adopted entries must now satisfy the reader's L1.
	h0, _, _ := reader.SolveCacheStats()
	if _, err := reader.SolveFor(models, states[0]); err != nil {
		t.Fatal(err)
	}
	if h1, _, _ := reader.SolveCacheStats(); h1 != h0+1 {
		t.Fatalf("adopted shared entry did not hit the L1 (hits %d → %d)", h0, h1)
	}
}

// TestSharedSolveCacheOnOffIdentical solves the same sweep with the L2
// enabled and disabled on separate machines and requires bit-identical
// perfs and identical L1 hit/miss counters — the property the fleet
// -verify check enforces at scale.
func TestSharedSolveCacheOnOffIdentical(t *testing.T) {
	prev := SharedSolveCacheEnabled()
	defer SetSharedSolveCache(prev)
	ResetSharedSolveCache()
	defer ResetSharedSolveCache()

	cfg := DefaultConfig()
	models := sharedTestModels(4)
	// Repeat each state so the L1 sees hits too.
	states := sweepAllocs(cfg, 4, 30, 11)
	states = append(states, states...)

	run := func(on bool) ([][]Perf, uint64, uint64) {
		SetSharedSolveCache(on)
		m, err := New(cfg, WithSolveCache())
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]Perf, len(states))
		for i, allocs := range states {
			out[i], err = m.SolveFor(models, allocs)
			if err != nil {
				t.Fatal(err)
			}
		}
		h, mi, _ := m.SolveCacheStats()
		return out, h, mi
	}
	offPerfs, offHits, offMisses := run(false)
	// Pre-seed the L2 from an unrelated machine so the on-run exercises
	// cross-machine serving, not just self-stores.
	seed, err := New(cfg, WithSolveCache())
	if err != nil {
		t.Fatal(err)
	}
	for _, allocs := range states[:10] {
		if _, err := seed.SolveFor(models, allocs); err != nil {
			t.Fatal(err)
		}
	}
	seed.FlushShared()
	onPerfs, onHits, onMisses := run(true)
	if !reflect.DeepEqual(offPerfs, onPerfs) {
		t.Fatal("solve results differ with the shared cache on vs off")
	}
	if offHits != onHits || offMisses != onMisses {
		t.Fatalf("L1 counters differ with the shared cache on (%d/%d) vs off (%d/%d)",
			onHits, onMisses, offHits, offMisses)
	}
}

// TestSharedSolveCacheRaceStress hammers the shared cache from many
// goroutines solving overlapping state sets on private machines — the
// -race tripwire for the lock-striped tiers — and checks every result
// against a single-threaded reference. Each goroutine interleaves
// uncached session solves with cached SolveForInto calls on one machine,
// so the session's table-fed kernel and the cache tiers share the
// machine's scratch mid-traffic; only the SolveForInto arm may move a
// cache counter.
func TestSharedSolveCacheRaceStress(t *testing.T) {
	prev := SetSharedSolveCache(true)
	defer SetSharedSolveCache(prev)
	ResetSharedSolveCache()
	defer ResetSharedSolveCache()

	cfg := DefaultConfig()
	models := sharedTestModels(4)
	states := sweepAllocs(cfg, 4, 120, 3)
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]Perf, len(states))
	for i, allocs := range states {
		if want[i], err = ref.SolveFor(models, allocs); err != nil {
			t.Fatal(err)
		}
	}

	const goroutines, iters = 8, 400
	var wg sync.WaitGroup
	var l1Misses atomic.Uint64
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m, err := New(cfg, WithSolveCache())
			if err != nil {
				errs <- err
				return
			}
			session := m.NewSolveSession(models)
			perfs := make([]Perf, len(models))
			rng := rand.New(rand.NewSource(int64(g)))
			for iter := 0; iter < iters; iter++ {
				i := rng.Intn(len(states))
				var err error
				if iter%2 == 0 {
					err = session.SolveInto(perfs, states[i])
				} else {
					err = m.SolveForInto(perfs, models, states[i])
				}
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(perfs, want[i]) {
					errs <- fmt.Errorf("goroutine %d: state %d diverged from reference", g, i)
					return
				}
			}
			cs := m.SolveCacheDetail()
			if cs.Hits+cs.Misses != iters/2 {
				errs <- fmt.Errorf("goroutine %d: %d L1 lookups for %d SolveForInto calls — sessions must not consult the cache",
					g, cs.Hits+cs.Misses, iters/2)
			}
			l1Misses.Add(cs.Misses)
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := SharedSolveCacheStats()
	if st.Hits == 0 {
		t.Fatalf("stress run never hit the shared cache: %+v", st)
	}
	if st.Hits+st.Misses != l1Misses.Load() {
		t.Fatalf("L2 saw %d lookups for %d L1 misses — only SolveForInto misses may reach it",
			st.Hits+st.Misses, l1Misses.Load())
	}
}

// keyForShard fabricates distinct keys that all land in the same shard,
// so the eviction bound can be exercised without half a million inserts.
func keyForShard(shard int, seq *int) []byte {
	for {
		*seq++
		key := binary.LittleEndian.AppendUint64(nil, uint64(*seq))
		if int(hashKey(key)%sharedShardCount) == shard {
			return key
		}
	}
}

// storeShared publishes one entry to the L2 the way machines do: as a
// batch of one.
func storeShared(key []byte, entry []Perf) {
	sharedSolve.storeBatch(key, []int32{int32(len(key))}, []uint64{hashKey(key)}, [][]Perf{entry})
}

// TestSharedSolveCacheBoundedEviction fills one shard past its cap and
// checks that eviction trims a bounded batch instead of dropping the
// table, and that the shard never exceeds its bound.
func TestSharedSolveCacheBoundedEviction(t *testing.T) {
	ResetSharedSolveCache()
	defer ResetSharedSolveCache()
	entry := []Perf{{IPS: 1}}
	seq := 0
	const shard = 5
	for i := 0; i < sharedShardCap+100; i++ {
		key := keyForShard(shard, &seq)
		storeShared(key, entry)
		if n := sharedSolve.shards[shard].tab.size(); n > sharedShardCap {
			t.Fatalf("shard grew to %d entries, cap is %d", n, sharedShardCap)
		}
	}
	st := SharedSolveCacheStats()
	if st.Evictions == 0 {
		t.Fatal("overfilling a shard evicted nothing")
	}
	// Bounded batches, not whole-table drops: after the overflow the
	// shard must retain at least cap − batch − 1 entries.
	if n := sharedSolve.shards[shard].tab.size(); n < sharedShardCap-sharedShardCap/8-1 {
		t.Fatalf("eviction dropped too much: %d entries left of %d cap", n, sharedShardCap)
	}
	// Re-storing an existing key at a full shard must not evict.
	full := SharedSolveCacheStats()
	key := keyForShard(shard, &seq)
	storeShared(key, entry)
	evAfterNew := SharedSolveCacheStats().Evictions
	storeShared(key, entry)
	if got := SharedSolveCacheStats().Evictions; got != evAfterNew {
		t.Fatalf("overwriting an existing key evicted (%d → %d)", evAfterNew, got)
	}
	_ = full
}

// TestSolveCacheBoundedEviction pins the L1 policy: exceeding the bound
// evicts a batch (counted), never the whole table.
func TestSolveCacheBoundedEviction(t *testing.T) {
	c := newSolveCache(16)
	entry := []Perf{{IPS: 1}}
	for i := 0; i < 100; i++ {
		c.key = binary.LittleEndian.AppendUint64(c.key[:0], uint64(i))
		c.fp = hashKey(c.key)
		c.store(append([]Perf(nil), entry...))
		if c.tab.size() > 16 {
			t.Fatalf("cache grew to %d entries, max is 16", c.tab.size())
		}
		if c.tab.size() == 0 {
			t.Fatal("cache was fully dropped")
		}
	}
	if c.evictions.Load() == 0 {
		t.Fatal("bounded store evicted nothing")
	}
	if c.tab.size() < 16-16/8 {
		t.Fatalf("eviction dropped too much: %d entries left", c.tab.size())
	}
}
