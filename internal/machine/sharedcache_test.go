package machine

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
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

// TestSharedSolveCacheBitIdentical pins the cache's invariant: results
// are bit-identical whether a state is solved bare, solved and published
// by a memoizing machine, or served to another machine from the cache.
func TestSharedSolveCacheBitIdentical(t *testing.T) {
	coldSharedCache(t)

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
		got, err := writer.SolveFor(models, allocs) // miss: solve + store
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("state %d: cached solve differs from bare solve", i)
		}
		via, err := reader.SolveFor(models, allocs) // served by the cache
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, via) {
			t.Fatalf("state %d: shared-cache result differs from bare solve", i)
		}
	}
	// The writer missed once per distinct state (a repeat in the sweep is
	// its own lookup) and the reader never: every one of its solves was
	// served.
	st := SharedSolveCacheStats()
	if lookups := uint64(2 * len(states)); st.Misses != uint64(st.Entries) || st.Hits+st.Misses != lookups {
		t.Fatalf("%d lookups over %d distinct states: %+v; want one miss per state and the rest hits",
			lookups, st.Entries, st)
	}
}

// TestSharedSolveCacheOnOffIdentical solves the same sweep with the
// cache enabled and disabled on separate machines and requires
// bit-identical perfs — the property the fleet -verify check enforces at
// scale — and that a machine memoizes nothing while the cache is off.
func TestSharedSolveCacheOnOffIdentical(t *testing.T) {
	coldSharedCache(t)

	cfg := DefaultConfig()
	models := sharedTestModels(4)
	// Repeat each state so the machine looks up what it published itself.
	states := sweepAllocs(cfg, 4, 30, 11)
	states = append(states, states...)

	run := func(on bool) [][]Perf {
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
		return out
	}
	offPerfs := run(false)
	if st := SharedSolveCacheStats(); st != (SharedCacheStats{}) {
		t.Fatalf("a run with the cache off touched it: %+v", st)
	}
	// Pre-seed the cache from an unrelated machine so the on-run exercises
	// cross-machine serving, not just self-stores.
	SetSharedSolveCache(true)
	seed, err := New(cfg, WithSolveCache())
	if err != nil {
		t.Fatal(err)
	}
	for _, allocs := range states[:10] {
		if _, err := seed.SolveFor(models, allocs); err != nil {
			t.Fatal(err)
		}
	}
	seeded := SharedSolveCacheStats()
	onPerfs := run(true)
	if !reflect.DeepEqual(offPerfs, onPerfs) {
		t.Fatal("solve results differ with the shared cache on vs off")
	}
	// Every solve of the on-run was a lookup; the seeded states and the
	// whole second half were hits.
	st := SharedSolveCacheStats()
	hits, lookups := st.Hits-seeded.Hits, st.Hits+st.Misses-seeded.Hits-seeded.Misses
	if lookups != uint64(len(states)) || hits < uint64(10+len(states)/2) {
		t.Fatalf("the on-run made %d lookups and %d hits over %d solves, want %d lookups and at least %d hits",
			lookups, hits, len(states), len(states), 10+len(states)/2)
	}
}

// TestSharedSolveCacheRaceStress hammers the shared cache from many
// goroutines solving overlapping state sets on private machines — the
// -race tripwire for the lock-striped shards — and checks every result
// against a single-threaded reference. Each goroutine interleaves
// uncached session solves with cached SolveForInto calls on one machine,
// so the session's table-fed kernel and the memoized path share the
// machine's scratch mid-traffic; only the SolveForInto arm may move a
// cache counter. Every miss stores its entry while other goroutines
// look the same shard up.
func TestSharedSolveCacheRaceStress(t *testing.T) {
	coldSharedCache(t)

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
	if calls := uint64(goroutines * iters / 2); st.Hits+st.Misses != calls {
		t.Fatalf("the cache saw %d lookups for %d SolveForInto calls — sessions must not consult it",
			st.Hits+st.Misses, calls)
	}
}

// keyForShard fabricates distinct keys that all land in the same shard,
// so the eviction bound can be exercised without 65 536 inserts.
func keyForShard(shard int, seq *int) []byte {
	for {
		*seq++
		key := binary.LittleEndian.AppendUint64(nil, uint64(*seq))
		if int(hashKey(key)%sharedShardCount) == shard {
			return key
		}
	}
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
		sharedSolve.store(key, hashKey(key), entry)
		if n := len(sharedSolve.shards[shard].m); n > sharedShardCap {
			t.Fatalf("shard grew to %d entries, cap is %d", n, sharedShardCap)
		}
	}
	st := SharedSolveCacheStats()
	if st.Evictions == 0 {
		t.Fatal("overfilling a shard evicted nothing")
	}
	// Bounded batches, not whole-table drops: after the overflow the
	// shard must retain at least cap − batch − 1 entries.
	if n := len(sharedSolve.shards[shard].m); n < sharedShardCap-sharedShardCap/8-1 {
		t.Fatalf("eviction dropped too much: %d entries left of %d cap", n, sharedShardCap)
	}
	// Re-storing an existing key at a full shard must not evict.
	full := SharedSolveCacheStats()
	key := keyForShard(shard, &seq)
	sharedSolve.store(key, hashKey(key), entry)
	evAfterNew := SharedSolveCacheStats().Evictions
	sharedSolve.store(key, hashKey(key), entry)
	if got := SharedSolveCacheStats().Evictions; got != evAfterNew {
		t.Fatalf("overwriting an existing key evicted (%d → %d)", evAfterNew, got)
	}
	_ = full
}

// TestSharedSolveCacheShardsBalanced spreads the keys of one four-app
// fleet node's search space — every contiguous split of the ways, times
// two apps' MBA levels — over the shards: the fullest may hold at most
// twice the mean. The FNV word fold alone leaves the shard bits to the
// first byte of each word and the tail, which put 3 500 of these 12 000
// keys in one shard and none in others.
func TestSharedSolveCacheShardsBalanced(t *testing.T) {
	cfg := DefaultConfig()
	models := sharedTestModels(4)
	digests := make([]uint64, len(models))
	for i := range models {
		digests[i] = modelDigest(&models[i])
	}
	var sc solveScratch
	var counts [sharedShardCount]int
	keys := 0
	for a := 1; a < cfg.LLCWays; a++ {
		for b := 1; a+b < cfg.LLCWays; b++ {
			for c := 1; a+b+c < cfg.LLCWays; c++ {
				masks, err := AssignContiguousWays([]int{a, b, c, cfg.LLCWays - a - b - c}, 0, cfg.LLCWays)
				if err != nil {
					t.Fatal(err)
				}
				for l0 := 10; l0 <= 100; l0 += 10 {
					for l1 := 10; l1 <= 100; l1 += 10 {
						allocs := []Alloc{
							{CBM: masks[0], MBALevel: l0},
							{CBM: masks[1], MBALevel: l1},
							{CBM: masks[2], MBALevel: 100},
							{CBM: masks[3], MBALevel: 100},
						}
						sc.encodeKey(configDigest(cfg), digests, allocs)
						counts[sc.fp%sharedShardCount]++
						keys++
					}
				}
			}
		}
	}
	if keys != 12000 {
		t.Fatalf("enumerated %d keys, want 12000", keys)
	}
	fullest := 0
	for _, n := range counts {
		fullest = max(fullest, n)
	}
	if mean := float64(keys) / sharedShardCount; float64(fullest) > 2*mean {
		t.Fatalf("fullest shard holds %d keys against a mean of %.1f", fullest, mean)
	}
}
