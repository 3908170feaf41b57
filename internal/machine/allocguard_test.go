package machine

import "testing"

// TestCachedSolveAllocationGuard pins the perf contract of the two
// paths that score states in bulk: a repeated solve served by the
// solve cache, and a session's cold table-backed solves — every state
// distinct, none cached — must both be allocation-free. A regression
// here silently reintroduces GC pressure into the solver hot path that
// the benchmarks were built to eliminate.
func TestCachedSolveAllocationGuard(t *testing.T) {
	coldSharedCache(t)

	cfg := DefaultConfig()
	models := sharedTestModels(4)
	allocs := sweepAllocs(cfg, 4, 1, 1)[0]

	m, err := New(cfg, WithSolveCache())
	if err != nil {
		t.Fatal(err)
	}
	perfs := make([]Perf, len(models))
	if err := m.SolveForInto(perfs, models, allocs); err != nil {
		t.Fatal(err) // cold: solved and stored, from here on a lookup
	}
	if avg := testing.AllocsPerRun(100, func() {
		if err := m.SolveForInto(perfs, models, allocs); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("warm cache hit allocates %.1f allocs/op, want 0", avg)
	}
	if st := SharedSolveCacheStats(); st.Misses != 1 || st.Hits == 0 {
		t.Errorf("the warm solves were not all cache hits: %+v", st)
	}

	// A session sweeping distinct exclusive states, the ST oracle's shape:
	// after the first pass has sized the scratch and filled the tables,
	// nothing on the path may allocate — and nothing may reach the cache.
	states := sweepAllocs(cfg, 4, 64, 5)
	session := m.NewSolveSession(models)
	next := 0
	sweep := func() {
		if err := session.SolveInto(perfs, states[next%len(states)]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	sweep()
	before := SharedSolveCacheStats()
	if avg := testing.AllocsPerRun(len(states), sweep); avg != 0 {
		t.Errorf("cold session solve allocates %.1f allocs/op, want 0", avg)
	}
	if after := SharedSolveCacheStats(); after != before {
		t.Errorf("session solves touched the solve cache: %+v -> %+v", before, after)
	}
}
