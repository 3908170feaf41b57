package machine

import (
	"reflect"
	"testing"
	"time"
)

// coldSharedCache switches the process-wide cache on and empties it for
// the calling test, restoring the previous setting (and emptying it
// again) afterwards, so SharedSolveCacheStats reads as the test's own
// counts.
func coldSharedCache(t *testing.T) {
	t.Helper()
	prev := SetSharedSolveCache(true)
	ResetSharedSolveCache()
	t.Cleanup(func() {
		SetSharedSolveCache(prev)
		ResetSharedSolveCache()
	})
}

// recomputing runs f with the process-wide cache switched off, so every
// solve inside it is a fresh recomputation — Step's included, which every
// machine memoizes for the shared-way states it runs.
func recomputing(f func()) {
	defer SetSharedSolveCache(SetSharedSolveCache(false))
	f()
}

// twinMachines returns one WithSolveCache and one plain machine with the
// same configuration and the standard 4-application test mix added to
// both. The plain machine's Solve and SolveFor are not memoized.
func twinMachines(t *testing.T, cfg Config) (cached, bare *Machine, models []AppModel) {
	t.Helper()
	var err error
	cached, err = New(cfg, WithSolveCache())
	if err != nil {
		t.Fatal(err)
	}
	bare, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	models = []AppModel{
		llcSensitiveModel(), bwSensitiveModel(), dualSensitiveModel(), insensitiveModel(),
	}
	for i := range models {
		models[i].Name = string(rune('a' + i))
		if err := cached.AddApp(models[i]); err != nil {
			t.Fatal(err)
		}
		if err := bare.AddApp(models[i]); err != nil {
			t.Fatal(err)
		}
	}
	return cached, bare, models
}

// TestSolveCacheTransparent checks the memoized solver is bit-identical
// to the bare one across a sweep of allocations, including repeats that
// exercise cache hits.
func TestSolveCacheTransparent(t *testing.T) {
	coldSharedCache(t)
	cfg := DefaultConfig()
	cached, bare, models := twinMachines(t, cfg)
	sweep := [][]int{{3, 3, 3, 2}, {5, 2, 2, 2}, {2, 2, 2, 5}, {3, 3, 3, 2}, {5, 2, 2, 2}}
	levels := []int{100, 50, 30, 100, 50}
	for si, counts := range sweep {
		masks, err := AssignContiguousWays(counts, 0, cfg.LLCWays)
		if err != nil {
			t.Fatal(err)
		}
		for i := range models {
			al := Alloc{CBM: masks[i], MBALevel: levels[si]}
			if err := cached.SetAllocation(models[i].Name, al); err != nil {
				t.Fatal(err)
			}
			if err := bare.SetAllocation(models[i].Name, al); err != nil {
				t.Fatal(err)
			}
		}
		got, err := cached.Solve()
		if err != nil {
			t.Fatal(err)
		}
		want, err := bare.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("sweep %d: cached solve diverged:\ncached: %+v\nbare:   %+v", si, got, want)
		}
	}
	if st := SharedSolveCacheStats(); st.Hits != 2 || st.Misses != 3 || st.Entries != 3 {
		t.Errorf("a sweep of 3 states and 2 repeats recorded %d hits, %d misses, %d entries; want 2, 3, 3 (the bare twin must not count)",
			st.Hits, st.Misses, st.Entries)
	}
}

// TestSolveCacheReturnsFreshSlices checks a cache hit cannot alias the
// stored entry: callers may retain and mutate the returned perfs.
func TestSolveCacheReturnsFreshSlices(t *testing.T) {
	coldSharedCache(t)
	cached, _, _ := twinMachines(t, DefaultConfig())
	first, err := cached.Solve()
	if err != nil {
		t.Fatal(err)
	}
	second, err := cached.Solve() // cache hit
	if err != nil {
		t.Fatal(err)
	}
	if st := SharedSolveCacheStats(); st.Hits != 1 {
		t.Fatalf("the second solve was not a cache hit: %+v", st)
	}
	if &first[0] == &second[0] {
		t.Fatal("cache hit returned the same backing array twice")
	}
	saved := second[0]
	first[0].IPS = -1
	if second[0] != saved {
		t.Fatal("mutating one returned slice changed another")
	}
	second[0].IPS = -1
	third, err := cached.Solve() // another hit on the same entry
	if err != nil {
		t.Fatal(err)
	}
	if third[0] != saved {
		t.Fatal("mutating a returned slice changed the cached entry")
	}
}

// TestSolveCachePublishesOnSolve pins when a fresh solve becomes
// visible: at once. A second machine's solve of the state the writer just
// solved is a hit — no Step, Reset or FlushShared in between — and returns
// the writer's result bit for bit.
func TestSolveCachePublishesOnSolve(t *testing.T) {
	coldSharedCache(t)
	cfg := DefaultConfig()
	writer, _, models := twinMachines(t, cfg)
	reader, err := New(cfg, WithSolveCache())
	if err != nil {
		t.Fatal(err)
	}
	masks, err := AssignContiguousWays([]int{4, 3, 2, 2}, 0, cfg.LLCWays)
	if err != nil {
		t.Fatal(err)
	}
	allocs := make([]Alloc, len(models))
	for i := range allocs {
		allocs[i] = Alloc{CBM: masks[i], MBALevel: 60}
	}
	want, err := writer.SolveFor(models, allocs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := reader.SolveFor(models, allocs)
	if err != nil {
		t.Fatal(err)
	}
	if st := SharedSolveCacheStats(); st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("the writer's miss and the reader's lookup left %d hits, %d misses, %d entries; want 1, 1, 1",
			st.Hits, st.Misses, st.Entries)
	}
	for i := range want {
		if perfBits(got[i]) != perfBits(want[i]) {
			t.Fatalf("app %d: the reader's hit %+v differs from the writer's solve %+v", i, got[i], want[i])
		}
	}
}

// TestSolveCacheKeepsEveryState pins that the shard cap is the cache's
// only bound: one machine solving more distinct states than a shard holds
// (but far fewer than the cache does) keeps every one of them, so solving
// them all again, with no Reset in between, is all hits.
func TestSolveCacheKeepsEveryState(t *testing.T) {
	coldSharedCache(t)
	cfg := DefaultConfig()
	m, err := New(cfg, WithSolveCache())
	if err != nil {
		t.Fatal(err)
	}
	models := []AppModel{llcSensitiveModel(), bwSensitiveModel()}
	models[0].Name, models[1].Name = "a", "b"
	// Distinct states: app a's contiguous CBM and both apps' MBA levels.
	const want = 4104
	var states [][]Alloc
	for lo := 0; lo < cfg.LLCWays && len(states) < want; lo++ {
		for hi := lo + 1; hi <= cfg.LLCWays && len(states) < want; hi++ {
			for la := 10; la <= 100 && len(states) < want; la += 10 {
				for lb := 10; lb <= 100 && len(states) < want; lb += 10 {
					cbm := (uint64(1)<<hi - 1) &^ (uint64(1)<<lo - 1)
					states = append(states, []Alloc{{CBM: cbm, MBALevel: la}, {CBM: cfg.FullMask(), MBALevel: lb}})
				}
			}
		}
	}
	if len(states) != want {
		t.Fatalf("built %d states, want %d", len(states), want)
	}
	perfs := make([]Perf, len(models))
	solveAll := func() {
		t.Helper()
		for _, allocs := range states {
			if err := m.SolveForInto(perfs, models, allocs); err != nil {
				t.Fatal(err)
			}
		}
	}
	solveAll()
	if st := SharedSolveCacheStats(); st.Entries != want || st.Misses != want || st.Evictions != 0 {
		t.Fatalf("%d fresh solves left %+v; want %d entries and misses, no eviction", want, st, want)
	}
	before := SharedSolveCacheStats()
	solveAll()
	after := SharedSolveCacheStats()
	if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != want || misses != 0 {
		t.Fatalf("re-solving made %d hits and %d misses; want %d and 0", hits, misses, want)
	}
}

// TestSolveCacheNeverStale is what invalidation used to promise, checked
// on values: a memoizing machine and a twin that recomputes every solve
// (the cache switched off around its run) are driven through every
// event that changes what a solve depends on — AddApp, RemoveApp, a
// hot-state restore, a phase boundary, Reset and a relaunch — and return
// bit-equal Solve results at every step. The memoizing machine runs
// against a cache a third machine warmed with the same script, so each
// of its solves is a lookup of an entry stored before the event, and
// nothing was ever dropped from the cache. Staleness is impossible
// because the key carries every solver input (config digest, resolved
// model digests, allocations): a changed input is a different key.
func TestSolveCacheNeverStale(t *testing.T) {
	coldSharedCache(t)
	cfg := DefaultConfig()
	phased := llcSensitiveModel()
	phased.Name = "a"
	phased.Phases = []ModelPhase{
		{Duration: 2 * time.Second},
		{Duration: 2 * time.Second, AccScale: 3},
	}
	models := []AppModel{phased, bwSensitiveModel(), dualSensitiveModel(), insensitiveModel()}
	for i := 1; i < len(models); i++ {
		models[i].Name = string(rune('a' + i))
	}
	newcomer := dualSensitiveModel()
	newcomer.Name = "e"
	newcomer.AccPerInstr *= 2

	// drive runs the script on m and returns the solve after each event.
	drive := func(m *Machine) (steps []string, solves [][]Perf) {
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		solve := func(step string) {
			t.Helper()
			perfs, err := m.Solve()
			must(err)
			steps, solves = append(steps, step), append(solves, perfs)
		}
		partition := func(names []string, counts []int, level int) {
			t.Helper()
			masks, err := AssignContiguousWays(counts, 0, cfg.LLCWays)
			must(err)
			for i, name := range names {
				must(m.SetAllocation(name, Alloc{CBM: masks[i], MBALevel: level}))
			}
		}
		launch := func() {
			for _, model := range models {
				must(m.AddApp(model))
			}
			solve("launch")
			partition([]string{"a", "b", "c", "d"}, []int{3, 3, 3, 2}, 70)
			solve("partition")
		}
		launch()
		must(m.RemoveApp("d"))
		solve("RemoveApp")
		must(m.AddApp(newcomer))
		solve("AddApp")
		hot, err := m.CaptureHotState()
		must(err)
		must(m.Step(time.Second))
		partition([]string{"a", "b", "c", "e"}, []int{5, 2, 2, 2}, 40)
		solve("moved on")
		must(m.RestoreHotState(hot))
		solve("RestoreHotState")
		for i := 0; i < 5; i++ { // t = 1 … 5 s: into phase 2 and back
			must(m.Step(time.Second))
			solve("phase boundary")
		}
		m.Reset()
		launch()
		return steps, solves
	}

	warm, err := New(cfg, WithSolveCache())
	if err != nil {
		t.Fatal(err)
	}
	drive(warm)
	warmed := SharedSolveCacheStats()
	cached, err := New(cfg, WithSolveCache())
	if err != nil {
		t.Fatal(err)
	}
	steps, got := drive(cached)
	after := SharedSolveCacheStats()
	if after.Misses != warmed.Misses || after.Hits == warmed.Hits || after.Evictions != 0 {
		t.Fatalf("the second pass was not served from the warm cache: %+v → %+v", warmed, after)
	}
	bare, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]Perf
	recomputing(func() { _, want = drive(bare) })
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("solve %d (after %s): memoized result diverged:\ncached: %+v\nbare:   %+v", i, steps[i], got[i], want[i])
		}
	}
	// The script does change the answer: a test whose steps all solved to
	// the same perfs would pass on a stale entry too.
	for i := 1; i < len(want); i++ {
		if steps[i] != "phase boundary" && reflect.DeepEqual(want[i], want[i-1]) {
			t.Errorf("solve %d (after %s) equals the solve before it: the event changed nothing", i, steps[i])
		}
	}
}

// TestSolveCachePhased checks time-varying models stay correct under
// memoization: advancing time across a phase boundary must not serve the
// previous phase's solution. The cached machine's Solve is compared
// against a plain machine's, which is recomputed, stepped identically.
func TestSolveCachePhased(t *testing.T) {
	coldSharedCache(t)
	cfg := DefaultConfig()
	phased := llcSensitiveModel()
	phased.Name = "p"
	phased.Phases = []ModelPhase{
		{Duration: 2 * time.Second},
		{Duration: 2 * time.Second, AccScale: 3},
	}
	other := bwSensitiveModel()
	other.Name = "q"

	cached, err := New(cfg, WithSolveCache())
	if err != nil {
		t.Fatal(err)
	}
	bare, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*Machine{cached, bare} {
		if err := m.AddApp(phased); err != nil {
			t.Fatal(err)
		}
		if err := m.AddApp(other); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; step < 5; step++ {
		got, err := cached.Solve()
		if err != nil {
			t.Fatal(err)
		}
		want, err := bare.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: phased cached solve diverged:\ncached: %+v\nbare:   %+v", step, got, want)
		}
		if err := cached.Step(time.Second); err != nil {
			t.Fatal(err)
		}
		if err := bare.Step(time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// Five solves over a two-phase cycle — phase 1 at t = 0, 1 and 4 s,
	// phase 2 at t = 2 and 3 s: one entry per phase, each served again
	// after the boundary was crossed.
	if st := SharedSolveCacheStats(); st.Entries != 2 || st.Hits == 0 {
		t.Errorf("two phases left %d entries and %d hits, want 2 entries and some hits", st.Entries, st.Hits)
	}
}
