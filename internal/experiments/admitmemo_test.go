package experiments

import (
	"testing"
	"time"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// TestAdmitCyclesAreSolveCacheHits runs copartd's shape — a plain
// machine, H-Both × 3 apps, a control plane drained between periods —
// through two admit → evict cycles of the same guest model under two
// names. The manager re-profiles after every admission and eviction, and
// its probe states repeat verbatim; the plain machine memoizes the
// shared-way ones and keys none of its private-partition exploration
// states, so the whole second cycle must run on process-wide cache hits
// without a single miss. Memoizing must change speed only: the run
// reports bit-identically with the cache switched off. Not parallel: the
// cache counters are process-wide.
func TestAdmitCyclesAreSolveCacheHits(t *testing.T) {
	guest := func(name string) controlplane.AppSpec {
		return controlplane.AppSpec{Name: name, Benchmark: "EP", Cores: 1}
	}
	sched := []controlplane.ScheduledOp{
		{At: 30 * time.Second, Kind: "add", Spec: guest("guest-a")},
		{At: 60 * time.Second, Kind: "remove", Spec: guest("guest-a")},
		{At: 90 * time.Second, Kind: "add", Spec: guest("guest-b")},
		{At: 120 * time.Second, Kind: "remove", Spec: guest("guest-b")},
	}
	const secondCycle = 2 // sched index of the second admission

	// run returns the run's report digest and the shared-cache movement
	// up to the second admission (boot and first cycle) and after it.
	run := func() (digest uint64, first, second machine.SharedCacheStats) {
		t.Helper()
		cfg := machine.DefaultConfig()
		m, err := machine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		models, err := workloads.Mix(cfg, workloads.HBoth, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range models {
			if err := m.AddApp(model); err != nil {
				t.Fatal(err)
			}
		}
		ref, err := workloads.StreamMissRates(m)
		if err != nil {
			t.Fatal(err)
		}
		rng, _ := core.NewSeededRand(1)
		mgr, err := core.NewManager(m, core.DefaultParams(), ref,
			core.Envelope{LoWay: 0, Ways: cfg.LLCWays}, rng)
		if err != nil {
			t.Fatal(err)
		}
		plane := controlplane.New(&controlplane.MachineAdmitter{M: m, Mgr: mgr}, mgr, nil)
		var reports []core.PeriodReport
		mgr.OnPeriod = func(r core.PeriodReport) {
			reports = append(reports, r)
			plane.Observe(r)
		}
		start := machine.SharedSolveCacheStats()
		mid := start
		next := 0
		var schedErr error
		mgr.BetweenPeriods = func() {
			due, err := plane.EnqueueDue(sched, next, m.Now())
			if err != nil && schedErr == nil {
				schedErr = err
			}
			if next <= secondCycle && due > secondCycle {
				mid = machine.SharedSolveCacheStats()
			}
			next = due
			plane.Drain()
		}
		if err := mgr.Run(150 * time.Second); err != nil {
			t.Fatal(err)
		}
		if schedErr != nil {
			t.Fatal(schedErr)
		}
		if ok, rejected := plane.AdmissionStats(); ok != uint64(len(sched)) || rejected != 0 {
			t.Fatalf("%d ops applied, %d rejected; want all %d applied", ok, rejected, len(sched))
		}
		if apps := m.Apps(); len(apps) != len(models) {
			t.Fatalf("the run ends with apps %v, want the %d of the boot mix", apps, len(models))
		}
		return core.ReportsDigest(reports), delta(start, mid), delta(mid, machine.SharedSolveCacheStats())
	}

	prev := machine.SetSharedSolveCache(true)
	defer machine.SetSharedSolveCache(prev)
	machine.ResetSharedSolveCache()
	defer machine.ResetSharedSolveCache()
	memoized, first, second := run()
	t.Logf("boot and first cycle %+v, second cycle %+v", first, second)
	if first.Misses == 0 {
		t.Errorf("the first cycle solved nothing through the cache: %+v", first)
	}
	if second.Misses != 0 || second.Hits == 0 {
		t.Errorf("the second cycle made %d misses and %d hits; want 0 misses and some hits",
			second.Misses, second.Hits)
	}

	machine.SetSharedSolveCache(false)
	recomputed, _, _ := run()
	if memoized != recomputed {
		t.Errorf("reports digest %#x memoized, %#x recomputed", memoized, recomputed)
	}
}

// delta is the counter movement from a to b.
func delta(a, b machine.SharedCacheStats) machine.SharedCacheStats {
	return machine.SharedCacheStats{
		Hits: b.Hits - a.Hits, Misses: b.Misses - a.Misses,
		Evictions: b.Evictions - a.Evictions, Entries: b.Entries - a.Entries,
	}
}
