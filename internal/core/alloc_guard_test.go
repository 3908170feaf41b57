package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/workloads"
)

// TestManagerPeriodAllocationGuard pins the control-period allocation
// budget (DESIGN.md §8): once the manager's scratch buffers are warm, a
// steady-state exploration period — sample counters, step the machine,
// update the classifiers, run the HR matching, program the next state —
// must not allocate. The process-wide solve cache is switched off on
// purpose: cache misses store freshly-allocated entries, which is a
// memoization cost, not a per-period controller cost, and would drown
// the signal this test exists to catch.
func TestManagerPeriodAllocationGuard(t *testing.T) {
	defer machine.SetSharedSolveCache(machine.SetSharedSolveCache(false))
	cfg := machine.DefaultConfig()
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	models, err := workloads.Mix(cfg, workloads.HBoth, 4)
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
	params := DefaultParams()
	// An effectively infinite retry budget keeps the manager in the
	// exploration phase for the whole measurement (repeated states perturb
	// instead of going idle), so every measured iteration runs the same path.
	params.Theta = 1 << 30
	mgr, err := NewManager(m, params, ref, Envelope{LoWay: 0, Ways: cfg.LLCWays},
		rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Profile(); err != nil {
		t.Fatal(err)
	}
	// Warm the per-period scratch, then pre-grow the ExploreTimes journal so
	// its amortized append growth doesn't leak into the measurement.
	for i := 0; i < 8; i++ {
		if _, err := mgr.ExploreStep(); err != nil {
			t.Fatal(err)
		}
	}
	times := make([]time.Duration, len(mgr.ExploreTimes), len(mgr.ExploreTimes)+256)
	copy(times, mgr.ExploreTimes)
	mgr.ExploreTimes = times

	const budget = 2 // slack for the runtime; the period itself must be clean
	avg := testing.AllocsPerRun(100, func() {
		if _, err := mgr.ExploreStep(); err != nil {
			t.Fatal(err)
		}
	})
	if avg > budget {
		t.Errorf("ExploreStep allocates %.1f times per period, budget is %d", avg, budget)
	}
	if mgr.Phase() != PhaseExplore {
		t.Fatalf("manager left exploration during the guard run: %v", mgr.Phase())
	}
}

// TestGetNextSystemStateAllocationGuard pins the allocator itself: with a
// warm destination state and scratch, one HR matching step over a mix of
// producers, consumers, and dual-resource participants allocates nothing.
func TestGetNextSystemStateAllocationGuard(t *testing.T) {
	cur := AllocState{Ways: []int{4, 3, 2, 2}, MBA: []int{40, 60, 80, 100}}
	apps := []AppInfo{
		{LLCState: Demand, MBAState: Demand, Slowdown: 1.9},
		{LLCState: Supply, MBAState: Supply, Slowdown: 1.1},
		{LLCState: Demand, MBAState: Maintain, Slowdown: 1.6},
		{LLCState: Maintain, MBAState: Supply, Slowdown: 1.2},
	}
	rng := rand.New(rand.NewSource(7))
	var next AllocState
	var sc AllocatorScratch
	if err := GetNextSystemStateInto(&next, cur, apps, 11, rng, &sc); err != nil {
		t.Fatal(err)
	}
	const budget = 2
	avg := testing.AllocsPerRun(100, func() {
		if err := GetNextSystemStateInto(&next, cur, apps, 11, rng, &sc); err != nil {
			t.Fatal(err)
		}
	})
	if avg > budget {
		t.Errorf("GetNextSystemStateInto allocates %.1f times per call, budget is %d", avg, budget)
	}
}

// TestObservedIdlePeriodAllocationGuard pins copy-on-change reporting
// (DESIGN.md §8.1): with an observer that retains every report, an idle
// period — same state, same slowdowns — hands out the slices the last
// report carried and allocates nothing.
func TestObservedIdlePeriodAllocationGuard(t *testing.T) {
	cfg := machine.DefaultConfig()
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	models, err := workloads.Mix(cfg, workloads.HBoth, 4)
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
	mgr, err := NewManager(m, DefaultParams(), ref, Envelope{LoWay: 0, Ways: cfg.LLCWays},
		rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	reports := make([]PeriodReport, 0, 4096)
	mgr.OnPeriod = func(r PeriodReport) { reports = append(reports, r) }
	if err := mgr.Profile(); err != nil {
		t.Fatal(err)
	}
	for done := false; !done; {
		if done, err = mgr.ExploreStep(); err != nil {
			t.Fatal(err)
		}
		if len(reports) > 1000 {
			t.Fatal("exploration did not settle")
		}
	}
	for i := 0; i < 4; i++ {
		if _, err := mgr.IdleStep(); err != nil {
			t.Fatal(err)
		}
	}
	before := len(reports)
	avg := testing.AllocsPerRun(100, func() {
		if _, err := mgr.IdleStep(); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("an observed idle period allocates %.1f times, want 0", avg)
	}
	if mgr.Phase() != PhaseIdle || len(reports) != before+101 {
		t.Fatalf("guard run left idle (%v) or skipped reports (%d of 101)", mgr.Phase(), len(reports)-before)
	}
	// Counters keep growing, so an idle slowdown can still move by an ulp
	// now and then; what must hold is that equal values share.
	for i := before + 1; i < len(reports); i++ {
		prev, cur := reports[i-1], reports[i]
		if sameBits(prev.Slowdowns, cur.Slowdowns) && &prev.Slowdowns[0] != &cur.Slowdowns[0] {
			t.Fatalf("report %d repeats the last slowdowns in a fresh slice", i)
		}
		if prev.State.Equal(cur.State) && (&prev.State.Ways[0] != &cur.State.Ways[0] || &prev.State.MBA[0] != &cur.State.MBA[0]) {
			t.Fatalf("report %d repeats the last state in a fresh slice", i)
		}
	}
}
