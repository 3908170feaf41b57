package fleet

import (
	"reflect"
	"testing"

	"repro/internal/parallel"
)

// runChurnAtWorkers mirrors runAtWorkers for the churn driver.
func runChurnAtWorkers(t *testing.T, workers int, cfg ChurnConfig) Result {
	t.Helper()
	parallel.SetWorkers(workers)
	defer parallel.SetWorkers(0)
	res, err := RunChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFleetChurnGolden pins the pool's exactness contract under churn:
// arriving nodes reuse runtimes departing nodes of *different* mix
// shapes returned, and every NodeResult must still be bit-identical to
// the unpooled reference — across seeds, with a warm pool, and at
// different worker counts.
func TestFleetChurnGolden(t *testing.T) {
	for _, seed := range []int64{1, 42, 1234} {
		cfg := ChurnConfig{Arrivals: 12, MeanLife: 6, MaxLife: 12, Seed: seed}
		pooled := runChurnAtWorkers(t, 2, cfg)
		warm := runChurnAtWorkers(t, 1, cfg)
		unpool := freshSubstrates()
		fresh := runChurnAtWorkers(t, 4, cfg)
		unpool()
		if !reflect.DeepEqual(pooled.Nodes, fresh.Nodes) {
			t.Fatalf("seed %d: pooled churn nodes differ from fresh nodes:\npooled: %+v\nfresh:  %+v",
				seed, pooled.Nodes, fresh.Nodes)
		}
		if !reflect.DeepEqual(warm.Nodes, fresh.Nodes) {
			t.Fatalf("seed %d: warm pooled churn nodes differ from fresh nodes:\nwarm:  %+v\nfresh: %+v",
				seed, warm.Nodes, fresh.Nodes)
		}
		if !reflect.DeepEqual(pooled.Churn, fresh.Churn) {
			t.Fatalf("seed %d: churn stats differ: %+v vs %+v", seed, pooled.Churn, fresh.Churn)
		}
	}
}

// TestChurnSchedule sanity-checks the deterministic schedule outputs:
// arrivals strictly increase, lifetimes honour the clamp and land in
// the NodeResults, and the live-population sweep is coherent.
func TestChurnSchedule(t *testing.T) {
	cfg := ChurnConfig{Arrivals: 40, Rate: 2, MeanLife: 5, MinLife: 2, MaxLife: 9, Seed: 7}
	res := runChurnAtWorkers(t, 2, cfg)
	prev := 0.0
	for i, nr := range res.Nodes {
		if nr.Arrival <= prev {
			t.Fatalf("node %d: arrival %v not after %v", i, nr.Arrival, prev)
		}
		prev = nr.Arrival
		if nr.Lifetime < cfg.MinLife || nr.Lifetime > cfg.MaxLife {
			t.Fatalf("node %d: lifetime %d outside [%d, %d]", i, nr.Lifetime, cfg.MinLife, cfg.MaxLife)
		}
		if nr.Periods != nr.Lifetime {
			t.Fatalf("node %d: executed %d periods, lifetime %d", i, nr.Periods, nr.Lifetime)
		}
	}
	if res.Churn.PeakLive < 1 || res.Churn.PeakLive > cfg.Arrivals {
		t.Fatalf("peak live %d outside [1, %d]", res.Churn.PeakLive, cfg.Arrivals)
	}
	if res.Churn.MeanLive <= 0 || res.Churn.MeanLive > float64(res.Churn.PeakLive) {
		t.Fatalf("mean live %v not in (0, peak %d]", res.Churn.MeanLive, res.Churn.PeakLive)
	}
	if res.TotalPeriods == 0 || res.P99 < res.P50 {
		t.Fatalf("implausible run: %d periods, p50 %v, p99 %v", res.TotalPeriods, res.P50, res.P99)
	}
}

// TestChurnPoolCounters pins that the pool actually cycles under
// sequential churn: after a cold run warms it, every arrival of a
// second run reuses a warm runtime — either popped from the pool (a
// hit, one per dispatch block) or handed over inside its block (a
// carry). The explicit Block exercises both legs.
func TestChurnPoolCounters(t *testing.T) {
	cfg := ChurnConfig{Arrivals: 10, MeanLife: 4, MaxLife: 8, Seed: 11, Block: 5}
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(0)
	if _, err := RunChurn(cfg); err != nil { // warm the pool
		t.Fatal(err)
	}
	res, err := RunChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pool.Hits+res.Pool.Carries != uint64(cfg.Arrivals) {
		t.Errorf("warm sequential churn: %d hits + %d carries, want %d total (misses %d, evictions %d)",
			res.Pool.Hits, res.Pool.Carries, cfg.Arrivals, res.Pool.Misses, res.Pool.Evictions)
	}
	// 2 blocks of 5 → one pool pop per block, the other 4 nodes carry.
	if res.Pool.Carries != 8 {
		t.Errorf("warm sequential churn: %d carries, want 8", res.Pool.Carries)
	}
	if res.Pool.Free < 1 {
		t.Errorf("pool free list empty after churn run")
	}

	defer freshSubstrates()()
	res, err = RunChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pool.Hits != 0 || res.Pool.Misses != 0 || res.Pool.Carries != 0 {
		t.Errorf("unpooled churn touched the pool: %+v", res.Pool)
	}
}

// TestChurnValidation covers the config error paths.
func TestChurnValidation(t *testing.T) {
	for _, cfg := range []ChurnConfig{
		{Arrivals: 0},
		{Arrivals: 4, Rate: -1},
		{Arrivals: 4, MeanLife: -2},
		{Arrivals: 4, MinLife: 5, MaxLife: 3},
	} {
		if _, err := RunChurn(cfg); err == nil {
			t.Errorf("RunChurn(%+v) accepted", cfg)
		}
	}
}

// TestChurnSteadyStateAllocs pins the tentpole acceptance target: zero
// allocations per churn run once the pool, schedule scratch, stripes,
// caches, and a reused Result are warm — independent of
// arrivals × periods.
func TestChurnSteadyStateAllocs(t *testing.T) {
	cfg := ChurnConfig{Arrivals: 8, MeanLife: 5, MaxLife: 10, Seed: 3}
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(0)
	var res Result
	for i := 0; i < 2; i++ { // warm every tier
		if err := RunChurnInto(cfg, &res); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(5, func() {
		if err := RunChurnInto(cfg, &res); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("steady-state churn run allocates %.1f times, want 0", avg)
	}
}
