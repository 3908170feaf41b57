package fleet

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/parallel"
)

// TestFleetPoolGolden pins the pool's exactness contract: a node run on
// a reinitialized pooled runtime produces a NodeResult bit-identical to
// one run on freshly constructed substrates (freshSubstrates), across
// several seeds. The third run exercises actual reuse — by then the
// pool holds the first pooled run's runtimes, so every node of the
// second pooled run lands on a recycled machine/manager/RNG.
func TestFleetPoolGolden(t *testing.T) {
	for _, seed := range []int64{1, 42, 1234} {
		cfg := Config{Nodes: 6, Periods: 8, Seed: seed}
		pooled := runAtWorkers(t, 2, cfg)
		warm := runAtWorkers(t, 2, cfg)
		unpool := freshSubstrates()
		fresh := runAtWorkers(t, 2, cfg)
		unpool()
		if !reflect.DeepEqual(pooled.Nodes, fresh.Nodes) {
			t.Fatalf("seed %d: pooled nodes differ from fresh nodes:\npooled: %+v\nfresh:  %+v",
				seed, pooled.Nodes, fresh.Nodes)
		}
		if !reflect.DeepEqual(warm.Nodes, fresh.Nodes) {
			t.Fatalf("seed %d: warm pooled nodes differ from fresh nodes:\nwarm:  %+v\nfresh: %+v",
				seed, warm.Nodes, fresh.Nodes)
		}
	}
}

// freshSubstrates sends every node of the runs that follow down the
// unpooled path on its plain machine — the goldens' reference arm — until
// the returned restore function is called.
func freshSubstrates() (restore func()) {
	testNodeTarget = func(_ int, m *machine.Machine) (core.Target, core.Resilience) {
		return m, core.Resilience{}
	}
	return func() { testNodeTarget = nil }
}

// TestPoolFreeBoundedByWorkers pins the bound that holds the free list
// in place of a cap: each block takes one runtime and gives it back, so
// a run takes once per block, carries every other node, and leaves no
// more idle runtimes than blocks that ran at the same time. The runs
// start from an empty registry, so runtimes left by earlier tests at
// other worker counts do not count against the bound.
func TestPoolFreeBoundedByWorkers(t *testing.T) {
	cfg := Config{Nodes: 24, Periods: 3, Seed: 5, Block: 2}
	dropSubstrates()
	runAtWorkers(t, 2, cfg)
	parallel.SetWorkers(2)
	res, err := Run(cfg)
	workers := parallel.Workers()
	parallel.SetWorkers(0)
	if err != nil {
		t.Fatal(err)
	}
	if takes := res.Pool.Hits + res.Pool.Misses; takes != 12 {
		t.Errorf("%d hits + %d misses = %d takes, want one per block (12)", res.Pool.Hits, res.Pool.Misses, takes)
	}
	if res.Pool.Carries != 12 {
		t.Errorf("%d carries, want 12 (one per 2-node block)", res.Pool.Carries)
	}
	if res.Pool.Free > workers {
		t.Errorf("%d idle runtimes after a run at %d workers", res.Pool.Free, workers)
	}
	unpool := freshSubstrates()
	fresh := runAtWorkers(t, 2, cfg)
	unpool()
	if !reflect.DeepEqual(res.Nodes, fresh.Nodes) {
		t.Errorf("nodes on reused runtimes differ from fresh nodes:\nreused: %+v\nfresh:  %+v", res.Nodes, fresh.Nodes)
	}
}

// dropSubstrates empties the substrate registry, so the runs that follow
// start cold whatever earlier tests left behind.
func dropSubstrates() {
	substrates.Lock()
	substrates.byConfig = nil
	substrates.Unlock()
}

// TestFleetSteadyStateAllocs pins the tentpole: once the substrate's
// runtimes and mix cache, the solve cache, the stripes, and a reused
// Result are warm, a sequential RunInto allocates NOTHING — not a
// bounded fixed cost, zero. Block dispatch calls a package-level
// function inline, the stripes and merge scratch retain capacity, and
// the per-node period loop was already allocation-free.
func TestFleetSteadyStateAllocs(t *testing.T) {
	if avg := warmRunAllocs(t, Config{Nodes: 8, Periods: 5, Seed: 3}); avg != 0 {
		t.Errorf("steady-state fleet run allocates %.1f times, want 0", avg)
	}
}

// TestFleetNoisySteadyStateAllocs holds a noisy fleet to the noise-free
// budget. Noisy nodes profile live, but every node launch reseeds the
// machine's jitter stream in one store; under the retired math/rand
// source each launch left a 4.9 KB source behind.
func TestFleetNoisySteadyStateAllocs(t *testing.T) {
	cfg := Config{Nodes: 8, Periods: 5, Seed: 3, Machine: machine.DefaultConfig()}
	cfg.Machine.MeasurementNoise, cfg.Machine.NoiseSeed = 0.02, 3
	if avg := warmRunAllocs(t, cfg); avg != 0 {
		t.Errorf("steady-state noisy fleet run allocates %.1f times, want 0", avg)
	}
}

// warmRunAllocs returns the allocations of one sequential RunInto once
// two runs have warmed the pool, the caches, and the Result.
func warmRunAllocs(t *testing.T, cfg Config) float64 {
	t.Helper()
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(0)
	var res Result
	for i := 0; i < 2; i++ {
		if err := RunInto(cfg, &res); err != nil {
			t.Fatal(err)
		}
	}
	return testing.AllocsPerRun(5, func() {
		if err := RunInto(cfg, &res); err != nil {
			t.Fatal(err)
		}
	})
}
