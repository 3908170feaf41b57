package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/splitmix"
	"repro/internal/workloads"
)

// standaloneNode rebuilds fleet node i by hand, with none of the fleet's
// machinery: a fresh machine, the mix and STREAM reference computed
// directly, a new manager with the default features, a live Profile, and
// the fleet's period loop — with the process-wide solve cache switched
// off, so every solve is recomputed.
func standaloneNode(cfg Config, i int) (NodeResult, error) {
	defer machine.SetSharedSolveCache(machine.SetSharedSolveCache(false))
	var src splitmix.Source
	src.Seed(cfg.nodeSeed(i))
	rng := rand.New(&src)
	kind := mixKinds[rng.Intn(len(mixKinds))]
	nApps := 3 + rng.Intn(maxMixApps-2)

	m, err := machine.New(cfg.Machine)
	if err != nil {
		return NodeResult{}, err
	}
	ref, err := workloads.StreamMissRates(m)
	if err != nil {
		return NodeResult{}, err
	}
	models, err := workloads.Mix(cfg.Machine, kind, nApps)
	if err != nil {
		return NodeResult{}, err
	}
	for _, model := range models {
		if err := m.AddApp(model); err != nil {
			return NodeResult{}, err
		}
	}
	mgr, err := core.NewManager(m, core.DefaultParams(), ref,
		core.Envelope{LoWay: 0, Ways: cfg.Machine.LLCWays}, rng)
	if err != nil {
		return NodeResult{}, err
	}
	if mgr.Features != core.DefaultFeatures() {
		return NodeResult{}, fmt.Errorf("new manager's features %+v are not the defaults", mgr.Features)
	}
	if err := mgr.Profile(); err != nil {
		return NodeResult{}, err
	}
	for p := 0; p < cfg.Periods; p++ {
		switch mgr.Phase() {
		case core.PhaseExplore:
			_, err = mgr.ExploreStep()
		case core.PhaseIdle:
			_, err = mgr.IdleStep()
		default:
			err = fmt.Errorf("unexpected phase %v", mgr.Phase())
		}
		if err != nil {
			return NodeResult{}, err
		}
		if mgr.Phase() == core.PhaseProfile {
			if err := mgr.Profile(); err != nil {
				return NodeResult{}, err
			}
		}
	}
	st := mgr.State()
	return NodeResult{
		Mix: kind.String(), Apps: nApps,
		Unfairness: mgr.LastUnfairness(),
		Ways:       st.Ways, MBA: st.MBA,
		Phase: mgr.Phase().String(),
	}, nil
}

// TestFleetNodeMatchesStandalone is the check for "one arithmetic": a
// fleet node ends on exactly the allocation, phase and Equation 2 bits
// of the same consolidation controlled stand-alone, noise-free and under
// PMC jitter. The fleet arm runs twice so the second pass lands on
// pooled runtimes, carries, restored profile memos and a warm solve
// cache; the stand-alone arm has none of them, the solve cache switched
// off included — so all of those change speed, never values.
func TestFleetNodeMatchesStandalone(t *testing.T) {
	noisy := machine.DefaultConfig()
	noisy.MeasurementNoise, noisy.NoiseSeed = 0.02, 1
	for _, mcfg := range []machine.Config{machine.DefaultConfig(), noisy} {
		for _, seed := range []int64{1, 7} {
			cfg := Config{Nodes: 64, Periods: 50, Seed: seed, Machine: mcfg}
			runAtWorkers(t, 2, cfg)
			res := runAtWorkers(t, 2, cfg)
			for i, got := range res.Nodes {
				want, err := standaloneNode(cfg, i)
				if err != nil {
					t.Fatalf("noise %v seed %d node %d stand-alone: %v", mcfg.MeasurementNoise, seed, i, err)
				}
				if got.Mix != want.Mix || got.Apps != want.Apps || got.Phase != want.Phase ||
					!slices.Equal(got.Ways, want.Ways) || !slices.Equal(got.MBA, want.MBA) ||
					math.Float64bits(got.Unfairness) != math.Float64bits(want.Unfairness) {
					t.Errorf("noise %v seed %d node %d:\nfleet:       %s/%d %s ways %v mba %v unfairness %x\nstand-alone: %s/%d %s ways %v mba %v unfairness %x",
						mcfg.MeasurementNoise, seed, i,
						got.Mix, got.Apps, got.Phase, got.Ways, got.MBA, math.Float64bits(got.Unfairness),
						want.Mix, want.Apps, want.Phase, want.Ways, want.MBA, math.Float64bits(want.Unfairness))
				}
			}
		}
	}
}
