package fleet

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
)

// measuredSubstrates is the fast-forward's reference arm: every node of
// the runs that follow controls its machine through a wrapper that hides
// Stationary, so SkipIdle refuses and every period is measured, until the
// returned restore function is called.
func measuredSubstrates() (restore func()) {
	testNodeTarget = func(_ int, m *machine.Machine) (core.Target, core.Resilience) {
		return struct{ core.Target }{m}, core.Resilience{}
	}
	return func() { testNodeTarget = nil }
}

// TestSkipIdleFleetMatchesMeasured: fast-forwarded fleets and churn runs
// equal the every-period-measured reference arm on every NodeResult
// field (Unfairness by bits) and on TotalPeriods, at the tuning seed and
// the held-out one. The fast arm must actually skip: it keeps fewer
// latency samples than it ran periods, which the reference never does at
// these sizes (stride 1).
func TestSkipIdleFleetMatchesMeasured(t *testing.T) {
	compare := func(name string, fast, ref Result) {
		t.Helper()
		if fast.TotalPeriods != ref.TotalPeriods {
			t.Errorf("%s: TotalPeriods %d, want %d", name, fast.TotalPeriods, ref.TotalPeriods)
		}
		for i := range ref.Nodes {
			f, r := fast.Nodes[i], ref.Nodes[i]
			if math.Float64bits(f.Unfairness) != math.Float64bits(r.Unfairness) {
				t.Errorf("%s: node %d unfairness %v, want %v", name, i, f.Unfairness, r.Unfairness)
			}
			f.Unfairness, r.Unfairness = 0, 0
			if !reflect.DeepEqual(f, r) {
				t.Errorf("%s: node %d\nfast: %+v\nref:  %+v", name, i, f, r)
			}
		}
		kept := func(res Result) (n int) {
			for _, b := range res.Blocks {
				n += b.Samples
			}
			return n
		}
		if kept(ref) != ref.TotalPeriods || kept(fast) >= fast.TotalPeriods {
			t.Errorf("%s: kept %d of %d periods fast-forwarded, %d of %d measured; want fewer and all",
				name, kept(fast), fast.TotalPeriods, kept(ref), ref.TotalPeriods)
		}
	}
	for _, seed := range []int64{1, 7} {
		cfg := Config{Nodes: 64, Periods: 50, Seed: seed}
		ccfg := ChurnConfig{Arrivals: 48, MeanLife: 30, MaxLife: 60, Seed: seed}
		fast := runAtWorkers(t, 2, cfg)
		fastChurn := runChurnAtWorkers(t, 2, ccfg)
		restore := measuredSubstrates()
		ref := runAtWorkers(t, 2, cfg)
		refChurn := runChurnAtWorkers(t, 2, ccfg)
		restore()
		compare(fmt.Sprintf("fixed seed %d", seed), fast, ref)
		compare(fmt.Sprintf("churn seed %d", seed), fastChurn, refChurn)
	}
}
