package experiments

import (
	"testing"
	"time"

	"repro/internal/controlplane"
	"repro/internal/faultinject"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// TestChaosSoak is the chaos soak, with and without admission churn:
// the resilient controller rides out the standard fault schedule
// without Run erroring, falls back to EQ at least once, recovers to
// idle after the faults clear, and its mean unfairness stays within
// 1.5x of the fault-free run. Under churn every op must land — the
// storm may degrade the controller but never lose an admission — and
// the membership must end where the schedule leaves it.
func TestChaosSoak(t *testing.T) {
	for _, tc := range []struct {
		name  string
		churn []ChurnOp
	}{
		{"no churn", nil},
		{"default churn", DefaultChurn()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Chaos(machine.DefaultConfig(), faultinject.Standard(), tc.churn, 1, 240*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			in := res.Injected
			if in.ReadErrors == 0 || in.WriteErrors == 0 || in.Overruns == 0 ||
				in.Wraps == 0 || in.StuckReads == 0 {
				t.Errorf("standard scenario should exercise every fault class: %+v", in)
			}
			if res.Fallbacks == 0 {
				t.Error("the 10s read outage must push the controller into degraded mode")
			}
			if res.Recoveries < res.Fallbacks {
				t.Errorf("%d fallbacks but only %d recoveries", res.Fallbacks, res.Recoveries)
			}
			if !res.Recovered {
				t.Error("controller must re-reach idle after the last injected fault")
			}
			if res.Ratio > 1.5 {
				t.Errorf("chaos unfairness ratio %.3f exceeds the 1.5x budget (fault-free %.4f, chaos %.4f)",
					res.Ratio, res.FaultFree, res.UnderChaos)
			}
			if res.ChurnOps != len(tc.churn) || res.ChurnApplied != uint64(res.ChurnOps) || res.ChurnRejected != 0 {
				t.Errorf("churn: %d of %d applied, %d rejected — every scheduled op must land",
					res.ChurnApplied, len(tc.churn), res.ChurnRejected)
			}
			if res.FinalApps != res.Apps {
				t.Errorf("final app count %d, want %d (every churn guest departed)", res.FinalApps, res.Apps)
			}
		})
	}
}

// TestChaosSteadyStateAllocs: once the churn schedule is spent, the
// between-periods drain — the code that runs on every single control
// period of a live copartd — must not allocate. A per-period leak in the
// drain path would grow the daemon's heap without bound.
func TestChaosSteadyStateAllocs(t *testing.T) {
	leg, err := runChaosLeg(machine.DefaultConfig(), workloads.HBoth, 3,
		faultinject.Standard(), DefaultChurn(), 1, 240*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, leg.plane.Drain); avg > 0 {
		t.Errorf("empty-queue Drain allocates %.1f times per period, want 0", avg)
	}
}

// TestChaosRejectsEmptyScenario pins the guard against a meaningless
// comparison.
func TestChaosRejectsEmptyScenario(t *testing.T) {
	if _, err := Chaos(machine.DefaultConfig(), faultinject.Scenario{}, nil, 1, time.Minute); err == nil {
		t.Fatal("an empty scenario must be rejected")
	}
}

// TestChaosAdmissionValidation pins the guards on the admission churn
// schedule: ops out of order or beyond the soak are rejected.
func TestChaosAdmissionValidation(t *testing.T) {
	cfg := machine.DefaultConfig()
	out := []ChurnOp{
		{At: 20 * time.Second, Kind: "add", Spec: controlplane.AppSpec{Name: "x", Cores: 1}},
		{At: 10 * time.Second, Kind: "remove", Spec: controlplane.AppSpec{Name: "x"}},
	}
	if _, err := Chaos(cfg, faultinject.Standard(), out, 1, time.Minute); err == nil {
		t.Error("out-of-order schedule accepted")
	}
	late := []ChurnOp{{At: 2 * time.Minute, Kind: "add", Spec: controlplane.AppSpec{Name: "x", Cores: 1}}}
	if _, err := Chaos(cfg, faultinject.Standard(), late, 1, time.Minute); err == nil {
		t.Error("churn op beyond the soak accepted")
	}
}
