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
		churn []controlplane.ScheduledOp
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

// TestChaosChurnFollowsTargetTime: the admission schedule replays on the
// target clock at each period boundary, not on the last period report,
// whose clock stalls while the controller re-profiles or rides out an
// outage. DefaultChurn's first op falls due at 60s, inside the standard
// schedule's 60-70s read outage, so it must land during the outage.
func TestChaosChurnFollowsTargetTime(t *testing.T) {
	churn := DefaultChurn()
	leg, err := runChaosLeg(machine.DefaultConfig(), workloads.HBoth, 3,
		faultinject.Standard(), churn, 1, 240*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(leg.enqueuedAt) != len(churn) {
		t.Fatalf("%d of %d churn ops enqueued", len(leg.enqueuedAt), len(churn))
	}
	for i, at := range leg.enqueuedAt {
		if at < churn[i].At {
			t.Errorf("op %d due at %v was enqueued early, at %v", i, churn[i].At, at)
		}
	}
	if at := leg.enqueuedAt[0]; at >= 70*time.Second {
		t.Errorf("op 0, due at 60s inside the read outage, was enqueued at %v, after the outage", at)
	}
}

// TestChaosRejectsEmptyScenario pins the guards against a meaningless
// comparison and against scenario churn the soak would not replay.
func TestChaosRejectsEmptyScenario(t *testing.T) {
	if _, err := Chaos(machine.DefaultConfig(), faultinject.Scenario{}, nil, 1, time.Minute); err == nil {
		t.Fatal("an empty scenario must be rejected")
	}
	sc := faultinject.Standard()
	sc.Churn = []faultinject.ChurnEvent{{At: time.Second}}
	if _, err := Chaos(machine.DefaultConfig(), sc, nil, 1, time.Minute); err == nil {
		t.Fatal("churn inside the fault scenario must be rejected: only the admission schedule is replayed")
	}
}

// TestChaosAdmissionValidation pins the guards on the admission churn
// schedule: ops out of order or beyond the soak are rejected.
func TestChaosAdmissionValidation(t *testing.T) {
	cfg := machine.DefaultConfig()
	out := []controlplane.ScheduledOp{
		{At: 20 * time.Second, Kind: "add", Spec: controlplane.AppSpec{Name: "x", Cores: 1}},
		{At: 10 * time.Second, Kind: "remove", Spec: controlplane.AppSpec{Name: "x"}},
	}
	if _, err := Chaos(cfg, faultinject.Standard(), out, 1, time.Minute); err == nil {
		t.Error("out-of-order schedule accepted")
	}
	late := []controlplane.ScheduledOp{{At: 2 * time.Minute, Kind: "add", Spec: controlplane.AppSpec{Name: "x", Cores: 1}}}
	if _, err := Chaos(cfg, faultinject.Standard(), late, 1, time.Minute); err == nil {
		t.Error("churn op beyond the soak accepted")
	}
}
