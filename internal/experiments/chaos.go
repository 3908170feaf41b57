package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/eventlog"
	"repro/internal/faultinject"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// DefaultChurn is an admission schedule for the chaos soak: an app
// arrives mid-fault-storm, gets reweighted, departs, and a second app
// cycles through after the storm clears. The single spare core the
// soak's 3-app H-Both mix leaves on the default machine is exactly
// enough for one 1-core guest at a time.
func DefaultChurn() []controlplane.ScheduledOp {
	return []controlplane.ScheduledOp{
		{At: 60 * time.Second, Kind: "add",
			Spec: controlplane.AppSpec{Name: "churn-a", Benchmark: "EP", Cores: 1}},
		{At: 110 * time.Second, Kind: "reweight",
			Spec: controlplane.AppSpec{Name: "churn-a"}, Weight: 2},
		{At: 150 * time.Second, Kind: "remove",
			Spec: controlplane.AppSpec{Name: "churn-a"}},
		{At: 180 * time.Second, Kind: "add",
			Spec: controlplane.AppSpec{Name: "churn-b", Benchmark: "EP", Cores: 1}},
		{At: 215 * time.Second, Kind: "remove",
			Spec: controlplane.AppSpec{Name: "churn-b"}},
	}
}

// ChaosResult compares the resilient controller's fairness with and
// without an injected fault schedule. The paper evaluates CoPart on a
// healthy testbed; this experiment asks the deployment question instead:
// when the substrate misbehaves — counter reads failing, schemata writes
// bouncing with EBUSY, counters wrapping, periods overrunning — while
// the control plane may be admitting and evicting apps, does the
// hardened control loop keep unfairness close to the fault-free run,
// and how quickly does it re-converge once the faults clear?
type ChaosResult struct {
	Mix      workloads.MixKind
	Apps     int
	Duration time.Duration

	// FaultFree and UnderChaos are the mean per-period unfairness of the
	// two runs; Ratio is UnderChaos/FaultFree (1.0 = no degradation).
	FaultFree  float64
	UnderChaos float64
	Ratio      float64

	// Injected counts the faults the scenario actually delivered.
	Injected faultinject.Stats
	// Fallbacks and Recoveries count degraded-mode entries and exits.
	Fallbacks  int
	Recoveries int
	// Recovered reports whether the controller reached the idle phase
	// again after the last injected fault; RecoveryTime is how much
	// target time that took.
	Recovered    bool
	RecoveryTime time.Duration

	// ChurnOps is the schedule length; ChurnApplied/ChurnRejected split
	// the chaotic leg's admission-op outcomes. A correct run applies
	// every op: the fault storm may degrade the controller but must
	// never lose or reject a valid admission.
	ChurnOps      int
	ChurnApplied  uint64
	ChurnRejected uint64
	// FinalApps is the chaotic leg's app count at the end of the soak.
	FinalApps int
}

// chaosLeg is one controller run (fault-free or injected) of the chaos
// soak, plus the live plane the allocation-guard test pokes at after the
// run.
type chaosLeg struct {
	meanUnfairness float64
	fallbacks      int
	recoveries     int
	stats          faultinject.Stats
	recovered      bool
	recoveryTime   time.Duration
	finalApps      int
	plane          *controlplane.Plane
	// enqueuedAt is the target time each churn op was queued at.
	enqueuedAt []time.Duration
}

// runChaosLeg runs one leg of the soak: the resilient controller on the
// mix, wrapped in the scenario unless it is empty, with the admission
// schedule replayed through a control plane between periods, exactly as
// copartd replays its -faults churn. With no churn the plane's Drain only
// reads the controller's phase, so the leg is the bare control loop.
func runChaosLeg(cfg machine.Config, kind workloads.MixKind, apps int,
	sc faultinject.Scenario, churn []controlplane.ScheduledOp, seed int64,
	duration time.Duration) (chaosLeg, error) {
	m, err := machine.New(cfg)
	if err != nil {
		return chaosLeg{}, err
	}
	models, err := workloads.Mix(cfg, kind, apps)
	if err != nil {
		return chaosLeg{}, err
	}
	for _, model := range models {
		if err := m.AddApp(model); err != nil {
			return chaosLeg{}, err
		}
	}
	ref, err := workloads.StreamMissRates(m)
	if err != nil {
		return chaosLeg{}, err
	}
	elog, err := eventlog.New(1 << 15)
	if err != nil {
		return chaosLeg{}, err
	}
	var (
		target  core.Target = m
		wrapped *faultinject.Target
	)
	if !sc.Empty() {
		if wrapped, err = faultinject.WrapTarget(m, sc, elog); err != nil {
			return chaosLeg{}, err
		}
		target = wrapped
	}
	mgr, err := core.NewManager(target, core.DefaultParams(), ref,
		core.Envelope{LoWay: 0, Ways: cfg.LLCWays}, rand.New(rand.NewSource(seed)))
	if err != nil {
		return chaosLeg{}, err
	}
	mgr.Resilience = core.DefaultResilience()
	mgr.Events = elog

	leg := chaosLeg{plane: controlplane.New(&controlplane.MachineAdmitter{M: m, Mgr: mgr}, mgr, elog)}
	var (
		reports  []core.PeriodReport
		churnErr error
	)
	mgr.OnPeriod = func(r core.PeriodReport) { reports = append(reports, r) }
	next := 0
	mgr.BetweenPeriods = func() {
		now := m.Now()
		due, err := leg.plane.EnqueueDue(churn, next, now)
		if err != nil && churnErr == nil {
			churnErr = err
		}
		for ; next < due; next++ {
			leg.enqueuedAt = append(leg.enqueuedAt, now)
		}
		leg.plane.Drain()
	}
	if err := mgr.Run(duration); err != nil {
		return chaosLeg{}, fmt.Errorf("experiments: chaos run: %w", err)
	}
	if churnErr != nil {
		return chaosLeg{}, churnErr
	}
	if next != len(churn) {
		return chaosLeg{}, fmt.Errorf("experiments: only %d of %d churn ops were due within %v",
			next, len(churn), duration)
	}
	if len(reports) == 0 {
		return chaosLeg{}, fmt.Errorf("experiments: chaos run reported no periods")
	}

	leg.finalApps = len(m.Apps())
	for _, r := range reports {
		leg.meanUnfairness += r.Unfairness
	}
	leg.meanUnfairness /= float64(len(reports))
	for _, e := range elog.Events() {
		switch e.Kind {
		case eventlog.KindFallback:
			// enterDegraded logs one "degraded mode" line per entry plus
			// one "EQ fallback ... applied" line; count entries only.
			if len(e.Detail) >= 8 && e.Detail[:8] == "degraded" {
				leg.fallbacks++
			}
		case eventlog.KindRecover:
			leg.recoveries++
		}
	}
	if wrapped != nil {
		leg.stats = wrapped.Stats()
		if last := wrapped.LastFault(); last >= 0 {
			for _, r := range reports {
				if r.Phase == core.PhaseIdle && r.Time >= last {
					leg.recovered = true
					leg.recoveryTime = r.Time - last
					break
				}
			}
		}
	}
	return leg, nil
}

// Chaos runs the resilient controller on a 3-app H-Both mix twice —
// fault-free and under the given scenario — and reports the fairness
// cost of the fault schedule plus the recovery behavior. Both legs run
// with the default resilience configuration and replay the same
// admission schedule (churn may be nil) through a control plane, so the
// comparison isolates the faults, not the hardening or the membership.
func Chaos(cfg machine.Config, sc faultinject.Scenario, churn []controlplane.ScheduledOp,
	seed int64, duration time.Duration) (ChaosResult, error) {
	const (
		// Three H-Both apps leave one core of headroom on the default
		// machine — enough for DefaultChurn's 1-core guests.
		kind = workloads.HBoth
		apps = 3
	)
	if sc.Empty() {
		return ChaosResult{}, fmt.Errorf("experiments: chaos scenario injects nothing")
	}
	if len(sc.Churn) > 0 {
		return ChaosResult{}, fmt.Errorf("experiments: pass churn as the admission schedule, not in the fault scenario")
	}
	for i := 1; i < len(churn); i++ {
		if churn[i].At < churn[i-1].At {
			return ChaosResult{}, fmt.Errorf("experiments: churn schedule out of order at op %d", i)
		}
	}
	if n := len(churn); n > 0 && churn[n-1].At >= duration {
		return ChaosResult{}, fmt.Errorf("experiments: churn op at %v is outside the %v soak", churn[n-1].At, duration)
	}

	clean, err := runChaosLeg(cfg, kind, apps, faultinject.Scenario{}, churn, seed, duration)
	if err != nil {
		return ChaosResult{}, err
	}
	chaotic, err := runChaosLeg(cfg, kind, apps, sc, churn, seed, duration)
	if err != nil {
		return ChaosResult{}, err
	}
	applied, rejected := chaotic.plane.AdmissionStats()
	res := ChaosResult{
		Mix:           kind,
		Apps:          apps,
		Duration:      duration,
		FaultFree:     clean.meanUnfairness,
		UnderChaos:    chaotic.meanUnfairness,
		Injected:      chaotic.stats,
		Fallbacks:     chaotic.fallbacks,
		Recoveries:    chaotic.recoveries,
		Recovered:     chaotic.recovered,
		RecoveryTime:  chaotic.recoveryTime,
		ChurnOps:      len(churn),
		ChurnApplied:  applied,
		ChurnRejected: rejected,
		FinalApps:     chaotic.finalApps,
	}
	// Guard the ratio against a (near-)perfectly fair baseline.
	const fairFloor = 1e-9
	base := clean.meanUnfairness
	if base < fairFloor {
		base = fairFloor
	}
	res.Ratio = chaotic.meanUnfairness / base
	return res, nil
}
