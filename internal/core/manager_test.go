package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/fairness"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// testSetup builds a machine running the given mix plus the STREAM
// reference table and a manager over the full cache.
func testSetup(t *testing.T, kind workloads.MixKind, n int) (*machine.Machine, *Manager) {
	t.Helper()
	cfg := machine.DefaultConfig()
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	models, err := workloads.Mix(cfg, kind, n)
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
	return m, mgr
}

// eqUnfairness computes the unfairness of the EQ allocation for the
// machine's current applications.
func eqUnfairness(t *testing.T, m *machine.Machine) float64 {
	t.Helper()
	cfg := m.Config()
	names := m.Apps()
	counts, err := machine.EqualSplit(cfg.LLCWays, len(names))
	if err != nil {
		t.Fatal(err)
	}
	masks, err := machine.AssignContiguousWays(counts, 0, cfg.LLCWays)
	if err != nil {
		t.Fatal(err)
	}
	level := EqualMBAShare(len(names))
	models := make([]machine.AppModel, len(names))
	allocs := make([]machine.Alloc, len(names))
	for i, name := range names {
		model, err := m.Model(name)
		if err != nil {
			t.Fatal(err)
		}
		models[i] = model
		allocs[i] = machine.Alloc{CBM: masks[i], MBALevel: level}
	}
	perfs, err := m.SolveFor(models, allocs)
	if err != nil {
		t.Fatal(err)
	}
	slowdowns := make([]float64, len(perfs))
	for i, p := range perfs {
		solo, err := m.SoloPerf(models[i])
		if err != nil {
			t.Fatal(err)
		}
		slowdowns[i] = solo.IPS / p.IPS
	}
	u, err := fairness.Unfairness(slowdowns)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// runToIdle profiles and explores until the manager goes idle.
func runToIdle(t *testing.T, mgr *Manager) PeriodReport {
	t.Helper()
	if err := mgr.Profile(); err != nil {
		t.Fatal(err)
	}
	if mgr.Phase() != PhaseExplore {
		t.Fatalf("after Profile: phase=%v", mgr.Phase())
	}
	var last PeriodReport
	mgr.OnPeriod = func(r PeriodReport) { last = r }
	for i := 0; i < 300; i++ {
		done, err := mgr.ExploreStep()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			if mgr.Phase() != PhaseIdle {
				t.Fatalf("done but phase=%v", mgr.Phase())
			}
			return last
		}
	}
	t.Fatal("exploration did not converge within 300 periods")
	return last
}

func TestManagerImprovesFairnessHLLC(t *testing.T) {
	m, mgr := testSetup(t, workloads.HLLC, 4)
	eq := eqUnfairness(t, m)
	final := runToIdle(t, mgr)
	if final.Unfairness >= eq {
		t.Errorf("CoPart unfairness %.4f should beat EQ %.4f on H-LLC", final.Unfairness, eq)
	}
}

func TestManagerImprovesFairnessHBW(t *testing.T) {
	m, mgr := testSetup(t, workloads.HBW, 4)
	eq := eqUnfairness(t, m)
	final := runToIdle(t, mgr)
	if final.Unfairness >= eq {
		t.Errorf("CoPart unfairness %.4f should beat EQ %.4f on H-BW", final.Unfairness, eq)
	}
}

func TestManagerImprovesFairnessHBoth(t *testing.T) {
	m, mgr := testSetup(t, workloads.HBoth, 4)
	eq := eqUnfairness(t, m)
	final := runToIdle(t, mgr)
	if final.Unfairness >= eq {
		t.Errorf("CoPart unfairness %.4f should beat EQ %.4f on H-Both", final.Unfairness, eq)
	}
}

// TestManagerUnfairnessIsEquation2 pins the one fairness arithmetic: in
// exploration and in idle, the unfairness a period reports — and the one
// the manager compares states by — is fairness.Unfairness of that
// period's slowdowns, bit for bit.
func TestManagerUnfairnessIsEquation2(t *testing.T) {
	_, mgr := testSetup(t, workloads.HBoth, 4)
	periods := map[Phase]int{}
	mgr.OnPeriod = func(r PeriodReport) {
		periods[r.Phase]++
		want, err := fairness.Unfairness(r.Slowdowns)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(r.Unfairness) != math.Float64bits(want) ||
			math.Float64bits(mgr.LastUnfairness()) != math.Float64bits(want) {
			t.Fatalf("%v period at %v: reported %v, LastUnfairness %v, Equation 2 gives %v",
				r.Phase, r.Time, r.Unfairness, mgr.LastUnfairness(), want)
		}
	}
	if err := mgr.Run(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if periods[PhaseExplore] == 0 || periods[PhaseIdle] == 0 {
		t.Fatalf("run did not cover both phases: %v", periods)
	}
}

func TestManagerStateStaysValid(t *testing.T) {
	_, mgr := testSetup(t, workloads.HBoth, 4)
	if err := mgr.Profile(); err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	for i := 0; i < 100; i++ {
		done, err := mgr.ExploreStep()
		if err != nil {
			t.Fatal(err)
		}
		if err := mgr.State().Validate(cfg.LLCWays); err != nil {
			t.Fatalf("invalid state after step %d: %v", i, err)
		}
		if done {
			break
		}
	}
}

func TestManagerRecordsExploreTimes(t *testing.T) {
	_, mgr := testSetup(t, workloads.MBoth, 4)
	runToIdle(t, mgr)
	if len(mgr.ExploreTimes) == 0 {
		t.Fatal("no exploration timings recorded")
	}
	for _, d := range mgr.ExploreTimes {
		if d <= 0 || d > time.Second {
			t.Errorf("implausible exploration time %v", d)
		}
	}
}

func TestManagerIdleDetectsAppDeparture(t *testing.T) {
	m, mgr := testSetup(t, workloads.HLLC, 4)
	runToIdle(t, mgr)
	// Steady idle period: no change detected.
	changed, err := mgr.IdleStep()
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Fatal("idle phase flagged a change on a steady system")
	}
	// An application departs: the next idle step must trigger
	// re-adaptation.
	if err := m.RemoveApp(m.Apps()[0]); err != nil {
		t.Fatal(err)
	}
	changed, err = mgr.IdleStep()
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("idle phase missed an application departure")
	}
	if mgr.Phase() != PhaseProfile {
		t.Fatalf("phase=%v want profiling after change", mgr.Phase())
	}
	// Re-adaptation works with the reduced set.
	runToIdle(t, mgr)
}

func TestManagerEnvelopeChangeTriggersReadaptation(t *testing.T) {
	_, mgr := testSetup(t, workloads.HBoth, 4)
	runToIdle(t, mgr)
	if err := mgr.SetEnvelope(Envelope{LoWay: 0, Ways: 7}); err != nil {
		t.Fatal(err)
	}
	changed, err := mgr.IdleStep()
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("envelope change not detected")
	}
	final := runToIdle(t, mgr)
	total := 0
	for _, w := range final.State.Ways {
		total += w
	}
	if total > 7 {
		t.Errorf("state uses %d ways, envelope allows 7", total)
	}
}

func TestManagerSetEnvelopeNoopAndInvalid(t *testing.T) {
	_, mgr := testSetup(t, workloads.HLLC, 4)
	if err := mgr.SetEnvelope(Envelope{LoWay: 0, Ways: 11}); err != nil {
		t.Fatal(err)
	}
	if mgr.envChanged {
		t.Error("identical envelope should be a no-op")
	}
	if err := mgr.SetEnvelope(Envelope{LoWay: 9, Ways: 5}); err == nil {
		t.Error("out-of-range envelope should error")
	}
	if err := mgr.SetEnvelope(Envelope{LoWay: 0, Ways: 2}); err == nil {
		t.Error("envelope smaller than app count should error")
	}
}

func TestManagerRunLifecycle(t *testing.T) {
	m, mgr := testSetup(t, workloads.HLLC, 4)
	phases := map[Phase]bool{}
	mgr.OnPeriod = func(r PeriodReport) { phases[r.Phase] = true }
	if err := mgr.Run(90 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !phases[PhaseExplore] {
		t.Error("Run never explored")
	}
	if !phases[PhaseIdle] {
		t.Error("Run never reached idle")
	}
	if m.Now() < 90*time.Second {
		t.Errorf("virtual time %v did not advance to the deadline", m.Now())
	}
}

func TestNewManagerValidation(t *testing.T) {
	cfg := machine.DefaultConfig()
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := map[int]float64{}
	for l := 10; l <= 100; l += 10 {
		ref[l] = 1e8
	}
	r := rand.New(rand.NewSource(1))
	env := Envelope{LoWay: 0, Ways: cfg.LLCWays}

	if _, err := NewManager(m, DefaultParams(), ref, env, r); err == nil {
		t.Error("manager over an empty machine should error")
	}
	spec, err := workloads.ByName(cfg, "WN")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddApp(spec.Model); err != nil {
		t.Fatal(err)
	}
	if _, err := NewManager(m, DefaultParams(), ref, env, nil); err == nil {
		t.Error("nil rng should error")
	}
	bad := DefaultParams()
	bad.Theta = 0
	if _, err := NewManager(m, bad, ref, env, r); err == nil {
		t.Error("invalid params should error")
	}
	incompleteRef := map[int]float64{10: 1e8}
	if _, err := NewManager(m, DefaultParams(), incompleteRef, env, r); err == nil {
		t.Error("incomplete STREAM reference should error")
	}
	if _, err := NewManager(m, DefaultParams(), ref, Envelope{LoWay: 20, Ways: 2}, r); err == nil {
		t.Error("invalid envelope should error")
	}
	if _, err := NewManager(m, DefaultParams(), ref, env, r); err != nil {
		t.Errorf("valid manager rejected: %v", err)
	}
}

func TestPhaseString(t *testing.T) {
	for _, p := range []Phase{PhaseProfile, PhaseExplore, PhaseIdle} {
		if p.String() == "" {
			t.Errorf("empty name for phase %d", int(p))
		}
	}
	if Phase(7).String() == "" {
		t.Error("unknown phase should render")
	}
}

func TestExploreStepWrongPhase(t *testing.T) {
	_, mgr := testSetup(t, workloads.HLLC, 4)
	if _, err := mgr.ExploreStep(); err == nil {
		t.Error("ExploreStep before profiling should error")
	}
	if _, err := mgr.IdleStep(); err == nil {
		t.Error("IdleStep before profiling should error")
	}
}
