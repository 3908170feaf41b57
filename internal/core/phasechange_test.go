package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/workloads"
)

// TestManagerReadaptsOnPhaseChange exercises §5.4.3's third change
// trigger: an application whose *behaviour* shifts (not its presence).
// A consolidated application runs quietly, the manager converges and
// idles; then the application enters a memory-hungry phase, its IPS
// drifts past the idle change threshold, and the manager must re-profile
// and re-adapt.
func TestManagerReadaptsOnPhaseChange(t *testing.T) {
	m, mgr := phasedSetup(t)

	profiles := 0
	if err := mgr.Profile(); err != nil {
		t.Fatal(err)
	}
	profiles++
	for i := 0; i < 100 && mgr.Phase() == PhaseExplore; i++ {
		if _, err := mgr.ExploreStep(); err != nil {
			t.Fatal(err)
		}
	}
	if mgr.Phase() != PhaseIdle {
		t.Fatalf("no convergence in the quiet phase (phase %v)", mgr.Phase())
	}
	if m.Now() >= 120*time.Second {
		t.Fatalf("setup too slow: t=%v already in the hot phase", m.Now())
	}

	// Idle through the phase boundary: the manager must flag the change.
	changed := false
	for i := 0; i < 200 && m.Now() < 200*time.Second; i++ {
		ch, err := mgr.IdleStep()
		if err != nil {
			t.Fatal(err)
		}
		if ch {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("idle phase never detected the behavioural change")
	}
	if mgr.Phase() != PhaseProfile {
		t.Fatalf("phase %v after change detection, want profiling", mgr.Phase())
	}

	// Re-adaptation completes and the hungry app now holds more ways
	// than its quiet-phase allocation.
	if err := mgr.Profile(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200 && mgr.Phase() == PhaseExplore; i++ {
		if _, err := mgr.ExploreStep(); err != nil {
			t.Fatal(err)
		}
	}
	if mgr.Phase() != PhaseIdle {
		t.Fatalf("no re-convergence after the phase change (phase %v)", mgr.Phase())
	}
	alloc, err := m.Allocation("bursty")
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Ways() < 2 {
		t.Errorf("hungry phase should attract LLC ways, got %d", alloc.Ways())
	}
}

// phasedSetup consolidates WN and CG beside an app that is insensitive
// for its first 120 s and LLC-hungry afterwards.
func phasedSetup(t *testing.T) (*machine.Machine, *Manager) {
	t.Helper()
	cfg := machine.DefaultConfig()
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"WN", "CG"} {
		spec, err := workloads.ByName(cfg, name)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AddApp(spec.Model); err != nil {
			t.Fatal(err)
		}
	}
	phased := machine.AppModel{
		Name: "bursty", Cores: 4, CPIBase: 0.8, AccPerInstr: 0.008,
		Hot:        []machine.WSComponent{{Bytes: 1 << 20, Weight: 0.95, MLP: 1}},
		StreamFrac: 0.05,
		MLP:        4,
		Phases: []machine.ModelPhase{
			{Duration: 120 * time.Second},
			{Duration: 600 * time.Second, AccScale: 4, HotScale: 8},
		},
	}
	if err := m.AddApp(phased); err != nil {
		t.Fatal(err)
	}
	ref, err := workloads.StreamMissRates(m)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManager(m, DefaultParams(), ref,
		Envelope{LoWay: 0, Ways: cfg.LLCWays}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	return m, mgr
}
