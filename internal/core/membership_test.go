package core

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/workloads"
)

// stepIn runs one control period of the given phase, driving the manager
// there first (profiling, then exploring to idle when idle is wanted),
// and returns the step's "changed" flag (always false for exploration).
func stepIn(t *testing.T, mgr *Manager, phase Phase) bool {
	t.Helper()
	for i := 0; mgr.Phase() != phase; i++ {
		var err error
		switch {
		case i > 300:
			t.Fatalf("manager did not reach %v (in %v)", phase, mgr.Phase())
		case mgr.Phase() == PhaseProfile:
			err = mgr.Profile()
		case mgr.Phase() == PhaseExplore:
			_, err = mgr.ExploreStep()
		default:
			t.Fatalf("manager in %v, cannot reach %v", mgr.Phase(), phase)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	var changed bool
	var err error
	if phase == PhaseExplore {
		_, err = mgr.ExploreStep()
	} else {
		changed, err = mgr.IdleStep()
	}
	if err != nil {
		t.Fatal(err)
	}
	return changed
}

// TestMembershipChangeSeenNextPeriod holds the generation-gated
// consolidation check to the per-period poll it replaced: on a bare
// machine — where an unmoved machine.AppsGeneration stands in for the
// name comparison — an arrival or a departure between two periods sends
// the very next ExploreStep or IdleStep back to profiling. It does so on
// a new manager, on a reused manager over a reset and relaunched machine
// (the fleet's pool path, whose generation has moved under a manager
// that last verified another tenant's names), and on a manager restored
// from a snapshot (whose machine counts from scratch).
func TestMembershipChangeSeenNextPeriod(t *testing.T) {
	cfg := machine.DefaultConfig()
	models, err := workloads.Mix(cfg, workloads.HBoth, 3) // 15 of 16 cores
	if err != nil {
		t.Fatal(err)
	}
	others, err := workloads.Mix(cfg, workloads.HLLC, 4)
	if err != nil {
		t.Fatal(err)
	}
	arrival := others[0] // WN: not in H-Both
	arrival.Cores = 1
	launch := func(t *testing.T, m *machine.Machine) {
		t.Helper()
		for _, model := range models {
			if err := m.AddApp(model); err != nil {
				t.Fatal(err)
			}
		}
	}
	setup := func(t *testing.T) (*Manager, *machine.Machine) {
		t.Helper()
		m, err := machine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		launch(t, m)
		ref, err := workloads.StreamMissRates(m)
		if err != nil {
			t.Fatal(err)
		}
		rng, src := NewSeededRand(3)
		mgr, err := NewManager(m, DefaultParams(), ref, Envelope{LoWay: 0, Ways: cfg.LLCWays}, rng)
		if err != nil {
			t.Fatal(err)
		}
		mgr.SnapshotSource = src
		return mgr, m
	}

	builds := []struct {
		name  string
		build func(t *testing.T) (*Manager, *machine.Machine)
	}{
		{"new", setup},
		{"reused", func(t *testing.T) (*Manager, *machine.Machine) {
			mgr, m := setup(t)
			stepIn(t, mgr, PhaseIdle) // a tenant's whole life, names verified at its generation
			m.Reset()
			launch(t, m)
			if err := mgr.Reuse(); err != nil {
				t.Fatal(err)
			}
			return mgr, m
		}},
		{"restored", func(t *testing.T) (*Manager, *machine.Machine) {
			mgr, _ := setup(t)
			stepIn(t, mgr, PhaseExplore)
			mgr2, m2, err := RestoreSnapshot(roundTripSnapshot(t, mgr))
			if err != nil {
				t.Fatal(err)
			}
			return mgr2, m2
		}},
	}
	changes := []struct {
		name   string
		change func(m *machine.Machine) error
	}{
		{"arrival", func(m *machine.Machine) error { return m.AddApp(arrival) }},
		{"departure", func(m *machine.Machine) error { return m.RemoveApp(m.Apps()[0]) }},
	}
	for _, b := range builds {
		for _, phase := range []Phase{PhaseExplore, PhaseIdle} {
			for _, c := range changes {
				t.Run(b.name+"/"+phase.String()+"/"+c.name, func(t *testing.T) {
					mgr, m := b.build(t)
					// A steady period first: it verifies the names and is the
					// last one allowed to poll them.
					if stepIn(t, mgr, phase) || mgr.Phase() != phase {
						t.Fatalf("steady %v period: phase %v, change flagged on an unchanged machine", phase, mgr.Phase())
					}
					if err := c.change(m); err != nil {
						t.Fatal(err)
					}
					changed := stepIn(t, mgr, phase)
					if mgr.Phase() != PhaseProfile {
						t.Fatalf("%s between %v periods: next step left the manager in %v, want profiling", c.name, phase, mgr.Phase())
					}
					if phase == PhaseIdle && !changed {
						t.Errorf("IdleStep returned to profiling without reporting the change")
					}
					// The re-adaptation runs over the new set and settles again.
					if stepIn(t, mgr, phase); mgr.Phase() == PhaseProfile {
						t.Fatalf("re-profiled manager flagged a second change")
					}
					if got, want := len(mgr.State().Ways), len(m.Apps()); got != want {
						t.Errorf("manager holds %d apps after re-adapting, machine has %d", got, want)
					}
				})
			}
		}
	}
}
