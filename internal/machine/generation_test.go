package machine

import (
	"errors"
	"slices"
	"testing"
	"time"
)

// TestAppsGeneration pins the contract a poller of Apps relies on: every
// call that can change the active set moves AppsGeneration, and nothing
// else does — so an unmoved count proves an unmoved list. Each case runs
// on its own machine holding three of four models, stepped once; prep
// (optional) runs before the count is read, op between the two reads.
func TestAppsGeneration(t *testing.T) {
	models := launchableTestModels(4)
	var hot HotState
	for _, tc := range []struct {
		name  string
		prep  func(m *Machine) error
		op    func(m *Machine) error
		moves bool
	}{
		{name: "AddApp", op: func(m *Machine) error { return m.AddApp(models[3]) }, moves: true},
		{name: "RemoveApp", op: func(m *Machine) error { return m.RemoveApp("app1") }, moves: true},
		{name: "Reset", op: func(m *Machine) error { m.Reset(); return nil }, moves: true},
		{
			// A checkpoint adopts counters, allocations and time onto an
			// identical live table; it cannot change membership.
			name: "RestoreHotState",
			prep: func(m *Machine) (err error) {
				if hot, err = m.CaptureHotState(); err != nil {
					return err
				}
				if err := m.SetAllocation("app1", alloc(2, 30)); err != nil {
					return err
				}
				return m.Step(time.Second)
			},
			op: func(m *Machine) error { return m.RestoreHotState(hot) },
		},
		{
			// The checkpoint predates the removal: its table is not the
			// machine's, so it is refused rather than resurrecting app1.
			name: "RestoreHotState refused",
			prep: func(m *Machine) (err error) {
				if hot, err = m.CaptureHotState(); err != nil {
					return err
				}
				return m.RemoveApp("app1")
			},
			op: func(m *Machine) error {
				if m.RestoreHotState(hot) == nil {
					return errors.New("checkpoint of a different live table adopted")
				}
				return nil
			},
		},

		{name: "AddApp refused", op: func(m *Machine) error {
			if m.AddApp(models[0]) == nil {
				return errors.New("duplicate launch accepted")
			}
			return nil
		}},
		{name: "RemoveApp refused", op: func(m *Machine) error {
			if m.RemoveApp("nope") == nil {
				return errors.New("unknown app removed")
			}
			return nil
		}},
		{name: "SetAllocation", op: func(m *Machine) error { return m.SetAllocation("app0", alloc(3, 50)) }},
		{name: "Step", op: func(m *Machine) error { return m.Step(time.Second) }},
		{name: "Solve", op: func(m *Machine) error { _, err := m.Solve(); return err }},
		{name: "SolveFor", op: func(m *Machine) error {
			_, err := m.SolveFor(models[:2], []Alloc{alloc(5, 100), alloc(6, 100)})
			return err
		}},
		{name: "SoloPerf", op: func(m *Machine) error { _, err := m.SoloPerf(models[3]); return err }},
		{name: "ReadCounters", op: func(m *Machine) error { _, err := m.ReadCounters("app2"); return err }},
		{name: "Occupancy", op: func(m *Machine) error { _, err := m.Occupancy("app2"); return err }},
		{name: "Apps", op: func(m *Machine) error { m.Apps(); m.AppsInto(nil); return nil }},
		{name: "CaptureHotState", op: func(m *Machine) error { _, err := m.CaptureHotState(); return err }},
		{name: "Snapshot", op: func(m *Machine) error { m.Snapshot(); return nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(DefaultConfig(), WithSolveCache())
			if err != nil {
				t.Fatal(err)
			}
			for _, model := range models[:3] {
				if err := m.AddApp(model); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.Step(time.Second); err != nil {
				t.Fatal(err)
			}
			if tc.prep != nil {
				if err := tc.prep(m); err != nil {
					t.Fatal(err)
				}
			}
			gen, apps := m.AppsGeneration(), m.Apps()
			if err := tc.op(m); err != nil {
				t.Fatal(err)
			}
			if moved := m.AppsGeneration() != gen; moved != tc.moves {
				t.Errorf("AppsGeneration %d → %d, want moved = %v", gen, m.AppsGeneration(), tc.moves)
			}
			if !tc.moves && !slices.Equal(m.Apps(), apps) {
				t.Errorf("Apps() %v → %v under an unmoved generation", apps, m.Apps())
			}
		})
	}
}

// TestAppsGenerationRestoreSnapshot covers the one insert path that does
// not go through AddApp: a machine rebuilt from a snapshot has counted
// its applications, so its generation is not a new machine's.
func TestAppsGenerationRestoreSnapshot(t *testing.T) {
	m := newMachine(t)
	for _, model := range launchableTestModels(3) {
		if err := m.AddApp(model); err != nil {
			t.Fatal(err)
		}
	}
	restored, err := RestoreSnapshot(m.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if got, fresh := restored.AppsGeneration(), newMachine(t).AppsGeneration(); got == fresh {
		t.Errorf("restored machine with %d apps reads generation %d, a new machine's", len(restored.Apps()), got)
	}
}
