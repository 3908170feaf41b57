package machine

import (
	"reflect"
	"testing"
	"time"
)

// launchableTestModels normalizes sharedTestModels so they pass AddApp
// validation (StreamFrac plus the hot weights must sum to 1; SolveFor
// does not check that, AddApp does).
func launchableTestModels(n int) []AppModel {
	models := sharedTestModels(n)
	for i := range models {
		rest := 1 - models[i].StreamFrac
		models[i].Hot[0].Weight = rest * 0.7
		models[i].Hot[1].Weight = rest * 0.3
	}
	return models
}

// resetTestModels is a phased variant of launchableTestModels: the
// reset contract must hold for the stateful features too (phase dirty
// bits, jitter stream position), not just the steady solver.
func resetTestModels(n int) []AppModel {
	models := launchableTestModels(n)
	for i := range models {
		if i%2 == 1 {
			models[i].Phases = []ModelPhase{
				{Duration: 3 * time.Second, AccScale: 1.5},
				{Duration: 2 * time.Second, HotScale: 0.5},
			}
		}
	}
	return models
}

// driveMachine runs a fixed workload sequence — launch, allocate,
// step/solve — and returns the machine's final snapshot.
func driveMachine(t *testing.T, m *Machine, models []AppModel) Snapshot {
	t.Helper()
	masks, err := AssignContiguousWays([]int{3, 3, 3, 2}, 0, m.cfg.LLCWays)
	if err != nil {
		t.Fatal(err)
	}
	for i := range models {
		if err := m.AddApp(models[i]); err != nil {
			t.Fatal(err)
		}
		if err := m.SetAllocation(models[i].Name, Alloc{CBM: masks[i], MBALevel: 100 - 10*i}); err != nil {
			t.Fatal(err)
		}
	}
	for p := 0; p < 20; p++ {
		if err := m.Step(time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.RemoveApp(models[0].Name); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 5; p++ {
		if err := m.Step(time.Second); err != nil {
			t.Fatal(err)
		}
	}
	return m.Snapshot()
}

// TestMachineResetBitIdentical pins the pool contract: a Reset machine
// behaves bit-identically to a freshly constructed one — counters,
// virtual time and noise stream position all match.
func TestMachineResetBitIdentical(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MeasurementNoise = 0.02
	cfg.NoiseSeed = 99
	models := resetTestModels(4)

	fresh, err := New(cfg, WithSolveCache())
	if err != nil {
		t.Fatal(err)
	}
	want := driveMachine(t, fresh, models)

	reused, err := New(cfg, WithSolveCache())
	if err != nil {
		t.Fatal(err)
	}
	// Pollute with a different tenant first, then Reset.
	other := launchableTestModels(3)
	for i := range other {
		other[i].Name = "tenant0-" + other[i].Name
		if err := reused.AddApp(other[i]); err != nil {
			t.Fatal(err)
		}
	}
	for p := 0; p < 7; p++ {
		if err := reused.Step(500 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	reused.Reset()
	got := driveMachine(t, reused, models)

	if !reflect.DeepEqual(want, got) {
		t.Fatalf("reset machine diverged from fresh machine:\nfresh: %+v\nreset: %+v", want, got)
	}
}

// TestMachineResetAllocationGuard pins the pooled-fleet budget: once a
// machine has been through one tenant, the full relaunch cycle —
// Reset, AddApp ×4, SetAllocation ×4, one control-period Step — must
// cost nothing: Reset keeps the app slots and the scratch, and the
// relaunched state is a lookup in the solve cache (keys are exact, so
// Reset drops nothing from it). Noise
// adds nothing to that: Reset reseeds the jitter stream in one store
// and the first noisy Step draws from it as-is (the retired math/rand
// stream cost a 4.9 KB source and a rand.Rand per relaunch).
func TestMachineResetAllocationGuard(t *testing.T) {
	models := launchableTestModels(4)
	masks, err := AssignContiguousWays([]int{3, 3, 3, 2}, 0, DefaultConfig().LLCWays)
	if err != nil {
		t.Fatal(err)
	}
	cycleAllocs := func(noise float64) float64 {
		cfg := DefaultConfig()
		cfg.MeasurementNoise = noise
		m, err := New(cfg, WithSolveCache())
		if err != nil {
			t.Fatal(err)
		}
		cycle := func() {
			m.Reset()
			for i := range models {
				if err := m.AddApp(models[i]); err != nil {
					t.Fatal(err)
				}
				if err := m.SetAllocation(models[i].Name, Alloc{CBM: masks[i], MBALevel: 100}); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.Step(time.Second); err != nil {
				t.Fatal(err)
			}
		}
		cycle() // warm: grow slots and scratch, publish the state
		return testing.AllocsPerRun(100, cycle)
	}
	quiet := cycleAllocs(0)
	if quiet != 0 {
		t.Errorf("Reset+relaunch cycle allocates %.1f times, want 0", quiet)
	}
	if noisy := cycleAllocs(0.02); noisy != quiet {
		t.Errorf("noisy Reset+relaunch cycle allocates %.1f times, noise-free %.1f: the jitter stream must cost 0", noisy, quiet)
	}
}
