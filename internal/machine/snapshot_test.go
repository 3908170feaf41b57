package machine

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/membw"
)

func snapMachine(t *testing.T, noise float64, opts ...Option) *Machine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.MeasurementNoise = noise
	cfg.NoiseSeed = 42
	m, err := New(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range []AppModel{
		{Name: "a", Cores: 4, CPIBase: 0.8, AccPerInstr: 0.01,
			Hot: []WSComponent{{Bytes: 4 << 20, Weight: 0.9, MLP: 2}}, StreamFrac: 0.1, MLP: 2},
		{Name: "b", Cores: 4, CPIBase: 0.6, AccPerInstr: 0.02,
			Hot: []WSComponent{{Bytes: 8 << 20, Weight: 0.7, MLP: 1}}, StreamFrac: 0.3, MLP: 4},
	} {
		if err := m.AddApp(app); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// TestMachineSnapshotRoundTrip: stepping a restored machine must match
// stepping the original, counters and virtual clock included.
func TestMachineSnapshotRoundTrip(t *testing.T) {
	for _, noise := range []float64{0, 0.03} {
		m := snapMachine(t, noise)
		for i := 0; i < 5; i++ {
			if err := m.Step(time.Second); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.SetAllocation("a", Alloc{CBM: 0b1111, MBALevel: 50}); err != nil {
			t.Fatal(err)
		}

		r, err := RestoreSnapshot(m.Snapshot())
		if err != nil {
			t.Fatalf("noise=%v: %v", noise, err)
		}
		if r.Now() != m.Now() {
			t.Fatalf("noise=%v: restored clock %v, want %v", noise, r.Now(), m.Now())
		}
		for i := 0; i < 5; i++ {
			if err := m.Step(2 * time.Second); err != nil {
				t.Fatal(err)
			}
			if err := r.Step(2 * time.Second); err != nil {
				t.Fatal(err)
			}
		}
		for _, app := range []string{"a", "b"} {
			co, err1 := m.ReadCounters(app)
			cr, err2 := r.ReadCounters(app)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if co != cr {
				t.Errorf("noise=%v: %s counters diverged after restore:\n  orig %+v\n  rest %+v", noise, app, co, cr)
			}
			ao, _ := m.Allocation(app)
			ar, _ := r.Allocation(app)
			if ao != ar {
				t.Errorf("noise=%v: %s allocation %+v vs %+v", noise, app, ao, ar)
			}
		}
	}
}

// TestMachineSnapshotInactiveApps: a departed app leaves no slot, only
// its name, which a restore keeps taken — from the departed list of the
// current format and from the "active": false entries of the legacy one.
func TestMachineSnapshotInactiveApps(t *testing.T) {
	m := snapMachine(t, 0)
	if err := m.Step(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := m.RemoveApp("a"); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if len(snap.Apps) != 1 || !reflect.DeepEqual(snap.Departed, []string{"a"}) {
		t.Fatalf("snapshot lists %d apps and departed %v, want 1 and [a]", len(snap.Apps), snap.Departed)
	}
	// The same state as a legacy blob wrote it: every app ever launched,
	// the departed one marked inactive.
	legacy := m.Snapshot()
	inactive, active := false, true
	legacy.Departed = nil
	legacy.Apps[0].Active = &active
	legacy.Apps = append([]AppSnapshot{{Model: snapMachine(t, 0).Snapshot().Apps[0].Model,
		CBM: 0b1, MBALevel: 100, Active: &inactive}}, legacy.Apps...)
	for name, s := range map[string]Snapshot{"current": snap, "legacy": legacy} {
		r, err := RestoreSnapshot(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if apps := r.Apps(); len(apps) != 1 || apps[0] != "b" {
			t.Fatalf("%s: restored live apps = %v, want [b]", name, apps)
		}
		if !reflect.DeepEqual(r.Snapshot(), snap) {
			t.Errorf("%s: restored machine re-snapshots as %+v, want %+v", name, r.Snapshot(), snap)
		}
		// The departed name must remain taken.
		if !r.NameUsed("a") {
			t.Errorf("%s: departed name free after restore", name)
		}
		if err := r.AddApp(AppModel{Name: "a", Cores: 1, CPIBase: 1, AccPerInstr: 0.01,
			Hot: []WSComponent{{Bytes: 1 << 20, Weight: 1, MLP: 1}}}); err == nil {
			t.Errorf("%s: reusing a departed name should fail after restore", name)
		}
		if err := r.RemoveApp("a"); err == nil || !strings.Contains(err.Error(), "already removed") {
			t.Errorf("%s: removing a departed app again: %v", name, err)
		}
		if _, err := r.ReadCounters("a"); err == nil || !strings.Contains(err.Error(), "not active") {
			t.Errorf("%s: reading a departed app: %v", name, err)
		}
	}
	dup := m.Snapshot()
	dup.Departed = []string{"b"}
	if _, err := RestoreSnapshot(dup); err == nil {
		t.Error("a departed name equal to a live one should be rejected")
	}
}

// TestMachineSnapshotRejectsTampering: corrupted snapshots are refused.
func TestMachineSnapshotRejectsTampering(t *testing.T) {
	m := snapMachine(t, 0)
	if err := m.Step(time.Second); err != nil {
		t.Fatal(err)
	}

	s := m.Snapshot()
	s.ConfigDigest++
	if _, err := RestoreSnapshot(s); err == nil {
		t.Error("digest mismatch should be rejected")
	}

	s = m.Snapshot()
	s.Now = -5
	if _, err := RestoreSnapshot(s); err == nil {
		t.Error("negative time should be rejected")
	}

	s = m.Snapshot()
	s.Apps[0].Counters.Instructions = math.NaN()
	if _, err := RestoreSnapshot(s); err == nil {
		t.Error("NaN counters should be rejected")
	}

	s = m.Snapshot()
	s.Apps[0].CBM = 0
	if _, err := RestoreSnapshot(s); err == nil {
		t.Error("empty CBM should be rejected")
	}

	s = m.Snapshot()
	s.Apps[0].MBALevel = membw.MaxLevel + 7
	if _, err := RestoreSnapshot(s); err == nil {
		t.Error("illegal MBA level should be rejected")
	}

	s = m.Snapshot()
	s.NoiseState++ // machine runs noise-free; its stream never leaves the seed position
	if _, err := RestoreSnapshot(s); err == nil {
		t.Error("an advanced noise stream on a noise-free machine should be rejected")
	}
}

// TestMachineSnapshotSameWithSolveCache: memoization is not machine
// state. A memoizing machine and a twin that recomputes every solve (the
// cache switched off around its runs) snapshot identically after the
// same run — whatever the process-wide cache held when each solved — and
// a machine restored from either continues as both do.
func TestMachineSnapshotSameWithSolveCache(t *testing.T) {
	run := func(m *Machine) {
		t.Helper()
		for i := 0; i < 4; i++ {
			if err := m.Step(time.Second); err != nil {
				t.Fatal(err)
			}
			if err := m.SetAllocation("a", Alloc{CBM: 0b1111 << i, MBALevel: 100 - 10*i}); err != nil {
				t.Fatal(err)
			}
		}
	}
	cached, bare := snapMachine(t, 0, WithSolveCache()), snapMachine(t, 0)
	run(cached)
	recomputing(func() { run(bare) })
	s := cached.Snapshot()
	if !reflect.DeepEqual(s, bare.Snapshot()) {
		t.Fatalf("snapshots differ with the solve cache:\ncached: %+v\nbare:   %+v", s, bare.Snapshot())
	}
	restored, err := RestoreSnapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	run(cached)
	recomputing(func() { run(bare) })
	run(restored)
	if want := bare.Snapshot(); !reflect.DeepEqual(cached.Snapshot(), want) || !reflect.DeepEqual(restored.Snapshot(), want) {
		t.Error("the memoizing, the bare and the restored machine diverged over the same run")
	}
}
