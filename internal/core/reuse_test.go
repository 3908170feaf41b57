package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/workloads"
)

// periodRec is one control period's observable outcome, recorded by the
// bit-identity tests below.
type periodRec struct {
	phase      Phase
	unfairness float64
	state      AllocState
}

// reuseSetup builds the fleet-shaped substrate: a cached machine with a
// 4-app mix, the STREAM reference, and a manager over a reseedable
// source.
func reuseSetup(t *testing.T) (*machine.Machine, []machine.AppModel, *Manager, rand.Source) {
	t.Helper()
	cfg := machine.DefaultConfig()
	m, err := machine.New(cfg, machine.WithSolveCache())
	if err != nil {
		t.Fatal(err)
	}
	models, err := workloads.Mix(cfg, workloads.HBoth, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range models {
		if err := m.AddApp(model); err != nil {
			t.Fatal(err)
		}
	}
	// The STREAM reference is measured on a scratch machine, as the fleet
	// does (mix.StreamRef), so the node machine's cache counters reflect
	// only the controller's own solves.
	scratch, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := workloads.StreamMissRates(scratch)
	if err != nil {
		t.Fatal(err)
	}
	src := rand.NewSource(7)
	mgr, err := NewManager(m, DefaultParams(), ref, Envelope{LoWay: 0, Ways: cfg.LLCWays}, rand.New(src))
	if err != nil {
		t.Fatal(err)
	}
	return m, models, mgr, src
}

// runPeriods drives the manager phase-by-phase like the fleet node loop
// and records each period's outcome.
func runPeriods(t *testing.T, mgr *Manager, n int) []periodRec {
	t.Helper()
	recs := make([]periodRec, 0, n)
	for i := 0; i < n; i++ {
		var err error
		switch mgr.Phase() {
		case PhaseExplore:
			_, err = mgr.ExploreStep()
		case PhaseIdle:
			_, err = mgr.IdleStep()
		default:
			t.Fatalf("period %d: unexpected phase %v", i, mgr.Phase())
		}
		if err != nil {
			t.Fatalf("period %d: %v", i, err)
		}
		recs = append(recs, periodRec{
			phase:      mgr.Phase(),
			unfairness: mgr.LastUnfairness(),
			state:      mgr.State(),
		})
	}
	return recs
}

// TestManagerReuseBitIdentical pins the contract the fleet's runtime
// pool is built on, at the core layer: a reused manager over a reset
// machine and a reseeded RNG produces exactly the trajectory a freshly
// constructed one does — every period's phase, unfairness, and
// allocation state, and the machine's final counters.
func TestManagerReuseBitIdentical(t *testing.T) {
	const periods = 30
	m, models, mgr, src := reuseSetup(t)
	if err := mgr.Profile(); err != nil {
		t.Fatal(err)
	}
	want := runPeriods(t, mgr, periods)
	wantSnap := m.Snapshot()

	m.Reset()
	for _, model := range models {
		if err := m.AddApp(model); err != nil {
			t.Fatal(err)
		}
	}
	src.Seed(7)
	if err := mgr.Reuse(); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Profile(); err != nil {
		t.Fatal(err)
	}
	got := runPeriods(t, mgr, periods)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("reused manager diverged from the fresh run")
	}
	if gotSnap := m.Snapshot(); !reflect.DeepEqual(wantSnap, gotSnap) {
		t.Errorf("reused machine's final snapshot differs from the fresh run's")
	}
}

// TestProfileMemoRestoreBitIdentical pins the profile-memo fast path:
// restoring a machine hot-state checkpoint plus a ProfileMemo leaves
// the (machine, manager) pair bit-identical to a live Profile — the
// same per-period trajectory and the same final machine snapshot. This
// is the per-layer half of the fleet's TestFleetPoolGolden.
func TestProfileMemoRestoreBitIdentical(t *testing.T) {
	const periods = 30
	mA, models, mgrA, _ := reuseSetup(t)
	if err := mgrA.Profile(); err != nil {
		t.Fatal(err)
	}
	hot, err := mA.CaptureHotState()
	if err != nil {
		t.Fatal(err)
	}
	pm := mgrA.ExportProfileMemo()
	if pm == nil {
		t.Fatal("ExportProfileMemo returned nil right after Profile")
	}
	want := runPeriods(t, mgrA, periods)
	wantSnap := mA.Snapshot()

	mB, _, mgrB, _ := reuseSetup(t)
	_ = models
	if err := mB.RestoreHotState(hot); err != nil {
		t.Fatal(err)
	}
	if err := mgrB.RestoreProfileMemo(pm); err != nil {
		t.Fatal(err)
	}
	got := runPeriods(t, mgrB, periods)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("memo-restored manager diverged from the live-profiled run")
	}
	if gotSnap := mB.Snapshot(); !reflect.DeepEqual(wantSnap, gotSnap) {
		t.Errorf("memo-restored machine's final snapshot differs from the live-profiled run's")
	}
}

// TestManagerReuseAllocationGuard pins the relaunch cycle's allocation
// budget: once warm, a full pooled-node reinitialization — machine
// Reset, application relaunch, manager Reuse, hot-state restore, and
// profile-memo restore — must not touch the heap.
func TestManagerReuseAllocationGuard(t *testing.T) {
	m, models, mgr, src := reuseSetup(t)
	if err := mgr.Profile(); err != nil {
		t.Fatal(err)
	}
	hot, err := m.CaptureHotState()
	if err != nil {
		t.Fatal(err)
	}
	pm := mgr.ExportProfileMemo()
	if pm == nil {
		t.Fatal("ExportProfileMemo returned nil right after Profile")
	}
	cycle := func() {
		m.Reset()
		for _, model := range models {
			if err := m.AddApp(model); err != nil {
				t.Fatal(err)
			}
		}
		src.Seed(7)
		if err := mgr.Reuse(); err != nil {
			t.Fatal(err)
		}
		if err := m.RestoreHotState(hot); err != nil {
			t.Fatal(err)
		}
		if err := mgr.RestoreProfileMemo(pm); err != nil {
			t.Fatal(err)
		}
	}
	cycle()          // warm: grow slots, scratch, intern table
	const budget = 2 // slack for the runtime; the cycle itself must be clean
	if avg := testing.AllocsPerRun(100, cycle); avg > budget {
		t.Errorf("pooled relaunch cycle allocates %.1f times, budget is %d", avg, budget)
	}
}
