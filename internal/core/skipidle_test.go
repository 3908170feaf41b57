package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/eventlog"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// settledSetup runs a fresh H-Both manager to idle and through the idle
// period that records the baselines, on a noise-free machine: the state
// SkipIdle accepts.
func settledSetup(t *testing.T) (*machine.Machine, *Manager) {
	t.Helper()
	m, mgr := testSetup(t, workloads.HBoth, 4)
	runToIdle(t, mgr)
	mgr.OnPeriod = nil
	if changed, err := mgr.IdleStep(); err != nil || changed {
		t.Fatalf("baseline idle period: changed=%v err=%v", changed, err)
	}
	return m, mgr
}

// TestSkipIdleMatchesIdleSteps: n skipped periods and one measured one
// leave the machine, the clock and the measured period bit-identical to
// n+1 IdleSteps on a twin.
func TestSkipIdleMatchesIdleSteps(t *testing.T) {
	const n = 37
	fm, fast := settledSetup(t)
	sm, slow := settledSetup(t)
	got, err := fast.SkipIdle(n)
	if err != nil || got != n {
		t.Fatalf("SkipIdle(%d) = %d, %v; want %d", n, got, err, n)
	}
	if _, err := fast.IdleStep(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= n; k++ {
		if changed, err := slow.IdleStep(); err != nil || changed {
			t.Fatalf("idle period %d: changed=%v err=%v", k, changed, err)
		}
	}
	if fm.Now() != sm.Now() {
		t.Fatalf("clock %v, want %v", fm.Now(), sm.Now())
	}
	if a, b := fast.LastUnfairness(), slow.LastUnfairness(); math.Float64bits(a) != math.Float64bits(b) {
		t.Errorf("LastUnfairness %v, want %v", a, b)
	}
	for _, name := range fm.Apps() {
		a, _ := fm.ReadCounters(name)
		b, _ := sm.ReadCounters(name)
		if a != b {
			t.Errorf("%s counters %+v, want %+v", name, a, b)
		}
	}
	if fast.Phase() != PhaseIdle || !fast.State().Equal(slow.State()) {
		t.Errorf("phase %v state %+v, want idle %+v", fast.Phase(), fast.State(), slow.State())
	}
}

// TestSkipIdleRefuses: every condition SkipIdle names refuses the
// fast-forward (advances 0 and leaves the clock alone), and a settled
// manager with none of them advances.
func TestSkipIdleRefuses(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(m *machine.Machine, mgr *Manager)
		want  int
	}{
		{"settled", func(*machine.Machine, *Manager) {}, 5},
		{"observer", func(_ *machine.Machine, mgr *Manager) { mgr.OnPeriod = func(PeriodReport) {} }, 0},
		{"event log", func(_ *machine.Machine, mgr *Manager) {
			log, err := eventlog.New(16)
			if err != nil {
				t.Fatal(err)
			}
			mgr.Events = log
		}, 0},
		{"resilience", func(_ *machine.Machine, mgr *Manager) { mgr.Resilience = DefaultResilience() }, 0},
		{"no baseline", func(_ *machine.Machine, mgr *Manager) { mgr.apps[1].idleIPS = 0 }, 0},
		{"not idle", func(_ *machine.Machine, mgr *Manager) { mgr.phase = PhaseExplore }, 0},
		{"envelope", func(m *machine.Machine, mgr *Manager) {
			if err := mgr.SetEnvelope(Envelope{LoWay: 1, Ways: m.Config().LLCWays - 1}); err != nil {
				t.Fatal(err)
			}
		}, 0},
		{"departure", func(m *machine.Machine, mgr *Manager) {
			if err := m.RemoveApp(m.Apps()[0]); err != nil {
				t.Fatal(err)
			}
		}, 0},
		{"wrapped target", func(m *machine.Machine, mgr *Manager) { mgr.target = struct{ Target }{m} }, 0},
		// A counter so far along that one more period's increment sits
		// near its last bits: rounding alone could fake a drift.
		{"rounding bound", func(_ *machine.Machine, mgr *Manager) { mgr.apps[2].idleIPS = 1e-9 }, 0},
	} {
		m, mgr := settledSetup(t)
		tc.setup(m, mgr)
		before := m.Now()
		got, err := mgr.SkipIdle(5)
		if err != nil || got != tc.want {
			t.Errorf("%s: SkipIdle(5) = %d, %v; want %d", tc.name, got, err, tc.want)
		}
		if adv := m.Now() - before; adv != time.Duration(got)*mgr.params.Period {
			t.Errorf("%s: clock advanced %v for %d periods", tc.name, adv, got)
		}
	}
}

// TestSkipIdleRefusesPhasedApp: on TestManagerReadaptsOnPhaseChange's
// machine, whose bursty app changes phase at 120 s, SkipIdle advances
// nothing — the machine is not stationary — so a caller that offers it
// every idle period detects the change at the same period as one that
// never does.
func TestSkipIdleRefusesPhasedApp(t *testing.T) {
	detect := func(offer bool) time.Duration {
		m, mgr := phasedSetup(t)
		if err := mgr.Profile(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100 && mgr.Phase() == PhaseExplore; i++ {
			if _, err := mgr.ExploreStep(); err != nil {
				t.Fatal(err)
			}
		}
		if mgr.Phase() != PhaseIdle {
			t.Fatalf("no convergence in the quiet phase (phase %v)", mgr.Phase())
		}
		for i := 0; i < 200; i++ {
			if offer {
				if got, err := mgr.SkipIdle(50); err != nil || got != 0 {
					t.Fatalf("SkipIdle on a phased machine = %d, %v; want 0", got, err)
				}
			}
			changed, err := mgr.IdleStep()
			if err != nil {
				t.Fatal(err)
			}
			if changed {
				return m.Now()
			}
		}
		t.Fatal("idle phase never detected the behavioural change")
		return 0
	}
	if got, want := detect(true), detect(false); got != want {
		t.Errorf("change detected at %v with SkipIdle offered, %v without", got, want)
	}
}
