package core

import (
	"testing"
	"time"

	"repro/internal/workloads"
)

// TestSetClock pins the ExploreTimes telemetry against a scripted
// clock: the solver timing brackets exactly one pair of clock reads per
// explore step, so with a clock that advances one tick per read every
// recorded duration must equal the tick exactly.
func TestSetClock(t *testing.T) {
	_, mgr := testSetup(t, workloads.HLLC, 4)

	const tick = 7 * time.Millisecond
	base := time.Unix(1_700_000_000, 0)
	reads := 0
	mgr.SetClock(func() time.Time {
		reads++
		return base.Add(time.Duration(reads) * tick)
	})

	if err := mgr.Profile(); err != nil {
		t.Fatal(err)
	}
	steps := 0
	for mgr.Phase() == PhaseExplore && steps < 3 {
		if _, err := mgr.ExploreStep(); err != nil {
			t.Fatal(err)
		}
		steps++
	}
	if steps == 0 {
		t.Fatal("manager never entered the explore phase")
	}
	if len(mgr.ExploreTimes) != steps {
		t.Fatalf("ExploreTimes has %d entries after %d steps", len(mgr.ExploreTimes), steps)
	}
	for i, d := range mgr.ExploreTimes {
		if d != tick {
			t.Errorf("ExploreTimes[%d] = %v, want exactly %v", i, d, tick)
		}
	}
	if reads != 2*steps {
		t.Errorf("clock reads = %d, want %d (two per explore step)", reads, 2*steps)
	}

	// nil restores the real clock: subsequent steps must not read the
	// script again.
	mgr.SetClock(nil)
	if mgr.Phase() == PhaseExplore {
		before := reads
		if _, err := mgr.ExploreStep(); err != nil {
			t.Fatal(err)
		}
		if reads != before {
			t.Errorf("scripted clock still read %d times after SetClock(nil)", reads-before)
		}
	}
}

// TestReprofileResetsExploreTimes pins the journal to the current
// exploration: a daemon re-profiles on every churn event, and the
// journal must not grow for the daemon's whole lifetime.
func TestReprofileResetsExploreTimes(t *testing.T) {
	m, mgr := testSetup(t, workloads.HLLC, 4)
	stepIn(t, mgr, PhaseIdle)
	if len(mgr.ExploreTimes) == 0 {
		t.Fatal("first exploration recorded no steps")
	}
	if err := m.RemoveApp(m.Apps()[0]); err != nil {
		t.Fatal(err)
	}
	if changed, err := mgr.IdleStep(); err != nil || !changed {
		t.Fatalf("departure not detected: changed=%v err=%v", changed, err)
	}
	if err := mgr.Profile(); err != nil {
		t.Fatal(err)
	}
	steps := 0
	for mgr.Phase() == PhaseExplore && steps < 3 {
		if _, err := mgr.ExploreStep(); err != nil {
			t.Fatal(err)
		}
		steps++
	}
	if len(mgr.ExploreTimes) != steps {
		t.Errorf("ExploreTimes has %d entries after re-profiling and %d explore steps", len(mgr.ExploreTimes), steps)
	}
}
