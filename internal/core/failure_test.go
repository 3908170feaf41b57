package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/workloads"
)

// TestManagerSurvivesDepartureMidExploration injects an application
// departure while the manager is still exploring: the next ExploreStep
// must fall back to profiling instead of erroring on the missing
// counters.
func TestManagerSurvivesDepartureMidExploration(t *testing.T) {
	m, mgr := testSetup(t, workloads.HBoth, 4)
	if err := mgr.Profile(); err != nil {
		t.Fatal(err)
	}
	// A couple of exploration periods, then the departure.
	for i := 0; i < 2; i++ {
		if _, err := mgr.ExploreStep(); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.RemoveApp(m.Apps()[0]); err != nil {
		t.Fatal(err)
	}
	done, err := mgr.ExploreStep()
	if err != nil {
		t.Fatalf("departure mid-exploration must not error: %v", err)
	}
	if done {
		t.Fatal("departure should restart adaptation, not finish it")
	}
	if mgr.Phase() != PhaseProfile {
		t.Fatalf("phase %v, want profiling", mgr.Phase())
	}
	// Full recovery with the remaining applications.
	runToIdle(t, mgr)
}

// flakyTarget wraps a machine target and fails counter reads after a
// fuse burns — modeling a PMC read error (e.g. a perf fd dying with its
// process).
type flakyTarget struct {
	*machine.Machine
	failAfter int
	reads     int
}

func (f *flakyTarget) ReadCounters(name string) (machine.Counters, error) {
	f.reads++
	if f.reads > f.failAfter {
		return machine.Counters{}, errors.New("injected PMC failure")
	}
	return f.Machine.ReadCounters(name)
}

func TestManagerSurfacesCounterFailures(t *testing.T) {
	cfg := machine.DefaultConfig()
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	models, err := workloads.Mix(cfg, workloads.HLLC, 4)
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
	flaky := &flakyTarget{Machine: m, failAfter: 30}
	mgr, err := NewManager(flaky, DefaultParams(), ref,
		Envelope{LoWay: 0, Ways: cfg.LLCWays}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	err = mgr.Run(120 * time.Second)
	if err == nil {
		t.Fatal("counter failures must surface as errors, not be swallowed")
	}
}

// TestManagerReadsThroughWrapper pins what the whole-set sampling sweep
// may not do: reach the counters around the Target. A wrapper that
// embeds the machine and overrides ReadCounters (fault injectors, the
// benchmark's timing wrapper) must see every read — n first sightings
// plus n reads for each of the 3n probe periods while profiling, then
// exactly n a period once the windows stay anchored.
func TestManagerReadsThroughWrapper(t *testing.T) {
	cfg := machine.DefaultConfig()
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	models, err := workloads.Mix(cfg, workloads.HLLC, 4)
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
	counting := &flakyTarget{Machine: m, failAfter: math.MaxInt}
	mgr, err := NewManager(counting, DefaultParams(), ref,
		Envelope{LoWay: 0, Ways: cfg.LLCWays}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	n := len(models)
	if err := mgr.Profile(); err != nil {
		t.Fatal(err)
	}
	if want := n + 3*n*n; counting.reads != want {
		t.Fatalf("profiling %d apps: wrapper saw %d counter reads, want %d", n, counting.reads, want)
	}
	for period := 1; period <= 5; period++ {
		before := counting.reads
		if _, err := mgr.ExploreStep(); err != nil {
			t.Fatal(err)
		}
		if got := counting.reads - before; got != n {
			t.Fatalf("period %d: wrapper saw %d counter reads, want %d", period, got, n)
		}
	}
}

// stuckTarget's Step fails — e.g. the control process lost the ability
// to sleep/schedule.
type stuckTarget struct {
	*machine.Machine
}

func (s *stuckTarget) Step(time.Duration) error {
	return errors.New("injected step failure")
}

func TestManagerSurfacesStepFailures(t *testing.T) {
	cfg := machine.DefaultConfig()
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	models, err := workloads.Mix(cfg, workloads.HLLC, 4)
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
	mgr, err := NewManager(&stuckTarget{Machine: m}, DefaultParams(), ref,
		Envelope{LoWay: 0, Ways: cfg.LLCWays}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Profile(); err == nil {
		t.Fatal("step failures must surface from profiling")
	}
}
