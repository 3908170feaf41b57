package faultinject

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/eventlog"
	"repro/internal/machine"
)

// Stats counts the faults a wrapper has actually delivered.
type Stats struct {
	ReadErrors  int
	WriteErrors int
	Overruns    int
	Wraps       int
	StuckReads  int
}

// Total sums all injected faults.
func (s Stats) Total() int {
	return s.ReadErrors + s.WriteErrors + s.Overruns + s.Wraps + s.StuckReads
}

// Target wraps a core.Target with fault injection and replays a
// Scenario's faults against it: counter reads, schemata writes, and time
// steps all pass through the scenario. Membership is the inner target's
// own; the scenario's churn is the caller's to replay.
type Target struct {
	inner core.Target
	sc    Scenario
	rng   *rand.Rand
	log   *eventlog.Log

	stats     Stats
	lastFault time.Duration
	frozen    map[string]machine.Counters // snapshot held during stuck windows
	wrapBase  map[string][]machine.Counters

	// gen is the inner target's AppsGeneration, nil when it has none;
	// calls counts AppsGeneration calls in that case.
	gen   interface{ AppsGeneration() uint64 }
	calls uint64
}

// WrapTarget validates the scenario and builds an injecting wrapper
// around t, its probabilistic stream seeded from the scenario. The log
// may be nil.
func WrapTarget(t core.Target, sc Scenario, log *eventlog.Log) (*Target, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	gen, _ := t.(interface{ AppsGeneration() uint64 })
	return &Target{
		inner:    t,
		sc:       sc,
		rng:      rand.New(rand.NewSource(sc.Seed)),
		log:      log,
		frozen:   make(map[string]machine.Counters),
		wrapBase: make(map[string][]machine.Counters),
		gen:      gen,
	}, nil
}

// Stats returns the faults delivered so far.
func (t *Target) Stats() Stats { return t.stats }

// LastFault returns the target time of the most recent injected fault,
// or a negative duration when nothing was injected yet. Soak tests use
// it as the start of the recovery clock.
func (t *Target) LastFault() time.Duration {
	if t.stats.Total() == 0 {
		return -1
	}
	return t.lastFault
}

func (t *Target) record(kind, app, detail string) {
	t.lastFault = t.inner.Now()
	if t.log != nil {
		t.log.Appendf(t.lastFault, eventlog.KindFault, app, "inject %s: %s", kind, detail)
	}
}

// probActive reports whether probabilistic injections are still live.
func (t *Target) probActive() bool {
	return t.sc.ProbUntil == 0 || t.inner.Now() < t.sc.ProbUntil
}

func inWindow(ws []Window, at time.Duration) bool {
	for _, w := range ws {
		if w.Contains(at) {
			return true
		}
	}
	return false
}

// readFault returns a non-nil error when the current counter read should
// fail.
func (t *Target) readFault(app string) error {
	if inWindow(t.sc.ReadBursts, t.inner.Now()) {
		t.stats.ReadErrors++
		t.record("read-burst", app, "counter read failed")
		return fmt.Errorf("faultinject: counter read for %s: %w", app, ErrInjected)
	}
	if t.sc.ReadErrProb > 0 && t.probActive() && t.rng.Float64() < t.sc.ReadErrProb {
		t.stats.ReadErrors++
		t.record("read-error", app, "counter read failed")
		return fmt.Errorf("faultinject: counter read for %s: %w", app, ErrInjected)
	}
	return nil
}

// writeFault returns a non-nil error when the current schemata write
// should fail with the EBUSY the kernel produces under contention.
func (t *Target) writeFault(app string) error {
	if inWindow(t.sc.WriteBursts, t.inner.Now()) {
		t.stats.WriteErrors++
		t.record("write-burst", app, "schemata write EBUSY")
		return fmt.Errorf("faultinject: schemata write for %s: device or resource busy: %w", app, ErrInjected)
	}
	if t.sc.WriteErrProb > 0 && t.probActive() && t.rng.Float64() < t.sc.WriteErrProb {
		t.stats.WriteErrors++
		t.record("write-error", app, "schemata write EBUSY")
		return fmt.Errorf("faultinject: schemata write for %s: device or resource busy: %w", app, ErrInjected)
	}
	return nil
}

// transformCounters applies wraparound and stuck-counter faults to a
// successful read.
func (t *Target) transformCounters(app string, cur machine.Counters) machine.Counters {
	now := t.inner.Now()
	// Wraparound: at the first read after each scheduled wrap time the
	// cumulative counters restart from zero — emulated by subtracting the
	// values at the wrap point from every later read.
	fired := t.wrapBase[app]
	for i, at := range t.sc.WrapAt {
		if now >= at && i >= len(fired) {
			fired = append(fired, cur)
			t.stats.Wraps++
			t.record("wrap", app, fmt.Sprintf("counters wrapped at %v", at))
		}
	}
	t.wrapBase[app] = fired
	if n := len(fired); n > 0 {
		base := fired[n-1]
		cur.Instructions -= base.Instructions
		cur.LLCAccesses -= base.LLCAccesses
		cur.LLCMisses -= base.LLCMisses
		cur.MemoryBytes -= base.MemoryBytes
	}
	// Stuck counters: freeze at the first value read inside the window.
	if inWindow(t.sc.StuckWindows, now) {
		if frozen, ok := t.frozen[app]; ok {
			t.stats.StuckReads++
			t.record("stuck", app, "counters frozen")
			return frozen
		}
		t.frozen[app] = cur
		return cur
	}
	delete(t.frozen, app)
	return cur
}

// stepDuration stretches dt when the period overruns.
func (t *Target) stepDuration(dt time.Duration) time.Duration {
	if t.sc.OverrunProb > 0 && t.probActive() && t.rng.Float64() < t.sc.OverrunProb {
		t.stats.Overruns++
		stretched := time.Duration(float64(dt) * t.sc.OverrunFactor)
		t.record("overrun", "", fmt.Sprintf("step %v stretched to %v", dt, stretched))
		return stretched
	}
	return dt
}

// Apps implements core.Target.
func (t *Target) Apps() []string { return t.inner.Apps() }

// AppsGeneration forwards the inner target's membership count (see
// core.Target): the wrapper passes Apps through unchanged, so the count
// moves with every arrival and departure on the inner target. Over an
// inner target without one it moves on every call, so the manager polls
// Apps every period.
func (t *Target) AppsGeneration() uint64 {
	if t.gen != nil {
		return t.gen.AppsGeneration()
	}
	t.calls++
	return t.calls
}

// ReadCounters implements core.Target with read faults, wraparound, and
// stuck counters applied.
func (t *Target) ReadCounters(name string) (machine.Counters, error) {
	if err := t.readFault(name); err != nil {
		return machine.Counters{}, err
	}
	cur, err := t.inner.ReadCounters(name)
	if err != nil {
		return machine.Counters{}, err
	}
	return t.transformCounters(name, cur), nil
}

// SetAllocation implements core.Target with write faults applied.
func (t *Target) SetAllocation(name string, a machine.Alloc) error {
	if err := t.writeFault(name); err != nil {
		return err
	}
	return t.inner.SetAllocation(name, a)
}

// Config implements core.Target.
func (t *Target) Config() machine.Config { return t.inner.Config() }

// Now implements core.Target.
func (t *Target) Now() time.Duration { return t.inner.Now() }

// Step implements core.Target: the step may overrun.
func (t *Target) Step(dt time.Duration) error {
	return t.inner.Step(t.stepDuration(dt))
}
