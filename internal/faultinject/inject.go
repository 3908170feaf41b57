package faultinject

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/eventlog"
	"repro/internal/hosttarget"
	"repro/internal/machine"
	"repro/internal/resctrl"
)

// Stats counts the faults an injector has actually delivered.
type Stats struct {
	ReadErrors  int
	WriteErrors int
	Overruns    int
	Wraps       int
	StuckReads  int
	Departures  int
	Arrivals    int
}

// Total sums all injected faults.
func (s Stats) Total() int {
	return s.ReadErrors + s.WriteErrors + s.Overruns + s.Wraps +
		s.StuckReads + s.Departures + s.Arrivals
}

// Injector replays a Scenario. It is the shared engine behind the
// Target, Counters, and Tree wrappers; wrappers built from the same
// injector share one fault stream and one Stats.
type Injector struct {
	sc  Scenario
	rng *rand.Rand
	now func() time.Duration
	log *eventlog.Log

	stats     Stats
	lastFault time.Duration
	frozen    map[string]machine.Counters // snapshot held during stuck windows
	wrapBase  map[string][]machine.Counters
	churnIdx  int
}

// NewInjector validates the scenario and builds its injector. The clock
// must be the wrapped substrate's clock; log may be nil.
func NewInjector(sc Scenario, now func() time.Duration, log *eventlog.Log) (*Injector, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if now == nil {
		return nil, fmt.Errorf("faultinject: nil clock")
	}
	return &Injector{
		sc:       sc,
		rng:      rand.New(rand.NewSource(sc.Seed)),
		now:      now,
		log:      log,
		frozen:   make(map[string]machine.Counters),
		wrapBase: make(map[string][]machine.Counters),
	}, nil
}

// Stats returns the faults delivered so far.
func (inj *Injector) Stats() Stats { return inj.stats }

// LastFault returns the target time of the most recent injected fault,
// or a negative duration when nothing was injected yet. Soak tests use
// it as the start of the recovery clock.
func (inj *Injector) LastFault() time.Duration {
	if inj.stats.Total() == 0 {
		return -1
	}
	return inj.lastFault
}

func (inj *Injector) record(kind, app, detail string) {
	inj.lastFault = inj.now()
	if inj.log != nil {
		inj.log.Appendf(inj.lastFault, eventlog.KindFault, app, "inject %s: %s", kind, detail)
	}
}

// probActive reports whether probabilistic injections are still live.
func (inj *Injector) probActive() bool {
	return inj.sc.ProbUntil == 0 || inj.now() < inj.sc.ProbUntil
}

func inWindow(ws []Window, t time.Duration) bool {
	for _, w := range ws {
		if w.Contains(t) {
			return true
		}
	}
	return false
}

// readFault returns a non-nil error when the current counter read should
// fail.
func (inj *Injector) readFault(app string) error {
	t := inj.now()
	if inWindow(inj.sc.ReadBursts, t) {
		inj.stats.ReadErrors++
		inj.record("read-burst", app, "counter read failed")
		return fmt.Errorf("faultinject: counter read for %s: %w", app, ErrInjected)
	}
	if inj.sc.ReadErrProb > 0 && inj.probActive() && inj.rng.Float64() < inj.sc.ReadErrProb {
		inj.stats.ReadErrors++
		inj.record("read-error", app, "counter read failed")
		return fmt.Errorf("faultinject: counter read for %s: %w", app, ErrInjected)
	}
	return nil
}

// writeFault returns a non-nil error when the current schemata write
// should fail with the EBUSY the kernel produces under contention.
func (inj *Injector) writeFault(app string) error {
	t := inj.now()
	if inWindow(inj.sc.WriteBursts, t) {
		inj.stats.WriteErrors++
		inj.record("write-burst", app, "schemata write EBUSY")
		return fmt.Errorf("faultinject: schemata write for %s: device or resource busy: %w", app, ErrInjected)
	}
	if inj.sc.WriteErrProb > 0 && inj.probActive() && inj.rng.Float64() < inj.sc.WriteErrProb {
		inj.stats.WriteErrors++
		inj.record("write-error", app, "schemata write EBUSY")
		return fmt.Errorf("faultinject: schemata write for %s: device or resource busy: %w", app, ErrInjected)
	}
	return nil
}

// transformCounters applies wraparound and stuck-counter faults to a
// successful read.
func (inj *Injector) transformCounters(app string, cur machine.Counters) machine.Counters {
	t := inj.now()
	// Wraparound: at the first read after each scheduled wrap time the
	// cumulative counters restart from zero — emulated by subtracting the
	// values at the wrap point from every later read.
	fired := inj.wrapBase[app]
	for i, at := range inj.sc.WrapAt {
		if t >= at && i >= len(fired) {
			fired = append(fired, cur)
			inj.stats.Wraps++
			inj.record("wrap", app, fmt.Sprintf("counters wrapped at %v", at))
		}
	}
	inj.wrapBase[app] = fired
	if n := len(fired); n > 0 {
		base := fired[n-1]
		cur.Instructions -= base.Instructions
		cur.LLCAccesses -= base.LLCAccesses
		cur.LLCMisses -= base.LLCMisses
		cur.MemoryBytes -= base.MemoryBytes
	}
	// Stuck counters: freeze at the first value read inside the window.
	if inWindow(inj.sc.StuckWindows, t) {
		if frozen, ok := inj.frozen[app]; ok {
			inj.stats.StuckReads++
			inj.record("stuck", app, "counters frozen")
			return frozen
		}
		inj.frozen[app] = cur
		return cur
	}
	delete(inj.frozen, app)
	return cur
}

// readCounters runs one counter read through the full fault pipeline.
func (inj *Injector) readCounters(app string, read func(string) (machine.Counters, error)) (machine.Counters, error) {
	if err := inj.readFault(app); err != nil {
		return machine.Counters{}, err
	}
	cur, err := read(app)
	if err != nil {
		return machine.Counters{}, err
	}
	return inj.transformCounters(app, cur), nil
}

// stepDuration stretches dt when the period overruns.
func (inj *Injector) stepDuration(dt time.Duration) time.Duration {
	if inj.sc.OverrunProb > 0 && inj.probActive() && inj.rng.Float64() < inj.sc.OverrunProb {
		inj.stats.Overruns++
		stretched := time.Duration(float64(dt) * inj.sc.OverrunFactor)
		inj.record("overrun", "", fmt.Sprintf("step %v stretched to %v", dt, stretched))
		return stretched
	}
	return dt
}

// churnSink is what the injector needs from a target to replay churn.
// *machine.Machine satisfies it.
type churnSink interface {
	Apps() []string
	RemoveApp(name string) error
	AddApp(model machine.AppModel) error
}

// applyChurn fires every scheduled churn event whose time has passed.
func (inj *Injector) applyChurn(sink churnSink) error {
	t := inj.now()
	for inj.churnIdx < len(inj.sc.Churn) && inj.sc.Churn[inj.churnIdx].At <= t {
		ev := inj.sc.Churn[inj.churnIdx]
		inj.churnIdx++
		if ev.Arrive {
			if err := sink.AddApp(*ev.Model); err != nil {
				return fmt.Errorf("faultinject: arrival of %s: %w", ev.Model.Name, err)
			}
			inj.stats.Arrivals++
			inj.record("arrive", ev.Model.Name, "application arrived")
			continue
		}
		name := ev.Name
		if name == "" {
			apps := sink.Apps()
			if len(apps) == 0 {
				return fmt.Errorf("faultinject: departure at %v: no applications", ev.At)
			}
			name = apps[0]
		}
		if err := sink.RemoveApp(name); err != nil {
			return fmt.Errorf("faultinject: departure of %s: %w", name, err)
		}
		inj.stats.Departures++
		inj.record("depart", name, "application departed")
	}
	return nil
}

// Target wraps a core.Target with fault injection. Counter reads,
// schemata writes, and time steps all pass through the injector; churn
// events are replayed at step boundaries.
type Target struct {
	inner core.Target
	inj   *Injector
	// gen is the inner target's AppsGeneration, nil when it has none;
	// calls counts AppsGeneration calls in that case.
	gen   interface{ AppsGeneration() uint64 }
	calls uint64
}

// WrapTarget builds an injecting wrapper around t. When the scenario
// schedules churn, the target must also support adding and removing
// applications (*machine.Machine does). The log may be nil.
func WrapTarget(t core.Target, sc Scenario, log *eventlog.Log) (*Target, error) {
	inj, err := NewInjector(sc, t.Now, log)
	if err != nil {
		return nil, err
	}
	if len(sc.Churn) > 0 {
		if _, ok := t.(churnSink); !ok {
			return nil, fmt.Errorf("faultinject: scenario schedules churn but target %T cannot add/remove apps", t)
		}
	}
	gen, _ := t.(interface{ AppsGeneration() uint64 })
	return &Target{inner: t, inj: inj, gen: gen}, nil
}

// Injector exposes the wrapper's engine for stats and recovery clocks.
func (t *Target) Injector() *Injector { return t.inj }

// Apps implements core.Target.
func (t *Target) Apps() []string { return t.inner.Apps() }

// AppsGeneration forwards the inner target's membership count (see
// core.Target): churn calls the inner target's own AddApp and RemoveApp,
// so the count moves with every arrival and departure. Over an inner
// target without one it moves on every call, so the manager polls Apps
// every period.
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
	return t.inj.readCounters(name, t.inner.ReadCounters)
}

// SetAllocation implements core.Target with write faults applied.
func (t *Target) SetAllocation(name string, a machine.Alloc) error {
	if err := t.inj.writeFault(name); err != nil {
		return err
	}
	return t.inner.SetAllocation(name, a)
}

// Config implements core.Target.
func (t *Target) Config() machine.Config { return t.inner.Config() }

// Now implements core.Target.
func (t *Target) Now() time.Duration { return t.inner.Now() }

// Step implements core.Target: the step may overrun, and scheduled churn
// fires once the clock has advanced.
func (t *Target) Step(dt time.Duration) error {
	if err := t.inner.Step(t.inj.stepDuration(dt)); err != nil {
		return err
	}
	if sink, ok := t.inner.(churnSink); ok {
		return t.inj.applyChurn(sink)
	}
	return nil
}

// Counters wraps a counter source (hosttarget.CounterSource) with the
// read-side faults of a scenario: read errors, wraparound, and stuck
// counters.
type Counters struct {
	inner hosttarget.CounterSource
	inj   *Injector
}

// WrapCounters builds an injecting wrapper around src using the given
// clock. The log may be nil.
func WrapCounters(src hosttarget.CounterSource, sc Scenario, now func() time.Duration, log *eventlog.Log) (*Counters, error) {
	inj, err := NewInjector(sc, now, log)
	if err != nil {
		return nil, err
	}
	return &Counters{inner: src, inj: inj}, nil
}

// Injector exposes the wrapper's engine.
func (c *Counters) Injector() *Injector { return c.inj }

// ReadCounters implements hosttarget.CounterSource.
func (c *Counters) ReadCounters(app string) (machine.Counters, error) {
	return c.inj.readCounters(app, c.inner.ReadCounters)
}

// Tree wraps a resctrl tree (hosttarget.Tree) with the write-side faults
// of a scenario: schemata writes fail probabilistically and during write
// bursts, exactly as a contended kernel interface returns EBUSY.
type Tree struct {
	hosttarget.Tree
	inj *Injector
}

// WrapTree builds an injecting wrapper around tr using the given clock.
// The log may be nil.
func WrapTree(tr hosttarget.Tree, sc Scenario, now func() time.Duration, log *eventlog.Log) (*Tree, error) {
	inj, err := NewInjector(sc, now, log)
	if err != nil {
		return nil, err
	}
	return &Tree{Tree: tr, inj: inj}, nil
}

// Injector exposes the wrapper's engine.
func (t *Tree) Injector() *Injector { return t.inj }

// WriteSchemata implements hosttarget.Tree with write faults applied.
func (t *Tree) WriteSchemata(group string, s resctrl.Schemata) error {
	if err := t.inj.writeFault(group); err != nil {
		return err
	}
	return t.Tree.WriteSchemata(group, s)
}
