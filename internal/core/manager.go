package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/eventlog"
	"repro/internal/fairness"
	"repro/internal/machine"
	"repro/internal/membw"
	"repro/internal/pmc"
)

// Target is the machine the manager controls. *machine.Machine satisfies
// it directly; a production deployment would back it with the resctrl
// client and a PMC reader, with Step implemented as a wall-clock sleep.
//
// A target may also answer AppsGeneration() uint64, a count that moves
// whenever Apps may have changed; the manager polls Apps only when it has
// moved. A wrapper that changes what Apps returns must answer it too, or
// not embed a type that does: the promoted count would skip its Apps.
// Likewise a target answering Stationary() bool may have idle periods
// stepped without their ReadCounters (Manager.SkipIdle): a wrapper that
// changes what ReadCounters returns must not embed a type that answers
// it.
type Target interface {
	// Apps lists the consolidated applications.
	Apps() []string
	// ReadCounters returns an application's cumulative PMCs.
	ReadCounters(name string) (machine.Counters, error)
	// SetAllocation programs an application's (CBM, MBA level).
	SetAllocation(name string, a machine.Alloc) error
	// Config describes the hardware.
	Config() machine.Config
	// Now is the target's clock.
	Now() time.Duration
	// Step lets time pass (simulated or real).
	Step(dt time.Duration) error
}

// Envelope is the window of LLC ways the manager may hand to its
// applications. The §6.3 case study shrinks and grows this window as the
// latency-critical workload's reservation changes; stand-alone operation
// uses the full cache.
type Envelope struct {
	LoWay int
	Ways  int
}

// Validate checks the envelope against the hardware and application count.
//
//copart:noalloc
func (e Envelope) Validate(cfg machine.Config, apps int) error {
	if e.LoWay < 0 || e.Ways < 1 || e.LoWay+e.Ways > cfg.LLCWays {
		return fmt.Errorf("core: envelope [%d,%d) outside %d ways", e.LoWay, e.LoWay+e.Ways, cfg.LLCWays)
	}
	if apps > e.Ways {
		return fmt.Errorf("core: %d apps need at least %d ways, envelope has %d", apps, apps, e.Ways)
	}
	return nil
}

// Phase is the resource manager's execution phase (Figure 10).
type Phase int

const (
	PhaseProfile Phase = iota
	PhaseExplore
	PhaseIdle
	// PhaseDegraded holds the safe EQ allocation after the resilience
	// watchdog tripped; the manager probes for recovery every period.
	PhaseDegraded
)

// String renders the phase name.
func (p Phase) String() string {
	switch p {
	case PhaseProfile:
		return "profiling"
	case PhaseExplore:
		return "exploration"
	case PhaseIdle:
		return "idle"
	case PhaseDegraded:
		return "degraded"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// PeriodReport summarizes one control period for observers (the runtime
// figures are drawn from these). Its slices are read-only and may be
// shared with other reports: an observer may retain or append to them
// but must not write through them.
type PeriodReport struct {
	Time       time.Duration
	Phase      Phase
	Apps       []string
	Slowdowns  []float64
	Unfairness float64
	State      AllocState
}

// appRT is the manager's per-application runtime state.
type appRT struct {
	name      string
	llc       *LLCClassifier
	mba       *MBAClassifier
	ipsFull   float64 // profiled full-resource IPS (Equation 1 denominator)
	lastIPS   float64
	havePerf  bool
	wayChange ChangeKind // change applied at the start of the period
	mbaChange ChangeKind
	idleIPS   float64 // baseline recorded at idle entry
	weight    float64 // fairness weight (1 = unweighted; see SetWeight)
}

// Manager is CoPart's resource manager.
type Manager struct {
	target    Target
	params    Params
	streamRef map[int]float64 // STREAM miss rate per MBA level (§5.3)
	// streamRefAt is streamRef indexed by level/membw.Granularity — what
	// ExploreStep reads, once per application per period.
	streamRefAt [membw.MaxLevel/membw.Granularity + 1]float64
	env         Envelope
	rng         *rand.Rand
	sampler     *pmc.Sampler

	// gen is the target's AppsGeneration, nil when it has none (see
	// Target). namesOK says names equalled the target's list at
	// generation namesGen (see membershipChanged).
	gen      interface{ AppsGeneration() uint64 }
	namesGen uint64
	namesOK  bool

	apps  []*appRT
	state AllocState
	phase Phase
	retry int

	// weights holds per-application fairness weights by name (nil or a
	// missing entry means 1). A weight w scales an application's Equation 1
	// slowdown by 1/w before it enters the unfairness objective and the
	// allocator, so w > 1 means "tolerate proportionally more slowdown"
	// and w < 1 means "protect". Weights survive re-profiling (resetApps
	// re-reads them) and are dropped with DropWeight.
	weights map[string]float64

	// Per-period scratch, reused across control periods so that a
	// steady-state period performs no heap allocations (pinned by
	// TestManagerPeriodAllocationGuard; budget in DESIGN.md §8).
	// names is immutable between resets; PeriodReport hands it to
	// observers, who may retain it, so resetApps reallocates it whenever
	// it was exposed (namesExposed) and recycles it otherwise.
	names        []string    // cached Apps() order, immutable between resets
	namesExposed bool        // names was handed to a PeriodReport observer
	rates        []pmc.Rates // measurePeriod output
	infos        []AppInfo   // ExploreStep classifier snapshot
	slowdowns    []float64   // per-period Equation 1 values
	nextState    AllocState  // GetNextSystemStateInto destination
	eq           AllocState  // equalStateInto destination (Profile)
	masks        []uint64    // applyState CBM layout
	targetNames  []string    // targetApps poll buffer
	matchSc      AllocatorScratch

	// repSlowdowns and repState are the slices the last PeriodReport
	// carried; report hands them out again while the period's values
	// are unchanged (copy-on-change), so an idle observed period
	// allocates nothing. Never written once delivered.
	repSlowdowns []float64
	repState     AllocState

	// bestState is the lowest-unfairness state observed during the
	// current exploration; the manager settles into it when it goes
	// idle. Algorithm 1's random neighbor perturbations mean the *last*
	// explored state can be a perturbed one; parking on the best
	// observed state is the natural refinement (the paper is silent on
	// which state the idle phase holds).
	bestState  AllocState
	bestUnfair float64
	haveBest   bool

	// lastUnfairness is the most recent period's unfairness (exploration
	// or idle), exposed through LastUnfairness so drivers that only need
	// the headline fairness figure — the fleet — avoid the copying
	// PeriodReport observer path.
	lastUnfairness float64

	// anchoredAt/anchorValid record that measurePeriod's closing pass
	// anchored every application's sampling window at that virtual time;
	// while the target clock still reads anchoredAt, the next period's
	// opening pass is a provable no-op and is skipped (see measurePeriod).
	anchoredAt  time.Duration
	anchorValid bool

	envChanged bool

	// Resilience watchdog state: consecutive failed control periods,
	// consecutive healthy degraded periods, whether the EQ fallback has
	// been programmed, and the external stop request.
	failStreak    int
	recoverStreak int
	eqApplied     bool
	stop          atomic.Bool

	// Resilience hardens the control loop against transient substrate
	// failures (see the type's documentation). The zero value disables it,
	// which keeps Run's decisions bit-identical to the fail-fast loop.
	Resilience Resilience

	// Features toggles the reconstruction mechanisms (ablation support);
	// NewManager initializes it to DefaultFeatures. Set before Profile.
	Features Features

	// FreezeLLC and FreezeMBA pin one resource axis: the corresponding
	// classifier is held in Maintain, so the allocator never moves that
	// resource and its allocation stays at the equal split. They
	// implement the paper's CAT-only (FreezeMBA) and MBA-only
	// (FreezeLLC) baselines (§6.1). Set them before Profile.
	FreezeLLC bool
	FreezeMBA bool

	// ExploreTimes records the wall-clock duration of every
	// getNextSystemState invocation since the last Profile or Reuse —
	// the current exploration only (Figure 16's overhead metric).
	ExploreTimes []time.Duration
	// clock is the wall-clock source behind ExploreTimes. It defaults
	// to the real clock and is injectable via SetClock so the overhead
	// telemetry is testable with exact values; nothing else in the
	// manager reads it — control decisions run on virtual time.
	clock func() time.Time
	// OnPeriod, when non-nil, receives a report after every control
	// period in the exploration and idle phases.
	OnPeriod func(PeriodReport)
	// BetweenPeriods, when non-nil, is called by Run at the top of every
	// loop iteration — between control periods, when no phase step is in
	// flight. It is the safe point for runtime admission: the control
	// plane drains queued add/remove/reweight operations here, on the
	// controller goroutine, so they never race a period's target access.
	BetweenPeriods func()
	// SnapshotSource, when non-nil, is the counting source behind rng;
	// it is what lets Snapshot record the RNG stream position. Construct
	// the manager's rng with NewSeededRand and hand the source here.
	SnapshotSource *CountingSource
	// Events, when non-nil, receives structured telemetry: phase
	// transitions, profiling results, resource transfers, classifier
	// decisions, and change detections.
	Events *eventlog.Log
}

// NewManager builds a manager for the target's current applications.
func NewManager(target Target, params Params, streamRef map[int]float64, env Envelope, rng *rand.Rand) (*Manager, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("core: nil rng")
	}
	names := target.Apps()
	if len(names) == 0 {
		return nil, fmt.Errorf("core: no applications to manage")
	}
	if err := env.Validate(target.Config(), len(names)); err != nil {
		return nil, err
	}
	for level := membw.MinLevel; level <= membw.MaxLevel; level += membw.Granularity {
		if streamRef[level] <= 0 {
			return nil, fmt.Errorf("core: missing STREAM reference for MBA level %d", level)
		}
	}
	m := &Manager{
		params:   params,
		env:      env,
		rng:      rng,
		phase:    PhaseProfile,
		Features: DefaultFeatures(),
		clock:    time.Now, //copart:wallclock ExploreTimes telemetry measures real solver latency
	}
	m.bind(target, streamRef)
	m.resetApps(names)
	return m, nil
}

// bind attaches the target and the STREAM reference with everything
// derived from them, for both constructors (NewManager, RestoreSnapshot).
func (m *Manager) bind(target Target, streamRef map[int]float64) {
	m.target = target
	m.sampler = pmc.NewSampler(target)
	m.gen, _ = target.(interface{ AppsGeneration() uint64 })
	m.streamRef = streamRef
	for level := membw.MinLevel; level <= membw.MaxLevel; level += membw.Granularity {
		m.streamRefAt[level/membw.Granularity] = streamRef[level]
	}
}

// Reuse returns the manager to its just-constructed state for the
// target's *current* applications, without reallocating any of its
// runtime machinery: classifier objects, per-period scratch, and the
// sampler's snapshots are all recycled.
// A reused manager's control trajectory is bit-identical to a freshly
// constructed one over the same target and RNG stream — the contract
// the fleet's node-runtime pool is built on (DESIGN.md §12).
//
// Publicly settable configuration (Params, Envelope, Resilience,
// Features, Freeze flags, observers, weights are cleared but the map
// kept) is NOT restored to defaults except for the weight table;
// pooled drivers set those fields identically for every tenant anyway.
//
//copart:noalloc
func (m *Manager) Reuse() error {
	names := m.targetApps()
	if len(names) == 0 {
		return fmt.Errorf("core: no applications to manage")
	}
	if err := m.env.Validate(m.target.Config(), len(names)); err != nil {
		return err
	}
	m.phase = PhaseProfile
	m.state.Ways, m.state.MBA = m.state.Ways[:0], m.state.MBA[:0]
	m.bestState.Ways, m.bestState.MBA = m.bestState.Ways[:0], m.bestState.MBA[:0]
	m.bestUnfair = 0
	m.haveBest = false
	m.lastUnfairness = 0
	m.envChanged = false
	m.failStreak = 0
	m.recoverStreak = 0
	m.eqApplied = false
	m.stop.Store(false)
	m.ExploreTimes = m.ExploreTimes[:0]
	clear(m.weights)
	m.resetApps(names) // also resets the sampler and zeroes retry
	return nil
}

// SetClock replaces the wall-clock source behind the ExploreTimes
// telemetry. Tests inject a scripted clock to pin exact durations; nil
// restores the real clock. Control decisions never read this clock, so
// substituting it cannot perturb a seeded run.
func (m *Manager) SetClock(now func() time.Time) {
	if now == nil {
		now = time.Now //copart:wallclock restoring the real telemetry clock
	}
	m.clock = now
}

// resetApps rebuilds runtime state for the given application set (names
// must not alias m.names). appRT slots are recycled beyond len — their
// classifier pointers survive so Profile can Reinit instead of
// reallocate. The cached name slice is recycled only when it was never
// handed to a PeriodReport observer (namesExposed): observers may
// retain it across a re-profile, so an exposed slice is abandoned to
// them and a fresh one allocated.
//
//copart:noalloc
func (m *Manager) resetApps(names []string) {
	n := len(names)
	if cap(m.apps) < n {
		apps := make([]*appRT, n) //copart:allocok first growth to the consolidation size; steady state reuses slots
		copy(apps, m.apps[:cap(m.apps)])
		m.apps = apps
	} else {
		m.apps = m.apps[:n]
	}
	if m.namesExposed || cap(m.names) < n {
		m.names = make([]string, n) //copart:allocok an observer retains the old slice (or first growth)
		m.namesExposed = false
	} else {
		m.names = m.names[:n]
	}
	for i, name := range names {
		a := m.apps[i]
		if a == nil {
			a = &appRT{} //copart:allocok one-time slot construction, recycled forever after
			m.apps[i] = a
		}
		*a = appRT{name: name, weight: m.weightFor(name), llc: a.llc, mba: a.mba}
		m.names[i] = name
	}
	m.sampler.Reset()
	m.anchorValid = false
	m.namesOK = false
	m.retry = 0
}

// targetApps polls the target's application list into m.targetNames,
// reusing the buffer when the target supports AppsInto (the simulated
// machine does); the returned slice is valid until the next call.
//
//copart:noalloc
func (m *Manager) targetApps() []string {
	if t, ok := m.target.(interface{ AppsInto([]string) []string }); ok {
		m.targetNames = t.AppsInto(m.targetNames)
	} else {
		m.targetNames = m.target.Apps()
	}
	return m.targetNames
}

// membershipChanged is the per-period consolidation check: whether the
// target's application list has left m.names. It is one counter compare
// while the target's AppsGeneration stands where names was last
// verified; a target without one is polled and compared by name every
// period.
//
//copart:noalloc
func (m *Manager) membershipChanged() bool {
	if m.gen != nil && m.namesOK && m.gen.AppsGeneration() == m.namesGen {
		return false
	}
	if !sameNames(m.targetApps(), m.names) {
		return true
	}
	if m.gen != nil {
		m.namesGen, m.namesOK = m.gen.AppsGeneration(), true
	}
	return false
}

// Phase returns the manager's current phase.
func (m *Manager) Phase() Phase { return m.phase }

// FailStreak returns the resilience watchdog's count of consecutive
// failed control periods (0 while healthy). Together with Phase it is
// the manager's health surface (/healthz, /readyz, fleet rollups).
func (m *Manager) FailStreak() int { return m.failStreak }

// weightFor resolves an application's fairness weight (default 1).
//
//copart:noalloc
func (m *Manager) weightFor(name string) float64 {
	if w, ok := m.weights[name]; ok {
		return w
	}
	return 1
}

// SetWeight assigns an application's fairness weight: its slowdown is
// divided by w before entering the unfairness objective, so w > 1 lets
// the application absorb proportionally more slowdown and w < 1
// protects it. The weight takes effect from the next control period and
// survives re-profiling; it must be positive and finite. Callers must
// invoke it from the controller goroutine (e.g. a BetweenPeriods hook).
func (m *Manager) SetWeight(name string, w float64) error {
	if !(w > 0) || math.IsInf(w, 1) {
		return fmt.Errorf("core: weight %v for %s is not a positive finite number", w, name)
	}
	if m.weights == nil {
		m.weights = make(map[string]float64)
	}
	m.weights[name] = w
	for _, a := range m.apps {
		if a.name == name {
			a.weight = w
		}
	}
	return nil
}

// DropWeight removes an application's weight override (back to 1).
func (m *Manager) DropWeight(name string) {
	delete(m.weights, name)
	for _, a := range m.apps {
		if a.name == name {
			a.weight = 1
		}
	}
}

// Weight reports an application's current fairness weight.
func (m *Manager) Weight(name string) float64 { return m.weightFor(name) }

// State returns a copy of the current system state.
func (m *Manager) State() AllocState { return m.state.Clone() }

// StateInto copies the current system state into dst, reusing its
// backing arrays — the allocation-free form of State for drivers that
// provide their own storage (the fleet's per-node result arena).
//
//copart:noalloc
func (m *Manager) StateInto(dst *AllocState) { dst.CopyFrom(m.state) }

// LastUnfairness returns the unfairness measured in the most recent
// exploration or idle period (0 before the first one). It is the
// allocation-free alternative to reading Unfairness off PeriodReport
// when the rest of the report is not needed.
//
//copart:noalloc per-node telemetry readback on the fleet merge path
func (m *Manager) LastUnfairness() float64 { return m.lastUnfairness }

// SetEnvelope changes the way window at runtime (case study). The change
// is detected as a workload change: the manager re-adapts.
func (m *Manager) SetEnvelope(env Envelope) error {
	if err := env.Validate(m.target.Config(), len(m.apps)); err != nil {
		return err
	}
	if env == m.env {
		return nil
	}
	m.env = env
	m.envChanged = true
	return nil
}

// equalStateInto writes the equal-split starting state into dst: ways
// divided evenly and every application at the equal MBA share (an equal
// fraction of peak traffic, rounded up to the 10 % granularity —
// matching the EQ baseline; the paper does not specify CoPart's start
// state, and starting from EQ makes the exploration's improvement over
// EQ directly attributable to the controller). dst's backing arrays are
// reused when large enough, so the re-profiling path is allocation-free
// at steady state.
//
//copart:noalloc
func (m *Manager) equalStateInto(dst *AllocState) error {
	n := len(m.apps)
	ways, err := machine.EqualSplitInto(dst.Ways, m.env.Ways, n)
	if err != nil {
		return err
	}
	dst.Ways = ways
	level := EqualMBAShare(n)
	if cap(dst.MBA) < n {
		dst.MBA = make([]int, n) //copart:allocok first call grows the scratch; steady state reuses it
	}
	dst.MBA = dst.MBA[:n]
	for i := range dst.MBA {
		dst.MBA[i] = level
	}
	return nil
}

// EqualMBAShare returns the equal MBA allocation for n applications:
// ceil(100/n) rounded up to the hardware granularity, clamped to the
// legal range.
//
//copart:noalloc
func EqualMBAShare(n int) int {
	if n < 1 {
		return membw.MaxLevel
	}
	share := (100 + n - 1) / n
	share = ((share + membw.Granularity - 1) / membw.Granularity) * membw.Granularity
	if share < membw.MinLevel {
		share = membw.MinLevel
	}
	if share > membw.MaxLevel {
		share = membw.MaxLevel
	}
	return share
}

// applyState programs the target with st and records per-application
// change kinds relative to the previous state. st may alias the
// manager's own scratch (nextState); the masks buffer and the in-place
// state copy keep the call allocation-free at steady state.
func (m *Manager) applyState(st AllocState) error {
	masks, err := machine.AssignContiguousWaysInto(m.masks, st.Ways, m.env.LoWay, m.env.Ways)
	if err != nil {
		return err
	}
	m.masks = masks
	for i, a := range m.apps {
		if err := m.setAllocation(a.name, machine.Alloc{CBM: masks[i], MBALevel: st.MBA[i]}); err != nil {
			return err
		}
		a.wayChange, a.mbaChange = NoChange, NoChange
		if len(m.state.Ways) == len(st.Ways) {
			switch {
			case st.Ways[i] > m.state.Ways[i]:
				a.wayChange = GainedWay
			case st.Ways[i] < m.state.Ways[i]:
				a.wayChange = LostWay
			}
			switch {
			case st.MBA[i] > m.state.MBA[i]:
				a.mbaChange = GainedMBA
			case st.MBA[i] < m.state.MBA[i]:
				a.mbaChange = LostMBA
			}
			if m.Events.Enabled() && (a.wayChange != NoChange || a.mbaChange != NoChange) {
				m.logf(eventlog.KindState, a.name, "%s %s → ways=%d mba=%d",
					a.wayChange, a.mbaChange, st.Ways[i], st.MBA[i])
			}
		}
	}
	m.state.CopyFrom(st)
	return nil
}

// measurePeriod advances one control period and returns each
// application's windowed counter rates over it: an anchoring sweep when
// the windows are not already anchored at the period start, the step,
// and a measuring sweep that writes m.rates in place. With resilience
// enabled the step and every counter read are retried with backoff
// before the period is declared failed. The returned slice is
// manager-owned scratch, valid until the next period.
func (m *Manager) measurePeriod() ([]pmc.Rates, error) {
	// The opening sweep anchors every application's sampling window at the
	// period start. Its real job is re-anchoring after disruptions — a
	// failed period, time stepped outside the manager — and in the steady
	// state it is a no-op: the previous period's closing sweep already
	// anchored every app at this exact instant, and re-sampling at a
	// zero-width window changes nothing. anchoredAt
	// tracks that case so the steady path skips the sweep entirely;
	// anchorValid drops at the first sign of trouble (or any partial
	// sweep), which routes the next period back through the full sweep.
	// Hardened managers never skip: under resilience the opening reads
	// double as fault probes, and eliding them would change when the
	// watchdog first observes an outage (TestHardenedPeriodProbesAtItsStart).
	skip := !m.Resilience.Enabled && m.anchorValid && m.anchoredAt == m.target.Now()
	m.anchorValid = false
	if !skip {
		if _, err := m.sampleAll(m.target.Now(), nil); err != nil {
			return nil, err
		}
	}
	if err := m.target.Step(m.params.Period); err != nil {
		if err = m.retryAfter(err, "period step", "", func() error { return m.target.Step(m.params.Period) }); err != nil {
			return nil, err
		}
	}
	if cap(m.rates) < len(m.apps) {
		m.rates = make([]pmc.Rates, len(m.apps))
	}
	m.rates = m.rates[:len(m.apps)]
	closeAt := m.target.Now()
	noWindow, err := m.sampleAll(closeAt, m.rates)
	if err != nil {
		return nil, err
	}
	if noWindow >= 0 {
		// A dropped sample (counter wraparound or reset) fails the
		// period once; the sampler re-anchored its snapshot, so the
		// next period measures cleanly. Not worth retrying: the window
		// is already consumed.
		return nil, fmt.Errorf("core: no sampling window for %s", m.names[noWindow])
	}
	// Every application is now anchored at the period end.
	m.anchorValid = true
	m.anchoredAt = closeAt
	return m.rates, nil
}

// sampleAll is one sampling sweep over the managed set at virtual time
// at — one clock read serves the whole sweep, time is frozen across it —
// under pmc.Sampler.SampleAll's contract (nil out anchors only). Under
// resilience a failed read at index i is retried alone, with that app's
// own retry budget, and on success the sweep resumes at i+1: the reads,
// backoff steps and retry events fall exactly as a per-app loop of
// retried reads would produce them.
func (m *Manager) sampleAll(at time.Duration, out []pmc.Rates) (noWindow int, err error) {
	for from := 0; ; {
		noWindow, err = m.sampler.SampleAll(m.names[from:], at, ratesFrom(out, from))
		if noWindow < 0 {
			return -1, nil
		}
		i := from + noWindow
		if err == nil {
			return i, nil
		}
		err = m.retryAfter(err, "counter read", m.names[i], func() (err error) {
			noWindow, err = m.sampler.SampleAll(m.names[i:i+1], at, ratesFrom(out, i))
			return err
		})
		if err != nil || (out != nil && noWindow == 0) {
			return i, err
		}
		from = i + 1
	}
}

// ratesFrom is out[i:], or nil for an anchoring sweep.
func ratesFrom(out []pmc.Rates, i int) []pmc.Rates {
	if out == nil {
		return nil
	}
	return out[i:]
}

// Profile runs the application profiling phase (§5.4.1): it measures each
// application's IPS with the full envelope resources, then at (l_P, 100 %)
// and (L, M_P), and seeds both classifiers from the observed degradations.
// It leaves the system in the equal-split state, ready for exploration.
func (m *Manager) Profile() error {
	m.ExploreTimes = m.ExploreTimes[:0]
	if err := m.startProfile(nil); err != nil {
		return err
	}
	fullMask, err := windowMask(m.env)
	if err != nil {
		return err
	}
	profileWays := m.params.ProfileWays
	if profileWays > m.env.Ways {
		profileWays = m.env.Ways
	}
	probeMask := (uint64(1)<<profileWays - 1) << uint(m.env.LoWay)

	for i := range m.apps {
		a := m.apps[i]
		// applyState(m.eq) in startProfile left the EQ layout in m.masks,
		// and nothing in the probe loop overwrites it — the per-app restore
		// mask is a lookup, not a fresh layout computation.
		restore := machine.Alloc{CBM: m.masks[i], MBALevel: m.eq.MBA[i]}

		ipsFull, err := m.probe(a.name, machine.Alloc{CBM: fullMask, MBALevel: membw.MaxLevel})
		if err != nil {
			return err
		}
		ipsLLC, err := m.probe(a.name, machine.Alloc{CBM: probeMask, MBALevel: membw.MaxLevel})
		if err != nil {
			return err
		}
		ipsMBA, err := m.probe(a.name, machine.Alloc{CBM: fullMask, MBALevel: m.params.ProfileMBA})
		if err != nil {
			return err
		}
		if err := m.setAllocation(a.name, restore); err != nil {
			return err
		}
		if ipsFull <= 0 {
			return fmt.Errorf("core: %s executed no instructions during profiling", a.name)
		}
		llcSeed := m.seedState(1 - ipsLLC/ipsFull)
		mbaSeed := m.seedState(1 - ipsMBA/ipsFull)
		// Enabled-guarded so an unobserved profile pass never boxes the
		// variadic args (the fleet re-profiles thousands of pooled nodes).
		if m.Events.Enabled() {
			m.logf(eventlog.KindProfile, a.name,
				"ipsFull=%.3g llcDeg=%.1f%%→%v mbaDeg=%.1f%%→%v",
				ipsFull, (1-ipsLLC/ipsFull)*100, llcSeed, (1-ipsMBA/ipsFull)*100, mbaSeed)
		}
		if m.FreezeLLC {
			llcSeed = Maintain
		}
		if m.FreezeMBA {
			mbaSeed = Maintain
		}
		m.seedApp(a, ipsFull, llcSeed, mbaSeed)
	}
	m.enterExplore("profiling done")
	return nil
}

// startProfile opens a profiling pass, live or from memo pm (nil for
// live): it checks the target's applications against the envelope,
// resets the managed set, and applies the equal-split state with the
// change history forgotten.
func (m *Manager) startProfile(pm *ProfileMemo) error {
	names := m.targetApps()
	if len(names) == 0 {
		return fmt.Errorf("core: no applications to profile")
	}
	if pm != nil && len(names) != len(pm.ipsFull) {
		return fmt.Errorf("core: profile memo covers %d apps, target has %d", len(pm.ipsFull), len(names))
	}
	if err := m.env.Validate(m.target.Config(), len(names)); err != nil {
		return err
	}
	m.resetApps(names)
	if err := m.equalStateInto(&m.eq); err != nil {
		return err
	}
	// Forget change history across re-profiling: truncating to zero length
	// makes applyState record no change kinds (lengths differ), exactly
	// like the zero AllocState, without dropping the scratch capacity.
	m.state.Ways, m.state.MBA = m.state.Ways[:0], m.state.MBA[:0]
	return m.applyState(m.eq)
}

// seedApp records a profiled application's full-resource IPS and seeds
// its classifiers, reusing them in place when they exist (Reinit is
// exhaustive, so a reused classifier is bit-identical to a new one).
func (m *Manager) seedApp(a *appRT, ipsFull float64, llcSeed, mbaSeed State) {
	a.ipsFull = ipsFull
	if a.llc == nil {
		a.llc = NewLLCClassifier(m.params, llcSeed, llcSeed == Demand)
	} else {
		a.llc.Reinit(m.params, llcSeed, llcSeed == Demand)
	}
	a.llc.UseFeatures(m.Features)
	if a.mba == nil {
		a.mba = NewMBAClassifier(m.params, mbaSeed, mbaSeed == Demand)
	} else {
		a.mba.Reinit(m.params, mbaSeed, mbaSeed == Demand)
	}
	a.mba.UseFeatures(m.Features)
	a.havePerf = false
}

// enterExplore closes a profiling pass: exploration starts afresh from
// the equal split, and the phase event says how profiling ended.
func (m *Manager) enterExplore(how string) {
	m.phase = PhaseExplore
	m.retry = 0
	m.envChanged = false
	m.haveBest = false
	if m.Events.Enabled() {
		m.logf(eventlog.KindPhase, "", "%s, exploring %d apps in envelope [%d,%d)",
			how, len(m.apps), m.env.LoWay, m.env.LoWay+m.env.Ways)
	}
}

// probe sets one application's allocation, lets a period pass, and
// returns the application's IPS over it.
func (m *Manager) probe(name string, alloc machine.Alloc) (float64, error) {
	if err := m.setAllocation(name, alloc); err != nil {
		return 0, err
	}
	rates, err := m.measurePeriod()
	if err != nil {
		return 0, err
	}
	for i, a := range m.apps {
		if a.name == name {
			return rates[i].IPS, nil
		}
	}
	return 0, fmt.Errorf("core: app %s vanished during profiling", name)
}

// seedState converts a profiled degradation into an initial FSM state.
func (m *Manager) seedState(degradation float64) State {
	switch {
	case degradation > m.params.ProfileDemandThreshold:
		return Demand
	case degradation < m.params.ProfileSupplyThreshold:
		return Supply
	default:
		return Maintain
	}
}

// windowMask returns the CBM covering the whole envelope.
func windowMask(env Envelope) (uint64, error) {
	if env.Ways < 1 || env.Ways > 63 {
		return 0, fmt.Errorf("core: invalid envelope width %d", env.Ways)
	}
	return (uint64(1)<<env.Ways - 1) << uint(env.LoWay), nil
}

// ExploreStep executes one iteration of Algorithm 1's loop: let a period
// pass under the current state, update the FSMs, and move to the next
// system state. It returns done=true when the manager decides no further
// fairness improvement is expected and transitions to the idle phase.
func (m *Manager) ExploreStep() (bool, error) {
	if m.phase != PhaseExplore {
		return false, fmt.Errorf("core: ExploreStep called in %v phase", m.phase)
	}
	// Consolidation changes can happen mid-exploration too, not only in
	// the idle phase; restarting from profiling keeps every downstream
	// assumption (ipsFull, classifier seeds) coherent.
	if m.membershipChanged() {
		m.phase = PhaseProfile
		return false, nil
	}
	rates, err := m.measurePeriod()
	if err != nil {
		return false, err
	}
	infos, slowdowns := m.growPeriodScratch()
	for i, a := range m.apps {
		var err error
		slowdowns[i], err = fairness.Slowdown(a.ipsFull, rates[i].IPS)
		if err != nil {
			return false, fmt.Errorf("core: %s: %w", a.name, err)
		}
		// The division by the default weight 1 is bit-exact in IEEE 754,
		// so unweighted runs keep their historical trajectories.
		slowdowns[i] /= a.weight
		infos[i] = AppInfo{LLCState: a.llc.State(), MBAState: a.mba.State(), Slowdown: slowdowns[i]}
	}
	for i, a := range m.apps {
		perfDelta := 0.0
		if a.havePerf && a.lastIPS > 0 {
			perfDelta = (rates[i].IPS - a.lastIPS) / a.lastIPS
		}
		a.lastIPS = rates[i].IPS
		a.havePerf = true

		ref := m.streamRefAt[m.state.MBA[i]/membw.Granularity]
		obs := Observation{
			AccessRate:   rates[i].AccessRate,
			MissRatio:    rates[i].MissRatio,
			TrafficRatio: rates[i].MissRate / ref,
			IPS:          rates[i].IPS,
			PerfDelta:    perfDelta,
			Ways:         m.state.Ways[i],
			MBALevel:     m.state.MBA[i],
		}
		obs.LastChange = a.wayChange
		if !m.FreezeLLC {
			prev := a.llc.State()
			infos[i].LLCState = a.llc.Update(obs)
			if m.Events.Enabled() && infos[i].LLCState != prev {
				m.logf(eventlog.KindClassify, a.name, "llc %v→%v (missRatio=%.3f Δperf=%+.1f%%)",
					prev, infos[i].LLCState, obs.MissRatio, obs.PerfDelta*100)
			}
		}
		if !m.FreezeMBA {
			mbaObs := obs
			mbaObs.LastChange = a.mbaChange
			if a.mbaChange == NoChange && a.wayChange == GainedWay {
				// §5.3: a marginal improvement after an LLC-way grant must
				// not demote the bandwidth Demand state.
				mbaObs.LastChange = GainedWay
			}
			prev := a.mba.State()
			infos[i].MBAState = a.mba.Update(mbaObs)
			if m.Events.Enabled() && infos[i].MBAState != prev {
				m.logf(eventlog.KindClassify, a.name, "mba %v→%v (traffic=%.3f Δperf=%+.1f%%)",
					prev, infos[i].MBAState, obs.TrafficRatio, obs.PerfDelta*100)
			}
		}
	}

	unf, err := fairness.Unfairness(slowdowns)
	if err != nil {
		return false, err
	}
	if !m.haveBest || unf < m.bestUnfair {
		m.bestState.CopyFrom(m.state)
		m.bestUnfair = unf
		m.haveBest = true
	}
	m.lastUnfairness = unf
	m.report(PhaseExplore, slowdowns, unf)

	start := m.clock()
	err = getNextSystemStateInto(&m.nextState, m.state, infos, m.env.Ways, m.rng, &m.matchSc, true)
	m.ExploreTimes = append(m.ExploreTimes, m.clock().Sub(start))
	if err != nil {
		return false, err
	}
	if m.nextState.Equal(m.state) {
		if m.retry < m.params.Theta {
			if err := neighborStateIntoTrusted(&m.nextState, m.state, m.env.Ways, m.rng, !m.FreezeLLC, !m.FreezeMBA, true); err != nil {
				return false, err
			}
			m.retry++
		} else {
			return true, m.enterIdle()
		}
	} else {
		m.retry = 0
	}
	return false, m.applyState(m.nextState)
}

// growPeriodScratch sizes the per-period classifier and slowdown buffers
// to the current application count.
//
//copart:noalloc
func (m *Manager) growPeriodScratch() ([]AppInfo, []float64) {
	n := len(m.apps)
	if cap(m.infos) < n {
		m.infos = make([]AppInfo, n)
	}
	if cap(m.slowdowns) < n {
		m.slowdowns = make([]float64, n)
	}
	m.infos, m.slowdowns = m.infos[:n], m.slowdowns[:n]
	return m.infos, m.slowdowns
}

// report delivers a PeriodReport to the observer, if any. The report's
// slices are built only when an observer is attached, and only when
// their values changed: observers retain reports (the runtime figures
// are drawn from them), so a delivered slice is never written again, and
// a period that repeats the last one's slowdowns or state — the idle
// phase's steady case — shares the slices already delivered. Fresh
// slices are allocated at exactly their length, so an observer's append
// copies instead of writing into a neighbour report's backing array.
func (m *Manager) report(phase Phase, slowdowns []float64, unfairness float64) {
	if m.OnPeriod == nil {
		return
	}
	m.namesExposed = true // the observer may retain rep.Apps; see resetApps
	if !sameBits(m.repSlowdowns, slowdowns) {
		m.repSlowdowns = make([]float64, len(slowdowns))
		copy(m.repSlowdowns, slowdowns)
	}
	if !m.repState.Equal(m.state) {
		m.repState = m.state.Clone()
	}
	rep := PeriodReport{
		Time:       m.target.Now(),
		Phase:      phase,
		Apps:       m.names,
		Slowdowns:  m.repSlowdowns,
		Unfairness: unfairness,
		State:      m.repState,
	}
	m.OnPeriod(rep)
}

// logf appends telemetry when an event log is attached.
func (m *Manager) logf(kind eventlog.Kind, app, format string, args ...interface{}) {
	if m.Events != nil {
		m.Events.Appendf(m.target.Now(), kind, app, format, args...)
	}
}

// enterIdle parks the system on the best state observed during
// exploration and switches phase. Idle baselines are re-established on
// the first idle period (the parked state changes every IPS).
func (m *Manager) enterIdle() error {
	if m.Features.ParkOnBest && m.haveBest && !m.bestState.Equal(m.state) {
		if err := m.applyState(m.bestState); err != nil {
			return err
		}
	}
	for _, a := range m.apps {
		a.idleIPS = 0
	}
	m.phase = PhaseIdle
	if m.Events.Enabled() {
		m.logf(eventlog.KindPhase, "", "idle (best unfairness=%.4f)", m.bestUnfair)
	}
	return nil
}

// IdleStep monitors one period in the idle phase (§5.4.3). It returns
// changed=true — and switches back to the profiling phase — when it
// detects a workload change: an application arriving or departing, the
// envelope changing, or an application's IPS drifting beyond the change
// threshold.
func (m *Manager) IdleStep() (bool, error) {
	if m.phase != PhaseIdle {
		return false, fmt.Errorf("core: IdleStep called in %v phase", m.phase)
	}
	if m.membershipChanged() || m.envChanged {
		if m.envChanged {
			m.logf(eventlog.KindChange, "", "envelope changed to [%d,%d), re-adapting",
				m.env.LoWay, m.env.LoWay+m.env.Ways)
		} else {
			m.logf(eventlog.KindChange, "", "consolidation changed (%d→%d apps), re-adapting",
				len(m.apps), len(m.targetNames))
		}
		m.phase = PhaseProfile
		return true, nil
	}
	rates, err := m.measurePeriod()
	if err != nil {
		return false, err
	}
	_, slowdowns := m.growPeriodScratch()
	changed := false
	for i, a := range m.apps {
		slowdowns[i], err = fairness.Slowdown(a.ipsFull, rates[i].IPS)
		if err != nil {
			return false, fmt.Errorf("core: %s: %w", a.name, err)
		}
		slowdowns[i] /= a.weight
		if a.idleIPS > 0 {
			drift := (rates[i].IPS - a.idleIPS) / a.idleIPS
			if drift > m.params.IdleChangeThreshold || drift < -m.params.IdleChangeThreshold {
				changed = true
			}
		} else {
			a.idleIPS = rates[i].IPS // first idle period sets the baseline
		}
	}
	unf, err := fairness.Unfairness(slowdowns)
	if err != nil {
		return false, err
	}
	m.lastUnfairness = unf
	m.report(PhaseIdle, slowdowns, unf)
	if changed {
		m.logf(eventlog.KindChange, "", "IPS drift beyond %.0f%%, re-adapting",
			m.params.IdleChangeThreshold*100)
		m.phase = PhaseProfile
		return true, nil
	}
	return false, nil
}

// stationaryTarget is the target SkipIdle can fast-forward: one whose
// every period adds the same counter increments while nothing is
// reprogrammed (Stationary). The bare *machine.Machine answers it;
// faultinject.Target and other wrappers do not, so a wrapped target is
// always measured period by period.
type stationaryTarget interface {
	Stationary() bool
}

// SkipIdle advances n idle periods without measuring them when no
// measurement could have found a change, and reports how many it
// advanced: n, or 0 when it refuses. Each skipped period is one target
// Step and nothing else: no counter sweep, no drift check, no Equation 2.
// Refusal leaves everything untouched; the caller goes on with IdleStep.
// A Step error ends the loop and is returned with the periods stepped
// before it. The skipped periods produce no PeriodReport, leave
// LastUnfairness at the last measured period's value and take no
// wall-clock telemetry; the next IdleStep measures the period after them
// exactly as if they had run (its opening sweep re-anchors the sampler at
// the same counter values their closing sweeps would have).
//
// It refuses unless the manager is idle with every application's idle
// baseline set; resilience, OnPeriod and the event log are off; neither
// the consolidation nor the envelope changed; the target is a stationary
// one (see stationaryTarget) and says it is stationary now; and no
// skipped drift check could reach IdleChangeThreshold through rounding.
// On a stationary target each period adds the same instruction increment
// x to a counter C, and the windowed delta fl(C+x)−C is within
// ulp(C+x)/2 ≤ 2⁻⁵³·(C+x) of x, so every skipped period's IPS — and the
// baseline's — is within 2⁻⁵²·(C_end+x)/x of x/s in relative terms. The
// bound is checked with C_end = C_now + n·x and x estimated from the
// baseline, at twice that margin for the remaining roundings. Like the
// idle phase itself, it relies on the manager being the only writer of
// allocations.
//
//copart:noalloc
func (m *Manager) SkipIdle(n int) (int, error) {
	st, ok := m.target.(stationaryTarget)
	if n < 1 || !ok || m.phase != PhaseIdle || m.Resilience.Enabled || m.OnPeriod != nil || m.Events != nil ||
		m.envChanged || !st.Stationary() || m.membershipChanged() {
		return 0, nil
	}
	secs := m.params.Period.Seconds()
	for _, a := range m.apps {
		x := a.idleIPS * secs
		if !(x > 0) {
			return 0, nil
		}
		c, err := m.target.ReadCounters(a.name)
		if err != nil {
			return 0, nil
		}
		if !((c.Instructions+float64(n+1)*x)*0x1p-50 < m.params.IdleChangeThreshold*x) {
			return 0, nil
		}
	}
	for k := 0; k < n; k++ {
		if err := m.target.Step(m.params.Period); err != nil {
			return k, err
		}
	}
	return n, nil
}

//copart:noalloc
func sameNames(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sameBits reports whether two float slices are equal bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Stop asks Run to return after the current control period. It is safe
// to call from another goroutine (e.g. a signal handler).
func (m *Manager) Stop() { m.stop.Store(true) }

// stepPhase executes one control period in the current phase.
func (m *Manager) stepPhase() error {
	switch m.phase {
	case PhaseProfile:
		return m.Profile()
	case PhaseExplore:
		_, err := m.ExploreStep()
		return err
	case PhaseIdle:
		_, err := m.IdleStep()
		return err
	case PhaseDegraded:
		return m.degradedStep()
	default:
		return fmt.Errorf("core: unknown phase %v", m.phase)
	}
}

// Run drives the manager for a span of target time, cycling through the
// profiling, exploration, and idle phases including re-adaptation on
// detected changes.
//
// Without resilience the first failed period aborts Run with its error.
// With Resilience.Enabled a watchdog counts consecutive failed periods:
// after DegradeAfter of them (θ by default) the manager falls back to
// the degraded EQ allocation, and once counter reads stay healthy it
// re-enters profiling. Run then only returns an error when the target
// clock is wedged — every failed period otherwise just advances time and
// is retried.
func (m *Manager) Run(d time.Duration) error {
	if err := m.Resilience.Validate(); err != nil {
		return err
	}
	// The stop flag is cleared on exit, not entry: a Stop that lands just
	// before Run starts must still take effect.
	defer m.stop.Store(false)
	m.failStreak = 0
	deadline := m.target.Now() + d
	stalls := 0
	for m.target.Now() < deadline && !m.stop.Load() {
		if m.BetweenPeriods != nil {
			m.BetweenPeriods()
		}
		before := m.target.Now()
		err := m.stepPhase()
		m.NotePeriod(err)
		if err == nil {
			stalls = 0
			continue
		}
		if !m.Resilience.Enabled {
			return err
		}
		if m.target.Now() > before {
			stalls = 0
			continue
		}
		// The failed period consumed no target time. Burn one period so the
		// loop cannot spin on an instantly-failing operation, and give up
		// when even that cannot advance the clock.
		if serr := m.target.Step(m.params.Period); serr != nil || m.target.Now() == before {
			stalls++
			if stalls >= m.Resilience.MaxClockStalls {
				return fmt.Errorf("core: target clock stalled across %d failed periods: %w", stalls, err)
			}
		} else {
			stalls = 0
		}
	}
	return nil
}
