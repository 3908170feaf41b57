package core

import (
	"fmt"
	"time"

	"repro/internal/eventlog"
	"repro/internal/machine"
)

// Resilience configures how the manager survives transient substrate
// failures: counter reads that error, schemata writes that hit EBUSY,
// steps that fail. The zero value disables all of it, which preserves
// the original fail-fast behavior (every error surfaces from Run) and
// keeps controller decisions bit-identical to the unhardened loop.
//
// With resilience enabled, failed target operations are retried with a
// bounded linear backoff, a watchdog counts consecutive failed control
// periods, and after DegradeAfter consecutive failures the manager stops
// optimizing and falls back to the safe EQ allocation — equal LLC ways,
// equal MBA shares — where it stays until counter reads succeed again,
// then re-enters profiling from scratch.
type Resilience struct {
	// Enabled turns the hardened control loop on.
	Enabled bool
	// MaxRetries is how many extra attempts a failed counter read,
	// schemata write, or step gets before the period is declared failed.
	MaxRetries int
	// RetryBackoff is the base backoff between attempts, in target time:
	// attempt k waits k×RetryBackoff. Zero retries immediately.
	RetryBackoff time.Duration
	// DegradeAfter is the number of consecutive failed control periods
	// before the EQ fallback; zero means "use Params.Theta", matching the
	// exploration loop's retry budget θ.
	DegradeAfter int
	// RecoverAfter is the number of consecutive healthy degraded periods
	// (step succeeded, every counter readable) before the manager leaves
	// degraded mode and re-enters profiling.
	RecoverAfter int
	// MaxClockStalls bounds how many consecutive failed periods may pass
	// without the target clock advancing before Run gives up. It guards
	// against a permanently wedged Step, which would otherwise spin the
	// control loop forever.
	MaxClockStalls int
}

// DefaultResilience returns the hardened configuration used by copartd
// and the chaos experiments.
func DefaultResilience() Resilience {
	return Resilience{
		Enabled:        true,
		MaxRetries:     2,
		RetryBackoff:   100 * time.Millisecond,
		DegradeAfter:   0, // θ
		RecoverAfter:   2,
		MaxClockStalls: 1000,
	}
}

// Validate checks the configuration; only enabled configurations are
// constrained.
func (r Resilience) Validate() error {
	if !r.Enabled {
		return nil
	}
	if r.MaxRetries < 0 {
		return fmt.Errorf("core: negative retry budget %d", r.MaxRetries)
	}
	if r.RetryBackoff < 0 {
		return fmt.Errorf("core: negative retry backoff %v", r.RetryBackoff)
	}
	if r.DegradeAfter < 0 {
		return fmt.Errorf("core: negative degrade threshold %d", r.DegradeAfter)
	}
	if r.RecoverAfter < 1 {
		return fmt.Errorf("core: recovery threshold %d < 1", r.RecoverAfter)
	}
	if r.MaxClockStalls < 1 {
		return fmt.Errorf("core: clock-stall budget %d < 1", r.MaxClockStalls)
	}
	return nil
}

// degradeAfter resolves the failed-period threshold, defaulting to θ.
func (m *Manager) degradeAfter() int {
	if m.Resilience.DegradeAfter > 0 {
		return m.Resilience.DegradeAfter
	}
	return m.params.Theta
}

// retryAfter retries op, whose first attempt — made by the caller, so
// the fault-free path is a direct call — failed with err. With
// resilience enabled it makes up to MaxRetries more attempts with a
// linear target-time backoff, logging every retry and the recovery; the
// last error is returned when the budget is exhausted.
func (m *Manager) retryAfter(err error, what, app string, op func() error) error {
	if !m.Resilience.Enabled {
		return err
	}
	for attempt := 1; attempt <= m.Resilience.MaxRetries; attempt++ {
		m.logf(eventlog.KindRetry, app, "%s failed, retrying (%d/%d): %v",
			what, attempt, m.Resilience.MaxRetries, err)
		if m.Resilience.RetryBackoff > 0 {
			if serr := m.target.Step(time.Duration(attempt) * m.Resilience.RetryBackoff); serr != nil {
				m.logf(eventlog.KindFault, app, "backoff step failed: %v", serr)
			}
		}
		if err = op(); err == nil {
			m.logf(eventlog.KindRetry, app, "%s recovered after %d retries", what, attempt)
			return nil
		}
	}
	return err
}

// setAllocation programs one application's allocation, with retries when
// resilience is enabled.
func (m *Manager) setAllocation(name string, a machine.Alloc) error {
	err := m.target.SetAllocation(name, a)
	if err != nil {
		err = m.retryAfter(err, "allocation write", name, func() error { return m.target.SetAllocation(name, a) })
	}
	return err
}

// enterDegraded switches the manager into degraded mode after the
// watchdog tripped.
func (m *Manager) enterDegraded() {
	m.phase = PhaseDegraded
	m.eqApplied = false
	m.recoverStreak = 0
	m.logf(eventlog.KindFallback, "", "degraded mode after %d consecutive failed periods, falling back to EQ",
		m.failStreak)
}

// degradedStep runs one control period in degraded mode: hold (or keep
// trying to apply) the safe EQ allocation, let a period pass, and probe
// whether the substrate has healed — polling the apps after the step,
// which churn can land inside. After RecoverAfter consecutive healthy
// periods the manager re-enters profiling.
func (m *Manager) degradedStep() error {
	if !m.eqApplied {
		names := m.targetApps()
		if err := m.applyDegradedEQ(names); err != nil {
			return fmt.Errorf("core: degraded: EQ fallback: %w", err)
		}
		m.eqApplied = true
		m.logf(eventlog.KindFallback, "", "EQ fallback allocation applied to %d apps", len(names))
	}
	if err := m.target.Step(m.params.Period); err != nil {
		return fmt.Errorf("core: degraded: step: %w", err)
	}
	names := m.targetApps()
	if len(names) == 0 {
		return fmt.Errorf("core: degraded: no applications")
	}
	for _, name := range names {
		if _, err := m.target.ReadCounters(name); err != nil {
			m.recoverStreak = 0
			return fmt.Errorf("core: degraded: probe %s: %w", name, err)
		}
	}
	m.recoverStreak++
	if m.recoverStreak >= m.Resilience.RecoverAfter {
		m.phase = PhaseProfile
		m.logf(eventlog.KindRecover, "", "counters healthy for %d periods, re-entering profiling",
			m.recoverStreak)
	}
	return nil
}

// DegradedStep runs one control period in degraded mode — the public,
// phase-checked form of the step Run takes internally. External drivers
// that own their period loop (the fleet) call it when Phase reports
// PhaseDegraded, exactly as they call ExploreStep and IdleStep for the
// other phases.
func (m *Manager) DegradedStep() error {
	if m.phase != PhaseDegraded {
		return fmt.Errorf("core: DegradedStep called in %v phase", m.phase)
	}
	return m.degradedStep()
}

// NotePeriod is the resilience watchdog: it takes each control period's
// outcome (nil for success). Run calls it after every period; drivers
// that call Profile/ExploreStep/IdleStep/DegradedStep themselves report
// here to get the same degraded-mode entry. A successful period clears
// the failure streak; with resilience enabled, a failed one extends it
// and trips the EQ fallback at the degrade threshold.
func (m *Manager) NotePeriod(err error) {
	if err == nil {
		m.failStreak = 0
		return
	}
	if !m.Resilience.Enabled {
		return
	}
	m.failStreak++
	m.logf(eventlog.KindFault, "", "control period failed (streak %d): %v", m.failStreak, err)
	if m.phase != PhaseDegraded && m.failStreak >= m.degradeAfter() {
		m.enterDegraded()
	}
}

// applyDegradedEQ programs the equal-split allocation over names, the
// target's current application list. It deliberately bypasses the
// manager's runtime state: applications may have arrived or departed
// while periods were failing, and profiling will rebuild all state on
// recovery anyway.
func (m *Manager) applyDegradedEQ(names []string) error {
	if len(names) == 0 {
		return fmt.Errorf("core: no applications to manage")
	}
	if err := m.env.Validate(m.target.Config(), len(names)); err != nil {
		return err
	}
	allocs, err := EqualAllocs(m.env, len(names))
	if err != nil {
		return err
	}
	for i, name := range names {
		if err := m.setAllocation(name, allocs[i]); err != nil {
			return err
		}
	}
	return nil
}
