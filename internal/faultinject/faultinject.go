// Package faultinject injects faults into the controller's substrate so
// the control loop's resilience can be tested and soaked without real
// flaky hardware.
//
// On a production host every control period does perf-counter reads and
// resctrl schemata writes, and either can fail transiently: perf fds die
// with their process, schemata writes hit EBUSY, counters wrap around or
// freeze, the control process oversleeps its period, and applications
// arrive and depart mid-phase. A Scenario describes such a fault schedule
// declaratively — probabilistic error rates, deterministic burst windows,
// counter wraparound and stuck-counter windows, period overruns, and
// workload churn — and Target replays its faults, deterministically for a
// given seed, around any core.Target. Churn is not a fault of the
// substrate: Target leaves Scenario.Churn to the caller, which replays it
// as admission operations (copartd through its control plane).
package faultinject

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// ErrInjected is the sentinel wrapped by every injected fault, so tests
// and callers can distinguish injected faults from real ones.
var ErrInjected = errors.New("injected fault")

// maxOverrunFactor caps OverrunFactor so an overrunning step stays far
// inside time.Duration's range: a 1 000-fold overrun of an hour-long
// period is still a valid duration.
const maxOverrunFactor = 1000

// Window is a half-open interval of target time [From, To).
type Window struct {
	From time.Duration
	To   time.Duration
}

// Contains reports whether t lies inside the window.
func (w Window) Contains(t time.Duration) bool { return t >= w.From && t < w.To }

func (w Window) validate(what string) error {
	if w.From < 0 || w.To <= w.From {
		return fmt.Errorf("faultinject: invalid %s window [%v,%v)", what, w.From, w.To)
	}
	return nil
}

// ChurnEvent schedules an application arrival or departure at a point of
// target time. A departure names the application to remove (empty means
// the first currently-consolidated one); an arrival names the benchmark
// to launch, which the caller resolves.
type ChurnEvent struct {
	At     time.Duration
	Arrive bool
	Name   string
}

// Scenario is a declarative fault schedule. The zero value injects
// nothing.
type Scenario struct {
	// Seed drives the probabilistic injections. The same seed and call
	// sequence reproduce the same faults.
	Seed int64

	// ReadErrProb is the per-read probability of a counter-read error.
	ReadErrProb float64
	// WriteErrProb is the per-write probability that a schemata write
	// fails with an EBUSY-like error.
	WriteErrProb float64
	// OverrunProb is the per-step probability that the control period
	// overruns: the step takes OverrunFactor times the requested time.
	OverrunProb float64
	// OverrunFactor stretches an overrunning step (must lie in
	// (1, 1000] when OverrunProb > 0).
	OverrunFactor float64
	// ProbUntil stops all probabilistic injections after this target
	// time; zero means they never stop. Deterministic windows and events
	// are unaffected. A finite horizon gives soak tests a clean
	// "faults cleared" boundary to measure recovery against.
	ProbUntil time.Duration

	// ReadBursts are windows during which every counter read fails.
	ReadBursts []Window
	// WriteBursts are windows during which every schemata write fails.
	WriteBursts []Window
	// WrapAt lists target times at which every application's counters
	// wrap around: cumulative values restart near zero, as a 32-bit PMC
	// overflow or a reopened perf fd produces.
	WrapAt []time.Duration
	// StuckWindows are windows during which counters freeze at their
	// last value (reads succeed but deltas are zero).
	StuckWindows []Window
	// Churn schedules application arrivals and departures. Target does
	// not replay it; the caller does, between control periods.
	Churn []ChurnEvent
}

// Empty reports whether the scenario injects nothing.
func (s Scenario) Empty() bool {
	return s.ReadErrProb == 0 && s.WriteErrProb == 0 && s.OverrunProb == 0 &&
		len(s.ReadBursts) == 0 && len(s.WriteBursts) == 0 &&
		len(s.WrapAt) == 0 && len(s.StuckWindows) == 0 && len(s.Churn) == 0
}

// Validate checks the scenario for internal consistency.
func (s Scenario) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"readerr", s.ReadErrProb}, {"writeerr", s.WriteErrProb}, {"overrun", s.OverrunProb}} {
		if !(p.v >= 0 && p.v <= 1) { // NaN fails both comparisons
			return fmt.Errorf("faultinject: %s probability %v outside [0,1]", p.name, p.v)
		}
	}
	if s.OverrunProb > 0 && !(s.OverrunFactor > 1 && s.OverrunFactor <= maxOverrunFactor) {
		return fmt.Errorf("faultinject: overrun factor %v must lie in (1,%d]", s.OverrunFactor, maxOverrunFactor)
	}
	if s.ProbUntil < 0 {
		return fmt.Errorf("faultinject: negative probabilistic horizon %v", s.ProbUntil)
	}
	for _, w := range s.ReadBursts {
		if err := w.validate("read burst"); err != nil {
			return err
		}
	}
	for _, w := range s.WriteBursts {
		if err := w.validate("write burst"); err != nil {
			return err
		}
	}
	for _, w := range s.StuckWindows {
		if err := w.validate("stuck counter"); err != nil {
			return err
		}
	}
	for _, at := range s.WrapAt {
		if at < 0 {
			return fmt.Errorf("faultinject: negative wrap time %v", at)
		}
	}
	for _, c := range s.Churn {
		if c.At < 0 {
			return fmt.Errorf("faultinject: negative churn time %v", c.At)
		}
	}
	return nil
}

// Standard returns the standard chaos schedule used by the chaos
// experiment and the CI soak: background 5 % read/write error rates and
// 5 % period overruns until t=160s, a total counter-read outage at
// 60–70s, a schemata-write outage at 90–95s, a counter wraparound at
// 120s, and stuck counters at 140–145s. After 160s the system is
// fault-free, which is the boundary recovery time is measured from.
func Standard() Scenario {
	return Scenario{
		Seed:          1,
		ReadErrProb:   0.05,
		WriteErrProb:  0.05,
		OverrunProb:   0.05,
		OverrunFactor: 3,
		ProbUntil:     160 * time.Second,
		ReadBursts:    []Window{{From: 60 * time.Second, To: 70 * time.Second}},
		WriteBursts:   []Window{{From: 90 * time.Second, To: 95 * time.Second}},
		WrapAt:        []time.Duration{120 * time.Second},
		StuckWindows:  []Window{{From: 140 * time.Second, To: 145 * time.Second}},
	}
}

// Parse builds a scenario from a compact textual spec: whitespace- or
// comma-separated tokens, each one of
//
//	standard                merge the Standard() schedule
//	seed=N                  probabilistic seed
//	readerr=P writeerr=P    per-op error probabilities in [0,1]
//	overrun=PxF             period overruns: probability P, factor F
//	until=D                 stop probabilistic faults after duration D
//	readburst=F-T           all counter reads fail in [F,T)
//	writeburst=F-T          all schemata writes fail in [F,T)
//	wrap=T                  counters wrap around at T
//	stuck=F-T               counters freeze in [F,T)
//	depart=NAME@T           application NAME departs at T ("" = first)
//	arrive=NAME@T           benchmark NAME arrives at T (the caller
//	                        resolves NAME)
//
// Durations use Go syntax ("90s", "2m30s"). "none" or the empty string
// yield the zero scenario.
//
// A spec with several invalid tokens reports them all in one error
// (joined with errors.Join), so a long -faults flag can be fixed in
// one pass instead of one failure at a time.
func Parse(spec string) (Scenario, error) {
	var sc Scenario
	var errs []error
	fields := strings.FieldsFunc(spec, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' || r == '\n' })
	for _, tok := range fields {
		switch tok {
		case "", "none":
			continue
		case "standard":
			// "standard" is a base schedule: put it first and override or
			// extend with further tokens. Churn parsed before it survives.
			churn := sc.Churn
			sc = Standard()
			sc.Churn = append(sc.Churn, churn...)
			continue
		}
		key, val, found := strings.Cut(tok, "=")
		if !found {
			errs = append(errs, fmt.Errorf("token %q is not key=value", tok))
			continue
		}
		var err error
		switch key {
		case "seed":
			sc.Seed, err = strconv.ParseInt(val, 10, 64)
		case "readerr":
			sc.ReadErrProb, err = strconv.ParseFloat(val, 64)
		case "writeerr":
			sc.WriteErrProb, err = strconv.ParseFloat(val, 64)
		case "overrun":
			p, f, ok := strings.Cut(val, "x")
			if !ok {
				err = fmt.Errorf("overrun %q wants PROBxFACTOR", val)
				break
			}
			if sc.OverrunProb, err = strconv.ParseFloat(p, 64); err == nil {
				sc.OverrunFactor, err = strconv.ParseFloat(f, 64)
			}
		case "until":
			sc.ProbUntil, err = time.ParseDuration(val)
		case "readburst", "writeburst", "stuck":
			var w Window
			if w, err = parseWindow(val); err == nil {
				switch key {
				case "readburst":
					sc.ReadBursts = append(sc.ReadBursts, w)
				case "writeburst":
					sc.WriteBursts = append(sc.WriteBursts, w)
				default:
					sc.StuckWindows = append(sc.StuckWindows, w)
				}
			}
		case "wrap":
			var at time.Duration
			if at, err = time.ParseDuration(val); err == nil {
				sc.WrapAt = append(sc.WrapAt, at)
			}
		case "depart", "arrive":
			name, atStr, ok := strings.Cut(val, "@")
			if !ok {
				err = fmt.Errorf("%s %q wants NAME@TIME", key, val)
				break
			}
			var at time.Duration
			if at, err = time.ParseDuration(atStr); err == nil {
				sc.Churn = append(sc.Churn, ChurnEvent{At: at, Arrive: key == "arrive", Name: name})
			}
		default:
			err = fmt.Errorf("unknown key %q (valid: standard, none, seed, readerr, writeerr, overrun, until, readburst, writeburst, wrap, stuck, depart, arrive)", key)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("token %q: %v", tok, err))
		}
	}
	switch len(errs) {
	case 0:
	case 1:
		return Scenario{}, fmt.Errorf("faultinject: %w", errs[0])
	default:
		return Scenario{}, fmt.Errorf("faultinject: %d invalid tokens:\n%w", len(errs), errors.Join(errs...))
	}
	// Churn is replayed in time order regardless of spec order.
	sortChurn(sc.Churn)
	return sc, nil
}

func parseWindow(val string) (Window, error) {
	from, to, ok := strings.Cut(val, "-")
	if !ok {
		return Window{}, fmt.Errorf("window %q wants FROM-TO", val)
	}
	f, err := time.ParseDuration(from)
	if err != nil {
		return Window{}, err
	}
	t, err := time.ParseDuration(to)
	if err != nil {
		return Window{}, err
	}
	return Window{From: f, To: t}, nil
}

func sortChurn(churn []ChurnEvent) {
	for i := 1; i < len(churn); i++ {
		for j := i; j > 0 && churn[j].At < churn[j-1].At; j-- {
			churn[j], churn[j-1] = churn[j-1], churn[j]
		}
	}
}
