package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/eventlog"
	"repro/internal/machine"
	"repro/internal/pmc"
	"repro/internal/workloads"
)

// readErrTarget fails the next fails[app] counter reads of each app.
type readErrTarget struct {
	*machine.Machine
	fails map[string]int
}

func (r *readErrTarget) ReadCounters(name string) (machine.Counters, error) {
	if r.fails[name] > 0 {
		r.fails[name]--
		return machine.Counters{}, errors.New("injected read error")
	}
	return r.Machine.ReadCounters(name)
}

// retriedLoop is the hardened sweep's specification: the per-app loop of
// retried Sample calls that Manager.sampleAll replaced, with the same
// stopping rule.
func retriedLoop(m *Manager, at time.Duration, out []pmc.Rates) (int, error) {
	for i, name := range m.names {
		var (
			r  pmc.Rates
			ok bool
		)
		read := func() (err error) {
			r, ok, err = m.sampler.Sample(name, at)
			return err
		}
		err := read()
		if err != nil {
			err = m.retryAfter(err, "counter read", name, read)
		}
		if err != nil {
			return i, err
		}
		if out != nil {
			if !ok {
				return i, nil
			}
			out[i] = r
		}
	}
	return -1, nil
}

// sweepRun is what one anchoring-then-measuring pair of sweeps leaves
// behind.
type sweepRun struct {
	stop          int
	err           error
	rates         []pmc.Rates
	before, after pmc.SamplerSnapshot // sampler windows around the faulted sweep
	events        []eventlog.Event
	now           time.Duration
}

// TestHardenedSweepRetriesFromFailedRead holds the hardened sampling
// sweep — one SampleAll, a failed read at index i retried alone against
// that app's own budget, the sweep resumed after it — to the per-app loop
// of retried reads it replaced. Read errors are injected at every index,
// 0 to MaxRetries+1 times in a row, into the anchoring sweep and into the
// measuring sweep, with and without a retry backoff, and into a measuring
// sweep at the anchoring instant, where no app has a window. Against the loop,
// bit for bit: the stop index, the error, the rates, every sampler
// window, the event log and the target clock. And in absolute terms:
// within the budget a measuring sweep completes with rates
// Float64bits-equal to the fault-free sweep's (backoff off, so time is
// frozen); past it the period fails at that index and every later
// window still holds its pre-sweep anchor.
func TestHardenedSweepRetriesFromFailedRead(t *testing.T) {
	cfg := machine.DefaultConfig()
	models, err := workloads.Mix(cfg, workloads.HBoth, 4)
	if err != nil {
		t.Fatal(err)
	}
	ref := func() map[int]float64 {
		m, err := machine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := workloads.StreamMissRates(m)
		if err != nil {
			t.Fatal(err)
		}
		return ref
	}()
	budget := DefaultResilience().MaxRetries
	run := func(t *testing.T, backoff, dt time.Duration, app, errs int, measuring, spec bool) sweepRun {
		t.Helper()
		m, err := machine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range models {
			if err := m.AddApp(model); err != nil {
				t.Fatal(err)
			}
		}
		target := &readErrTarget{Machine: m}
		mgr, err := NewManager(target, DefaultParams(), ref, Envelope{LoWay: 0, Ways: cfg.LLCWays}, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		mgr.Resilience = DefaultResilience()
		mgr.Resilience.RetryBackoff = backoff
		if mgr.Events, err = eventlog.New(64); err != nil {
			t.Fatal(err)
		}
		sweep := mgr.sampleAll
		if spec {
			sweep = func(at time.Duration, out []pmc.Rates) (int, error) { return retriedLoop(mgr, at, out) }
		}
		arm := func() {
			if app >= 0 {
				target.fails = map[string]int{mgr.names[app]: errs}
			}
		}
		var r sweepRun
		if !measuring {
			arm()
			r.before = mgr.sampler.Snapshot()
		}
		if r.stop, r.err = sweep(m.Now(), nil); r.err == nil {
			if dt > 0 {
				if err := m.Step(dt); err != nil {
					t.Fatal(err)
				}
			}
			if measuring {
				arm()
				r.before = mgr.sampler.Snapshot()
			}
			r.rates = make([]pmc.Rates, len(mgr.names))
			r.stop, r.err = sweep(m.Now(), r.rates)
		}
		r.after, r.events, r.now = mgr.sampler.Snapshot(), mgr.Events.Events(), m.Now()
		return r
	}
	period := DefaultParams().Period
	clean := run(t, 0, period, -1, 0, true, false)
	if clean.stop != -1 || clean.err != nil {
		t.Fatalf("fault-free sweep stopped at %d: %v", clean.stop, clean.err)
	}
	sweeps := []struct {
		dt        time.Duration // time between the anchoring and the measuring sweep
		measuring bool          // faults hit the measuring sweep, not the anchoring one
	}{{period, false}, {period, true}, {0, true}}
	for _, backoff := range []time.Duration{0, DefaultResilience().RetryBackoff} {
		for _, sw := range sweeps {
			for app := range models {
				for errs := 0; errs <= budget+1; errs++ {
					name := fmt.Sprintf("backoff=%v/dt=%v/measuring=%v/app=%d/errs=%d", backoff, sw.dt, sw.measuring, app, errs)
					got, want := run(t, backoff, sw.dt, app, errs, sw.measuring, false), run(t, backoff, sw.dt, app, errs, sw.measuring, true)
					if got.stop != want.stop || fmt.Sprint(got.err) != fmt.Sprint(want.err) {
						t.Fatalf("%s: stopped at %d (%v), the loop at %d (%v)", name, got.stop, got.err, want.stop, want.err)
					}
					if !sameRateBits(got.rates, want.rates) {
						t.Fatalf("%s: rates %+v, the loop's %+v", name, got.rates, want.rates)
					}
					if !reflect.DeepEqual(got.after, want.after) || !reflect.DeepEqual(got.events, want.events) || got.now != want.now {
						t.Fatalf("%s: windows, events or clock differ from the loop's:\n%+v %v at %v\n%+v %v at %v",
							name, got.after, got.events, got.now, want.after, want.events, want.now)
					}
					if sw.dt == 0 && app > 0 {
						// No window: the sweep stops at app 0, before the fault.
						if got.stop != 0 || got.err != nil || len(got.events) != 0 {
							t.Fatalf("%s: stopped at %d (%v) after %d events, want a windowless stop at 0", name, got.stop, got.err, len(got.events))
						}
						continue
					}
					if errs > budget {
						if got.stop != app || got.err == nil {
							t.Fatalf("%s: sweep stopped at %d (%v), want a failure at %d", name, got.stop, got.err, app)
						}
						// Windows are sorted by name; compare every app after the failed one.
						for _, w := range got.after.Apps {
							for _, later := range models[app+1:] {
								if w.App == later.Name && !containsWindow(got.before, w) {
									t.Fatalf("%s: window of %s moved past the failed read: %+v", name, w.App, w)
								}
							}
						}
						continue
					}
					wantEvents := 0 // errs "retrying" events, then one "recovered"
					if errs > 0 {
						wantEvents = errs + 1
					}
					if len(got.events) != wantEvents {
						t.Fatalf("%s: %d events, want %d retry events: %v", name, len(got.events), wantEvents, got.events)
					}
					for _, e := range got.events {
						if e.Kind != eventlog.KindRetry || e.App != models[app].Name {
							t.Fatalf("%s: event %+v, want a retry of %s", name, e, models[app].Name)
						}
					}
					if sw.measuring && backoff == 0 && sw.dt == period && !sameRateBits(got.rates, clean.rates) {
						t.Fatalf("%s: rates %+v, the fault-free sweep's %+v", name, got.rates, clean.rates)
					}
				}
			}
		}
	}
}

func sameRateBits(a, b []pmc.Rates) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].IPS) != math.Float64bits(b[i].IPS) ||
			math.Float64bits(a[i].AccessRate) != math.Float64bits(b[i].AccessRate) ||
			math.Float64bits(a[i].MissRate) != math.Float64bits(b[i].MissRate) ||
			math.Float64bits(a[i].MissRatio) != math.Float64bits(b[i].MissRatio) ||
			a[i].Window != b[i].Window {
			return false
		}
	}
	return true
}

func containsWindow(s pmc.SamplerSnapshot, w pmc.AppWindow) bool {
	for _, v := range s.Apps {
		if v == w {
			return true
		}
	}
	return false
}
