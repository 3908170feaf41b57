package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// countingMachine counts polls of the machine's application list. It
// leaves what Apps returns alone, so it may embed the machine and promote
// its AppsGeneration (the rule on core.Target).
type countingMachine struct {
	*machine.Machine
	polls int
}

func (c *countingMachine) Apps() []string { c.polls++; return c.Machine.Apps() }

func (c *countingMachine) AppsInto(dst []string) []string {
	c.polls++
	return c.Machine.AppsInto(dst)
}

// ghostTarget changes what Apps returns — it can announce an application
// the machine never launched — and has no AppsGeneration: it embeds the
// core.Target interface, not the machine, so no count is promoted past
// its Apps. It counts the polls.
type ghostTarget struct {
	core.Target
	polls int
	ghost bool
}

func (g *ghostTarget) Apps() []string {
	g.polls++
	apps := g.Target.Apps()
	if g.ghost {
		apps = append(apps, "ghost")
	}
	return apps
}

// idleNode launches three H-Both apps (15 of 16 cores) on a fresh
// machine, wraps it, and runs a manager over the wrapper to idle.
func idleNode(t *testing.T, wrap func(*machine.Machine) core.Target) (*core.Manager, *machine.Machine) {
	t.Helper()
	cfg := machine.DefaultConfig()
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	models, err := workloads.Mix(cfg, workloads.HBoth, 3)
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
	mgr, err := core.NewManager(wrap(m), core.DefaultParams(), ref, core.Envelope{LoWay: 0, Ways: cfg.LLCWays}, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Profile(); err != nil {
		t.Fatal(err)
	}
	for i := 0; mgr.Phase() != core.PhaseIdle; i++ {
		if _, err := mgr.ExploreStep(); err != nil || i > 300 {
			t.Fatalf("exploration did not reach idle: %v (phase %v after %d periods)", err, mgr.Phase(), i)
		}
	}
	return mgr, m
}

// TestWrappedTargetMembership pins the membership rule for wrapped
// targets (core.Target's doc comment). A wrapper that forwards the
// machine's AppsGeneration — the fault injector — is polled only when
// the count moves, and an arrival its churn schedule fires inside a
// period's step is still seen the very next period. A wrapper that
// changes Apps and answers no generation is polled once a period and its
// ghost arrival is caught.
func TestWrappedTargetMembership(t *testing.T) {
	plain := func(m *machine.Machine) core.Target { return m }
	t.Run("forwarding", func(t *testing.T) {
		// A dry run finds when the node goes idle; the churn-scheduling
		// twin follows the same trajectory until its arrival fires.
		_, dry := idleNode(t, plain)
		period := core.DefaultParams().Period
		arriveAt := dry.Now() + 5*period
		others, err := workloads.Mix(machine.DefaultConfig(), workloads.HLLC, 4)
		if err != nil {
			t.Fatal(err)
		}
		arrival := others[0] // WN: not in H-Both
		arrival.Cores = 1
		var (
			counted *countingMachine
			wrapped *faultinject.Target
		)
		mgr, m := idleNode(t, func(m *machine.Machine) core.Target {
			counted = &countingMachine{Machine: m}
			sc := faultinject.Scenario{Churn: []faultinject.ChurnEvent{{At: arriveAt, Arrive: true, Name: arrival.Name, Model: &arrival}}}
			if wrapped, err = faultinject.WrapTarget(counted, sc, nil); err != nil {
				t.Fatal(err)
			}
			return wrapped
		})
		if m.Now() != dry.Now() {
			t.Fatalf("wrapped node idle at %v, the bare one at %v", m.Now(), dry.Now())
		}
		for i := 1; ; i++ {
			arrived := wrapped.Stats().Arrivals > 0
			before := counted.polls
			changed, err := mgr.IdleStep()
			if err != nil {
				t.Fatal(err)
			}
			polls := counted.polls - before
			if arrived {
				if !changed || polls != 1 {
					t.Fatalf("idle period %d, after the arrival: changed=%v with %d polls, want a change on 1 poll", i, changed, polls)
				}
				return
			}
			if changed || polls != 0 {
				t.Fatalf("steady idle period %d: changed=%v with %d polls, want neither", i, changed, polls)
			}
			if m.Now() > arriveAt+5*period {
				t.Fatalf("the arrival scheduled at %v has not fired by %v", arriveAt, m.Now())
			}
		}
	})
	t.Run("non-forwarding", func(t *testing.T) {
		var g *ghostTarget
		mgr, _ := idleNode(t, func(m *machine.Machine) core.Target {
			g = &ghostTarget{Target: m}
			return g
		})
		for period := 1; period <= 50; period++ {
			before := g.polls
			changed, err := mgr.IdleStep()
			if err != nil {
				t.Fatal(err)
			}
			if changed {
				t.Fatalf("idle period %d flagged a change on a steady system", period)
			}
			if got := g.polls - before; got != 1 {
				t.Fatalf("idle period %d: wrapper's application list polled %d times, want 1", period, got)
			}
		}
		g.ghost = true
		if changed, err := mgr.IdleStep(); err != nil || !changed || mgr.Phase() != core.PhaseProfile {
			t.Fatalf("arrival announced by the wrapper: changed=%v phase=%v err=%v, want a change and profiling", changed, mgr.Phase(), err)
		}
	})
}
