package faultinject

import (
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
)

// FuzzParse feeds the -faults grammar arbitrary specs. The committed
// corpus (testdata/fuzz/FuzzParse) seeds it with the standard schedule,
// a spec of several bad tokens, the non-finite and oversized numbers
// ParseFloat accepts, an inverted window, and out-of-order churn.
// Properties: Parse never panics; every error, from Parse or Validate,
// names the package; accepted churn is in time order; and a wrapper
// built from any spec Validate accepts never shortens a positive step.
func FuzzParse(f *testing.F) {
	steps := []time.Duration{time.Nanosecond, time.Second, time.Hour}
	f.Fuzz(func(t *testing.T, spec string) {
		sc, err := Parse(spec)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "faultinject:") {
				t.Fatalf("Parse(%q) error does not name the package: %v", spec, err)
			}
			return
		}
		for i := 1; i < len(sc.Churn); i++ {
			if sc.Churn[i].At < sc.Churn[i-1].At {
				t.Fatalf("Parse(%q) churn out of order: %+v", spec, sc.Churn)
			}
		}
		if err := sc.Validate(); err != nil {
			if !strings.HasPrefix(err.Error(), "faultinject:") {
				t.Fatalf("Validate(%q) error does not name the package: %v", spec, err)
			}
			return
		}
		clock := &clockTarget{}
		tgt, err := WrapTarget(clock, sc, nil)
		if err != nil {
			t.Fatalf("WrapTarget rejected a validated scenario %q: %v", spec, err)
		}
		for i := 0; i < 64; i++ {
			tgt.ReadCounters("a")
			tgt.SetAllocation("a", machine.Alloc{})
			dt := steps[i%len(steps)]
			if err := tgt.Step(dt); err != nil {
				t.Fatal(err)
			}
			if clock.last < dt {
				t.Fatalf("spec %q: step %v became %v", spec, dt, clock.last)
			}
		}
	})
}

// clockTarget is a core.Target that only keeps time: it records the
// step it was last asked for.
type clockTarget struct {
	now, last time.Duration
}

func (c *clockTarget) Apps() []string { return []string{"a"} }
func (c *clockTarget) ReadCounters(string) (machine.Counters, error) {
	return machine.Counters{Instructions: c.now.Seconds()}, nil
}
func (c *clockTarget) SetAllocation(string, machine.Alloc) error { return nil }
func (c *clockTarget) Config() machine.Config                    { return machine.DefaultConfig() }
func (c *clockTarget) Now() time.Duration                        { return c.now }
func (c *clockTarget) Step(dt time.Duration) error {
	c.now, c.last = c.now+dt, dt
	return nil
}
