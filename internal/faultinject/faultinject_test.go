package faultinject

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/workloads"
)

func newMachine(t *testing.T, apps int) *machine.Machine {
	t.Helper()
	cfg := machine.DefaultConfig()
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	models, err := workloads.Mix(cfg, workloads.HBoth, apps)
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range models {
		if err := m.AddApp(model); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func TestParseRoundTrip(t *testing.T) {
	sc, err := Parse("seed=7 readerr=0.1 writeerr=0.2 overrun=0.05x3 until=90s " +
		"readburst=10s-20s writeburst=30s-35s wrap=40s stuck=50s-55s depart=a@60s arrive=b@70s")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Seed != 7 || sc.ReadErrProb != 0.1 || sc.WriteErrProb != 0.2 {
		t.Errorf("probabilities: %+v", sc)
	}
	if sc.OverrunProb != 0.05 || sc.OverrunFactor != 3 || sc.ProbUntil != 90*time.Second {
		t.Errorf("overrun/until: %+v", sc)
	}
	if len(sc.ReadBursts) != 1 || sc.ReadBursts[0] != (Window{10 * time.Second, 20 * time.Second}) {
		t.Errorf("read bursts: %+v", sc.ReadBursts)
	}
	if len(sc.WrapAt) != 1 || sc.WrapAt[0] != 40*time.Second {
		t.Errorf("wrap: %+v", sc.WrapAt)
	}
	if len(sc.Churn) != 2 || sc.Churn[0].Name != "a" || sc.Churn[0].Arrive ||
		!sc.Churn[1].Arrive || sc.Churn[1].Name != "b" {
		t.Errorf("churn: %+v", sc.Churn)
	}
}

func TestParseStandardAndOverrides(t *testing.T) {
	sc, err := Parse("standard seed=9")
	if err != nil {
		t.Fatal(err)
	}
	std := Standard()
	if sc.Seed != 9 {
		t.Errorf("seed=%d, override lost", sc.Seed)
	}
	if sc.ReadErrProb != std.ReadErrProb || len(sc.ReadBursts) != len(std.ReadBursts) {
		t.Errorf("standard schedule lost: %+v", sc)
	}
	if err := std.Validate(); err != nil {
		t.Errorf("Standard() must validate: %v", err)
	}
	if std.Empty() {
		t.Error("Standard() should not be empty")
	}
	if sc, err := Parse(""); err != nil || !sc.Empty() {
		t.Errorf("empty spec: %+v, %v", sc, err)
	}
	if sc, err := Parse("none"); err != nil || !sc.Empty() {
		t.Errorf("none spec: %+v, %v", sc, err)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"bogus", "bogus=1", "overrun=0.1", "readburst=10s",
		"readburst=xx-20s", "wrap=later", "depart=a",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) should error", spec)
		}
	}
}

// TestParseReportsAllInvalidTokens: a spec with several broken tokens
// reports every one of them in a single error, so a long -faults flag
// is fixable in one pass.
func TestParseReportsAllInvalidTokens(t *testing.T) {
	cases := []struct {
		spec string
		want []string // substrings that must all appear in the error
	}{
		{
			spec: "bogus=1,readerr=nope,wrap=later",
			want: []string{`"bogus=1"`, `"readerr=nope"`, `"wrap=later"`, "3 invalid tokens"},
		},
		{
			spec: "overrun=0.1 depart=a keyonly",
			want: []string{`"overrun=0.1"`, "PROBxFACTOR", `"depart=a"`, "NAME@TIME", `"keyonly"`, "not key=value"},
		},
		{
			// One bad token: no count prefix, but still the token context.
			spec: "readerr=0.1,writeerr=2x",
			want: []string{`"writeerr=2x"`},
		},
		{
			// Unknown keys enumerate the valid vocabulary.
			spec: "frobnicate=1",
			want: []string{`unknown key "frobnicate"`, "standard", "readburst", "arrive"},
		},
	}
	for _, tc := range cases {
		_, err := Parse(tc.spec)
		if err == nil {
			t.Errorf("Parse(%q) should error", tc.spec)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("Parse(%q) error missing %q:\n%v", tc.spec, w, err)
			}
		}
	}
	// Valid tokens next to broken ones must not mask the failure.
	if _, err := Parse("seed=3,bogus,readerr=0.1"); err == nil {
		t.Error("mixed valid/invalid spec should error")
	}
}

func TestValidateRejectsBadScenarios(t *testing.T) {
	bad := []Scenario{
		{ReadErrProb: 1.5},
		{WriteErrProb: -0.1},
		{OverrunProb: 0.5, OverrunFactor: 0.9},
		{ReadErrProb: math.NaN()},
		{OverrunProb: math.NaN(), OverrunFactor: 2},
		{OverrunProb: 0.5, OverrunFactor: math.NaN()},
		{OverrunProb: 0.5, OverrunFactor: math.Inf(1)},
		{OverrunProb: 0.5, OverrunFactor: 1e300},
		{OverrunProb: 0.5, OverrunFactor: maxOverrunFactor + 1},
		{ReadBursts: []Window{{From: 5 * time.Second, To: time.Second}}},
		{WrapAt: []time.Duration{-time.Second}},
		{Churn: []ChurnEvent{{At: -time.Second, Arrive: true, Name: "x"}}},
	}
	for i, sc := range bad {
		if err := sc.Validate(); err == nil {
			t.Errorf("scenario %d should fail validation: %+v", i, sc)
		}
	}
	// ParseFloat accepts these spellings, so the grammar lets them
	// through; Validate is what must refuse them.
	for _, spec := range []string{"readerr=NaN", "writeerr=5", "overrun=1x+Inf", "overrun=1x1e300", "overrun=NaNx2"} {
		sc, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if err := sc.Validate(); err == nil {
			t.Errorf("Parse(%q) validated: %+v", spec, sc)
		}
	}
	if err := (Scenario{OverrunProb: 0.5, OverrunFactor: maxOverrunFactor}).Validate(); err != nil {
		t.Errorf("the largest allowed overrun factor must validate: %v", err)
	}
}

func TestReadBurstFailsEveryRead(t *testing.T) {
	m := newMachine(t, 4)
	tgt, err := WrapTarget(m, Scenario{
		ReadBursts: []Window{{From: 2 * time.Second, To: 4 * time.Second}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	app := m.Apps()[0]
	if _, err := tgt.ReadCounters(app); err != nil {
		t.Fatalf("read before the burst must succeed: %v", err)
	}
	if err := tgt.Step(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := tgt.ReadCounters(app); !errors.Is(err, ErrInjected) {
		t.Fatalf("read inside the burst must fail with ErrInjected, got %v", err)
	}
	if err := tgt.Step(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := tgt.ReadCounters(app); err != nil {
		t.Fatalf("read after the burst must succeed: %v", err)
	}
	if tgt.Stats().ReadErrors != 1 {
		t.Errorf("stats: %+v", tgt.Stats())
	}
}

func TestWraparoundMakesCountersRestart(t *testing.T) {
	m := newMachine(t, 4)
	tgt, err := WrapTarget(m, Scenario{WrapAt: []time.Duration{5 * time.Second}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	app := m.Apps()[0]
	if err := tgt.Step(4 * time.Second); err != nil {
		t.Fatal(err)
	}
	before, err := tgt.ReadCounters(app)
	if err != nil {
		t.Fatal(err)
	}
	if before.Instructions <= 0 {
		t.Fatal("expected progress before the wrap")
	}
	if err := tgt.Step(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	after, err := tgt.ReadCounters(app)
	if err != nil {
		t.Fatal(err)
	}
	if after.Instructions >= before.Instructions {
		t.Errorf("counters did not wrap: before=%v after=%v", before.Instructions, after.Instructions)
	}
	if after.Instructions < 0 {
		t.Errorf("wrapped counters must restart near zero, got %v", after.Instructions)
	}
	// After the wrap the counters increase monotonically again.
	if err := tgt.Step(time.Second); err != nil {
		t.Fatal(err)
	}
	later, err := tgt.ReadCounters(app)
	if err != nil {
		t.Fatal(err)
	}
	if later.Instructions <= after.Instructions {
		t.Errorf("post-wrap counters must advance: %v then %v", after.Instructions, later.Instructions)
	}
}

func TestStuckCountersFreeze(t *testing.T) {
	m := newMachine(t, 4)
	tgt, err := WrapTarget(m, Scenario{
		StuckWindows: []Window{{From: 1 * time.Second, To: 10 * time.Second}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	app := m.Apps()[0]
	if err := tgt.Step(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	first, err := tgt.ReadCounters(app)
	if err != nil {
		t.Fatal(err)
	}
	if err := tgt.Step(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	second, err := tgt.ReadCounters(app)
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Errorf("counters must freeze inside the window: %+v vs %+v", first, second)
	}
	if err := tgt.Step(6 * time.Second); err != nil { // leaves the window
		t.Fatal(err)
	}
	third, err := tgt.ReadCounters(app)
	if err != nil {
		t.Fatal(err)
	}
	if third.Instructions <= second.Instructions {
		t.Error("counters must advance again after the window")
	}
}

func TestOverrunStretchesStep(t *testing.T) {
	m := newMachine(t, 4)
	tgt, err := WrapTarget(m, Scenario{Seed: 3, OverrunProb: 1, OverrunFactor: 2.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tgt.Step(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := m.Now(); got != 5*time.Second {
		t.Errorf("Now()=%v, want the 2s step stretched to 5s", got)
	}
	if tgt.Stats().Overruns != 1 {
		t.Errorf("stats: %+v", tgt.Stats())
	}
}

func TestProbabilisticFaultsAreDeterministicAndBounded(t *testing.T) {
	counts := func() Stats {
		m := newMachine(t, 4)
		tgt, err := WrapTarget(m, Scenario{
			Seed: 11, ReadErrProb: 0.3, WriteErrProb: 0.3, ProbUntil: 5 * time.Second,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		app := m.Apps()[0]
		for i := 0; i < 10; i++ {
			tgt.ReadCounters(app)
			tgt.SetAllocation(app, machine.Alloc{CBM: 0x7ff, MBALevel: 100})
			if err := tgt.Step(time.Second); err != nil {
				t.Fatal(err)
			}
		}
		return tgt.Stats()
	}
	a, b := counts(), counts()
	if a != b {
		t.Errorf("same seed, same call sequence, different faults: %+v vs %+v", a, b)
	}
	if a.ReadErrors == 0 && a.WriteErrors == 0 {
		t.Error("30% error rates over 10 periods should inject something")
	}
	// After ProbUntil (5s) the probabilistic stream is off: replay with a
	// clock already past the horizon and expect silence.
	m := newMachine(t, 4)
	if err := m.Step(6 * time.Second); err != nil {
		t.Fatal(err)
	}
	tgt, err := WrapTarget(m, Scenario{Seed: 11, ReadErrProb: 1, ProbUntil: 5 * time.Second}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tgt.ReadCounters(m.Apps()[0]); err != nil {
		t.Errorf("probabilistic faults must stop after the horizon: %v", err)
	}
}

// TestWrapTreeInjectsWriteFaults checks the write side of WrapTarget:
// allocation writes inside a write burst fail with ErrInjected, reads
// pass through untouched, and once the burst closes the write reaches
// the target.
func TestWrapTreeInjectsWriteFaults(t *testing.T) {
	m := newMachine(t, 4)
	tgt, err := WrapTarget(m, Scenario{
		WriteBursts: []Window{{From: 0, To: time.Second}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	name := m.Apps()[0]
	alloc := machine.Alloc{CBM: 0x7, MBALevel: 50}
	if err := tgt.SetAllocation(name, alloc); !errors.Is(err, ErrInjected) {
		t.Fatalf("write inside the burst must fail with ErrInjected, got %v", err)
	}
	if _, err := tgt.ReadCounters(name); err != nil {
		t.Fatalf("reads must pass through a write burst: %v", err)
	}
	if err := tgt.Step(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := tgt.SetAllocation(name, alloc); err != nil {
		t.Fatalf("write after the burst must pass through: %v", err)
	}
	got, err := m.Allocation(name)
	if err != nil {
		t.Fatal(err)
	}
	if got != alloc {
		t.Errorf("allocation not written: got %+v, want %+v", got, alloc)
	}
	if st := tgt.Stats(); st.WriteErrors != 1 || st.ReadErrors != 0 {
		t.Errorf("stats: %+v", st)
	}
}

// TestWrapCountersInjectsReadFaults checks the read side of WrapTarget:
// a certain probabilistic read fault fails every counter read with
// ErrInjected.
func TestWrapCountersInjectsReadFaults(t *testing.T) {
	m := newMachine(t, 4)
	tgt, err := WrapTarget(m, Scenario{ReadErrProb: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tgt.ReadCounters(m.Apps()[0]); !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
}
