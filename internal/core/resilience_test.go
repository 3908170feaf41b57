package core

import (
	"errors"
	"math/bits"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/eventlog"
	"repro/internal/machine"
	"repro/internal/workloads"
)

func TestResilienceValidate(t *testing.T) {
	if err := (Resilience{}).Validate(); err != nil {
		t.Errorf("disabled resilience must validate: %v", err)
	}
	if err := DefaultResilience().Validate(); err != nil {
		t.Errorf("default resilience must validate: %v", err)
	}
	bad := []Resilience{
		{Enabled: true, MaxRetries: -1, RecoverAfter: 1, MaxClockStalls: 1},
		{Enabled: true, RetryBackoff: -time.Second, RecoverAfter: 1, MaxClockStalls: 1},
		{Enabled: true, DegradeAfter: -1, RecoverAfter: 1, MaxClockStalls: 1},
		{Enabled: true, RecoverAfter: 0, MaxClockStalls: 1},
		{Enabled: true, RecoverAfter: 1, MaxClockStalls: 0},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("case %d: %+v should not validate", i, r)
		}
	}
}

// TestResilienceBitIdenticalWithoutFaults pins the acceptance criterion
// that enabling resilience on a healthy substrate changes nothing: the
// manager visits the same states at the same times as the fail-fast
// loop.
func TestResilienceBitIdenticalWithoutFaults(t *testing.T) {
	_, plain := testSetup(t, workloads.HBoth, 4)
	_, hard := testSetup(t, workloads.HBoth, 4)
	hard.Resilience = DefaultResilience()

	var plainTrace, hardTrace []PeriodReport
	plain.OnPeriod = func(r PeriodReport) { plainTrace = append(plainTrace, r) }
	hard.OnPeriod = func(r PeriodReport) { hardTrace = append(hardTrace, r) }
	if err := plain.Run(240 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := hard.Run(240 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(plainTrace) == 0 {
		t.Fatal("no control periods observed")
	}
	if len(plainTrace) != len(hardTrace) {
		t.Fatalf("trajectory lengths diverged: %d vs %d", len(plainTrace), len(hardTrace))
	}
	for i := range plainTrace {
		p, h := plainTrace[i], hardTrace[i]
		if p.Time != h.Time || p.Phase != h.Phase || !p.State.Equal(h.State) {
			t.Fatalf("period %d diverged:\n fail-fast: t=%v %v %v\n resilient: t=%v %v %v",
				i, p.Time, p.Phase, p.State, h.Time, h.Phase, h.State)
		}
	}
}

// allocWrite records one SetAllocation call with its target time.
type allocWrite struct {
	at   time.Duration
	name string
	a    machine.Alloc
}

// outageTarget wraps a machine and fails every counter read inside the
// [from, to) window of target time, while recording all allocation
// writes so tests can check what the manager programmed and when.
type outageTarget struct {
	*machine.Machine
	from, to time.Duration
	writes   []allocWrite
}

func (o *outageTarget) ReadCounters(name string) (machine.Counters, error) {
	if t := o.Machine.Now(); t >= o.from && t < o.to {
		return machine.Counters{}, errors.New("injected counter outage")
	}
	return o.Machine.ReadCounters(name)
}

func (o *outageTarget) SetAllocation(name string, a machine.Alloc) error {
	o.writes = append(o.writes, allocWrite{at: o.Machine.Now(), name: name, a: a})
	return o.Machine.SetAllocation(name, a)
}

func newOutageSetup(t *testing.T) (*outageTarget, *Manager, *eventlog.Log) {
	t.Helper()
	cfg := machine.DefaultConfig()
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	models, err := workloads.Mix(cfg, workloads.HBoth, 4)
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
	target := &outageTarget{Machine: m}
	mgr, err := NewManager(target, DefaultParams(), ref,
		Envelope{LoWay: 0, Ways: cfg.LLCWays}, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	mgr.Resilience = DefaultResilience()
	log, err := eventlog.New(4096)
	if err != nil {
		t.Fatal(err)
	}
	mgr.Events = log
	return target, mgr, log
}

// TestDegradedModeEntryAndRecovery drives the full watchdog arc: a
// 20-second total counter outage must push the manager into degraded
// mode after exactly θ consecutive failed periods, the EQ fallback must
// be programmed during the outage, and once reads heal the manager must
// re-profile and settle back into idle — with Run returning nil
// throughout.
func TestDegradedModeEntryAndRecovery(t *testing.T) {
	target, mgr, log := newOutageSetup(t)

	// Converge on the healthy substrate first.
	if err := mgr.Run(120 * time.Second); err != nil {
		t.Fatal(err)
	}
	if mgr.Phase() != PhaseIdle {
		t.Fatalf("phase %v before outage, want idle", mgr.Phase())
	}

	// Fail every counter read for the next 20 seconds.
	target.from = target.Now()
	target.to = target.from + 20*time.Second
	target.writes = nil
	if err := mgr.Run(150 * time.Second); err != nil {
		t.Fatalf("Run must survive the outage with resilience enabled: %v", err)
	}

	var fallbackAt time.Duration = -1
	var faultsBeforeFallback, fallbacks, recovers int
	for _, e := range log.Events() {
		switch e.Kind {
		case eventlog.KindFallback:
			if strings.Contains(e.Detail, "degraded mode") {
				fallbacks++
				if fallbackAt < 0 {
					fallbackAt = e.Time
				}
			}
		case eventlog.KindRecover:
			recovers++
		case eventlog.KindFault:
			if strings.Contains(e.Detail, "control period failed") &&
				(fallbackAt < 0 || e.Time <= fallbackAt) {
				faultsBeforeFallback++
			}
		}
	}
	if fallbacks != 1 {
		t.Fatalf("%d fallback transitions, want exactly 1", fallbacks)
	}
	if recovers != 1 {
		t.Fatalf("%d recoveries, want exactly 1", recovers)
	}
	theta := DefaultParams().Theta
	if faultsBeforeFallback != theta {
		t.Errorf("%d failed periods before fallback, want θ=%d", faultsBeforeFallback, theta)
	}

	// The EQ allocation — an equal way split (within one way, 11 ways do
	// not divide by 4) at the equal MBA share — must have been written to
	// every app while reads were still failing.
	cfg := target.Config()
	loWays, hiWays := cfg.LLCWays/4, (cfg.LLCWays+3)/4
	wantMBA := EqualMBAShare(4)
	eqApps := make(map[string]bool)
	for _, w := range target.writes {
		ways := bits.OnesCount64(w.a.CBM)
		if w.at >= target.from && w.at < target.to &&
			ways >= loWays && ways <= hiWays && w.a.MBALevel == wantMBA {
			eqApps[w.name] = true
		}
	}
	if len(eqApps) != 4 {
		t.Errorf("EQ allocation written to %d apps during the outage, want all 4", len(eqApps))
	}

	if mgr.Phase() != PhaseIdle {
		t.Errorf("phase %v after recovery window, want idle again", mgr.Phase())
	}
}

// TestHardenedPeriodProbesAtItsStart pins when a hardened manager first
// observes a counter outage that begins right after a healthy period: at
// that period's end instant, before any time passes. The opening sweep
// is what reads there — a fail-fast manager skips it, because the closing
// sweep already anchored every window at that instant — so skipping it
// under resilience too would move the first failed read, and everything
// the watchdog derives from it, one period later.
func TestHardenedPeriodProbesAtItsStart(t *testing.T) {
	target, mgr, log := newOutageSetup(t)
	if err := mgr.Run(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if mgr.Phase() != PhaseIdle {
		t.Fatalf("phase %v, want idle", mgr.Phase())
	}
	target.from = target.Now()
	target.to = target.from + 20*time.Second
	seen := log.Total()
	if _, err := mgr.IdleStep(); err == nil {
		t.Fatal("a period inside the outage must fail")
	}
	for _, e := range log.Tail(log.Total() - seen) {
		if e.Kind == eventlog.KindRetry {
			if e.Time != target.from {
				t.Fatalf("first failed read at %v, want the period start %v", e.Time, target.from)
			}
			return
		}
	}
	t.Fatal("the failed period logged no retried read")
}

// TestRetryRecoversTransientReadError checks that a one-shot read error
// is absorbed by the retry layer without failing the period.
func TestRetryRecoversTransientReadError(t *testing.T) {
	target, mgr, log := newOutageSetup(t)
	if err := mgr.Run(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	// An outage shorter than one retry backoff: the first retry already
	// lands outside the window.
	target.from = target.Now()
	target.to = target.from + 50*time.Millisecond
	if err := mgr.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	retried, recovered := 0, 0
	for _, e := range log.Events() {
		if e.Kind != eventlog.KindRetry {
			continue
		}
		if strings.Contains(e.Detail, "retrying") {
			retried++
		}
		if strings.Contains(e.Detail, "recovered") {
			recovered++
		}
	}
	if retried == 0 || recovered == 0 {
		t.Errorf("retry layer saw %d retries / %d recoveries, want both > 0", retried, recovered)
	}
	for _, e := range log.Events() {
		if e.Kind == eventlog.KindFallback {
			t.Errorf("blip should not reach degraded mode: %v", e.Detail)
		}
	}
}

// TestStopHaltsRun checks the cooperative shutdown used by copartd's
// signal handler.
func TestStopHaltsRun(t *testing.T) {
	_, mgr := testSetup(t, workloads.HBoth, 4)
	periods := 0
	mgr.OnPeriod = func(PeriodReport) {
		periods++
		if periods == 3 {
			mgr.Stop()
		}
	}
	if err := mgr.Run(600 * time.Second); err != nil {
		t.Fatal(err)
	}
	if periods > 4 {
		t.Errorf("Run kept going for %d periods after Stop", periods)
	}
}

// TestRunBailsOutWhenClockWedged: when Step permanently fails, no virtual
// time can pass, and Run must give up after MaxClockStalls failed
// periods instead of spinning forever.
func TestRunBailsOutWhenClockWedged(t *testing.T) {
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
	mgr.Resilience = Resilience{Enabled: true, RecoverAfter: 1, MaxClockStalls: 5}
	err = mgr.Run(60 * time.Second)
	if err == nil {
		t.Fatal("a wedged clock must surface as an error")
	}
	if !strings.Contains(err.Error(), "clock stalled") {
		t.Errorf("error %v should name the stalled clock", err)
	}
}
