package controlplane

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/eventlog"
	"repro/internal/faultinject"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// TestEnqueueDue replays a schedule the way the chaos soak and copartd's
// -faults churn do, one boundary at a time: only the ops due by the
// boundary's clock are queued, the index moves past exactly those, and a
// remove naming no app takes the first live one when it fires.
func TestEnqueueDue(t *testing.T) {
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
	mgr, err := core.NewManager(m, core.DefaultParams(), ref,
		core.Envelope{LoWay: 0, Ways: cfg.LLCWays}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	p := New(&MachineAdmitter{M: m, Mgr: mgr}, mgr, nil)
	sched := []ScheduledOp{
		{At: 10 * time.Second, Kind: "add", Spec: AppSpec{Name: "late", Benchmark: "EP", Cores: 1}},
		{At: 20 * time.Second, Kind: "reweight", Spec: AppSpec{Name: "late"}, Weight: 2},
		{At: 20 * time.Second, Kind: "remove"},
		{At: 30 * time.Second, Kind: "evict", Spec: AppSpec{Name: "late"}},
		{At: 30 * time.Second, Kind: "remove", Spec: AppSpec{Name: "late"}},
	}
	first := m.Apps()[0]

	step := func(now time.Duration, next, want int) int {
		t.Helper()
		got, err := p.EnqueueDue(sched, next, now)
		if err != nil {
			t.Fatalf("at %v: %v", now, err)
		}
		if got != want || len(p.ops) != want-next {
			t.Fatalf("at %v: next %d with %d queued, want %d with %d", now, got, len(p.ops), want, want-next)
		}
		p.Drain()
		return got
	}
	next := step(5*time.Second, 0, 0)
	next = step(10*time.Second, next, 1)
	if !slices.Contains(m.Apps(), "late") {
		t.Fatalf("the add due at 10s did not land: %v", m.Apps())
	}
	next = step(19*time.Second, next, 1)
	next = step(25*time.Second, next, 3)
	if mgr.Weight("late") != 2 {
		t.Errorf("late weight %v after the reweight, want 2", mgr.Weight("late"))
	}
	if apps := m.Apps(); slices.Contains(apps, first) || len(apps) != 3 {
		t.Errorf("the unnamed remove should have taken %s, the first live app: %v", first, apps)
	}

	// An op that cannot be queued is reported, and the replay moves past
	// it to the ops behind it.
	next, err = p.EnqueueDue(sched, next, 30*time.Second)
	if next != len(sched) || err == nil || !strings.Contains(err.Error(), `unknown kind "evict"`) {
		t.Fatalf("next %d, err %v: want the bad op reported and the schedule spent", next, err)
	}
	p.Drain()
	if slices.Contains(m.Apps(), "late") {
		t.Errorf("the remove behind the bad op did not land: %v", m.Apps())
	}
	if ok, rejected := p.AdmissionStats(); ok != 4 || rejected != 0 {
		t.Errorf("admissions ok=%d rejected=%d, want 4 and 0", ok, rejected)
	}

	// Over HTTP a removal always names its app: the route does not match
	// an empty name, so the first-live-app rule is the schedule's alone.
	rec := httptest.NewRecorder()
	p.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/apps/", nil))
	if rec.Code != http.StatusNotFound || len(p.ops) != 0 {
		t.Errorf("DELETE /apps/ = %d with %d queued, want an unrouted 404", rec.Code, len(p.ops))
	}
}

// TestAdmissionEventStampedOnTargetClock replays copartd's -faults churn
// through a read outage: the removal due at 30 s must be logged at the
// boundary it applied at, not at the last period report, which stops at
// the outage (19 s) and only resumes once profiling is done again.
func TestAdmissionEventStampedOnTargetClock(t *testing.T) {
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
	elog, err := eventlog.New(4096)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := faultinject.Parse("seed=3,readerr=0.1,writeerr=0.05,readburst=20s-25s")
	if err != nil {
		t.Fatal(err)
	}
	target, err := faultinject.WrapTarget(m, sc, elog)
	if err != nil {
		t.Fatal(err)
	}
	rng, _ := core.NewSeededRand(1)
	mgr, err := core.NewManager(target, core.DefaultParams(), ref,
		core.Envelope{LoWay: 0, Ways: cfg.LLCWays}, rng)
	if err != nil {
		t.Fatal(err)
	}
	mgr.Resilience = core.DefaultResilience()
	mgr.Events = elog
	p := New(&MachineAdmitter{M: m, Mgr: mgr}, mgr, elog)
	sched, next := []ScheduledOp{{At: 30 * time.Second, Kind: "remove", Spec: AppSpec{Name: "SP"}}}, 0
	mgr.BetweenPeriods = func() {
		if next, err = p.EnqueueDue(sched, next, m.Now()); err != nil {
			t.Error(err)
		}
		p.Drain()
	}
	mgr.OnPeriod = p.Observe
	if err := mgr.Run(40 * time.Second); err != nil {
		t.Fatal(err)
	}
	var stamped []time.Duration
	for _, e := range elog.Events() {
		if e.Kind == eventlog.KindAdmission {
			stamped = append(stamped, e.Time)
		}
	}
	if len(stamped) != 1 || stamped[0] < 30*time.Second || stamped[0] > 32*time.Second {
		t.Errorf("admission events stamped at %v, want one removal at 30–32 s", stamped)
	}
}
