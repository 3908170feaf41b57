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
