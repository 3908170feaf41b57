package controlplane

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/eventlog"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// liveSetup boots a 3-app consolidation with a running controller whose
// BetweenPeriods hook drains the plane, plus an HTTP test server.
func liveSetup(t testing.TB) (*Plane, *httptest.Server, *machine.Machine) {
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
	rng, src := core.NewSeededRand(1)
	mgr, err := core.NewManager(m, core.DefaultParams(), ref,
		core.Envelope{LoWay: 0, Ways: cfg.LLCWays}, rng)
	if err != nil {
		t.Fatal(err)
	}
	mgr.SnapshotSource = src

	elog, err := eventlog.New(256)
	if err != nil {
		t.Fatal(err)
	}
	plane := New(&MachineAdmitter{M: m, Mgr: mgr}, mgr, elog)
	mgr.BetweenPeriods = plane.Drain
	mgr.OnPeriod = plane.Observe

	done := make(chan error, 1)
	// The horizon is target time, not wall time: the unpaced loop burns
	// through virtual periods as fast as the CPU allows, so it must be
	// large enough that Run cannot finish under a loaded test host
	// before Stop lands.
	go func() { done <- mgr.Run(10000 * time.Hour) }()
	srv := httptest.NewServer(plane.Handler())
	t.Cleanup(func() {
		srv.Close()
		mgr.Stop()
		if err := <-done; err != nil {
			t.Errorf("controller run: %v", err)
		}
	})
	return plane, srv, m
}

func doReq(t testing.TB, method, url string, body interface{}) (int, map[string]interface{}, string) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]interface{}
	json.Unmarshal(raw, &decoded) //nolint:errcheck // not all bodies are objects
	return resp.StatusCode, decoded, string(raw)
}

// TestAdmissionLifecycle drives add → reweight → remove through the live
// HTTP API, with the controller applying ops between control periods.
func TestAdmissionLifecycle(t *testing.T) {
	_, srv, m := liveSetup(t)

	if code, _, _ := doReq(t, "GET", srv.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", code)
	}

	// Admit a 1-core EP instance under a fresh name.
	code, _, raw := doReq(t, "POST", srv.URL+"/apps",
		AppSpec{Name: "late", Benchmark: "EP", Cores: 1, Weight: 2})
	if code != http.StatusCreated {
		t.Fatalf("admit = %d: %s", code, raw)
	}
	found := false
	for _, n := range m.Apps() {
		if n == "late" {
			found = true
		}
	}
	if !found {
		t.Fatalf("late not on the machine after admission: %v", m.Apps())
	}

	// Duplicate name → 409 duplicate_app.
	code, body, _ := doReq(t, "POST", srv.URL+"/apps",
		AppSpec{Name: "late", Benchmark: "EP", Cores: 1})
	if code != http.StatusConflict || body["code"] != CodeDuplicateApp {
		t.Fatalf("duplicate admit = %d %v", code, body)
	}

	// Unknown benchmark → 400 bad_spec enumerating the catalog.
	code, body, raw = doReq(t, "POST", srv.URL+"/apps",
		AppSpec{Name: "x", Benchmark: "NOPE"})
	if code != http.StatusBadRequest || body["code"] != CodeBadSpec || !strings.Contains(raw, "EP") {
		t.Fatalf("bad benchmark = %d: %s", code, raw)
	}

	// A control character in the name → 400 bad_spec, before it can
	// reach a /metrics label.
	code, body, raw = doReq(t, "POST", srv.URL+"/apps",
		AppSpec{Name: "a\rb", Benchmark: "EP", Cores: 1})
	if code != http.StatusBadRequest || body["code"] != CodeBadSpec {
		t.Fatalf("control-character name = %d: %s", code, raw)
	}

	// Malformed JSON → 400 bad_spec.
	resp, err := http.Post(srv.URL+"/apps", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body = %d, want 400", resp.StatusCode)
	}

	// No core capacity left (15 mix + 1 late = 16): machine_full.
	code, body, _ = doReq(t, "POST", srv.URL+"/apps",
		AppSpec{Name: "nofit", Benchmark: "EP", Cores: 1})
	if code != http.StatusConflict || body["code"] != CodeMachineFull {
		t.Fatalf("overcommit admit = %d %v", code, body)
	}

	// Reweight, then reweight a ghost.
	code, _, raw = doReq(t, "PATCH", srv.URL+"/apps/late", map[string]float64{"weight": 1.5})
	if code != http.StatusOK {
		t.Fatalf("reweight = %d: %s", code, raw)
	}
	code, body, _ = doReq(t, "PATCH", srv.URL+"/apps/ghost", map[string]float64{"weight": 2})
	if code != http.StatusNotFound || body["code"] != CodeUnknownApp {
		t.Fatalf("reweight ghost = %d %v", code, body)
	}
	code, body, _ = doReq(t, "PATCH", srv.URL+"/apps/late", map[string]float64{"weight": -1})
	if code != http.StatusBadRequest || body["code"] != CodeBadSpec {
		t.Fatalf("negative weight = %d %v", code, body)
	}

	// Snapshot round-trips through the core parser.
	code, _, raw = doReq(t, "GET", srv.URL+"/snapshot", nil)
	if code != http.StatusOK {
		t.Fatalf("snapshot = %d: %s", code, raw)
	}
	if _, err := core.ParseSnapshot([]byte(raw)); err != nil {
		t.Fatalf("snapshot unparseable: %v", err)
	}

	// Remove, then remove again.
	if code, _, raw = doReq(t, "DELETE", srv.URL+"/apps/late", nil); code != http.StatusOK {
		t.Fatalf("remove = %d: %s", code, raw)
	}
	code, body, _ = doReq(t, "DELETE", srv.URL+"/apps/late", nil)
	if code != http.StatusNotFound || body["code"] != CodeUnknownApp {
		t.Fatalf("double remove = %d %v", code, body)
	}

	// Removing below the minimum consolidation is refused.
	code, body, _ = doReq(t, "DELETE", srv.URL+"/apps/"+m.Apps()[0], nil)
	if code != http.StatusOK {
		t.Fatalf("remove to minimum = %d %v", code, body)
	}
	code, body, _ = doReq(t, "DELETE", srv.URL+"/apps/"+m.Apps()[0], nil)
	if code != http.StatusConflict || body["code"] != CodeLastApps {
		t.Fatalf("remove below minimum = %d %v", code, body)
	}
}

// TestReadSurfaces checks /status, /apps, /metrics, /events against a
// live controller.
func TestReadSurfaces(t *testing.T) {
	_, srv, _ := liveSetup(t)

	// Wait until at least one period has been observed.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if code, body, _ := doReq(t, "GET", srv.URL+"/status", nil); code == http.StatusOK {
			if n, _ := body["periods"].(float64); n > 0 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("controller produced no periods within 10s")
		}
		time.Sleep(10 * time.Millisecond)
	}

	code, _, raw := doReq(t, "GET", srv.URL+"/apps", nil)
	if code != http.StatusOK || !strings.Contains(raw, "slowdown") {
		t.Fatalf("apps = %d: %s", code, raw)
	}

	code, _, raw = doReq(t, "GET", srv.URL+"/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	for _, want := range []string{
		"copart_periods_total", "copart_controller_phase{phase=\"profiling\"}",
		"copart_controller_degraded 0", "# TYPE copart_admission_ops_total counter",
	} {
		if !strings.Contains(raw, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	code, _, raw = doReq(t, "GET", srv.URL+"/events?n=50", nil)
	if code != http.StatusOK {
		t.Fatalf("events = %d: %s", code, raw)
	}
	if code, _, _ := doReq(t, "GET", srv.URL+"/events?n=bogus", nil); code != http.StatusBadRequest {
		t.Error("bad n should 400")
	}

	// Readiness flips once profiling completes; poll briefly.
	deadline = time.Now().Add(30 * time.Second)
	for {
		code, _, _ := doReq(t, "GET", srv.URL+"/readyz", nil)
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never became ready")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fakeStatus is a scriptable StatusSource.
type fakeStatus struct {
	phase  core.Phase
	streak int
}

func (f *fakeStatus) Phase() core.Phase { return f.phase }
func (f *fakeStatus) FailStreak() int   { return f.streak }

// fakeAdmitter counts calls and returns a configured error.
type fakeAdmitter struct {
	err   error
	calls int
}

func (f *fakeAdmitter) AddApp(AppSpec) error           { f.calls++; return f.err }
func (f *fakeAdmitter) RemoveApp(string) error         { f.calls++; return f.err }
func (f *fakeAdmitter) Reweight(string, float64) error { f.calls++; return f.err }
func (f *fakeAdmitter) Snapshot() ([]byte, error)      { f.calls++; return []byte(`{"v":1}`), f.err }

// TestHealthzFlipsWithDegradedPhase is the acceptance contract: /healthz
// is unhealthy exactly while the status source reports PhaseDegraded.
func TestHealthzFlipsWithDegradedPhase(t *testing.T) {
	st := &fakeStatus{phase: core.PhaseIdle}
	p := New(&fakeAdmitter{}, st, nil)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	p.Drain() // sync the healthy state
	if code, _, _ := doReq(t, "GET", srv.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthy: healthz = %d, want 200", code)
	}

	st.phase, st.streak = core.PhaseDegraded, 5
	p.Drain()
	code, body, _ := doReq(t, "GET", srv.URL+"/healthz", nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("degraded: healthz = %d, want 503", code)
	}
	if fs, _ := body["failStreak"].(float64); fs != 5 {
		t.Errorf("degraded healthz failStreak = %v, want 5", body["failStreak"])
	}
	if code, _, _ := doReq(t, "GET", srv.URL+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Error("degraded: readyz should be 503")
	}

	st.phase, st.streak = core.PhaseProfile, 0
	p.Drain()
	if code, _, _ := doReq(t, "GET", srv.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("recovered: healthz = %d, want 200", code)
	}

	// Exactly one transition counted.
	_, _, raw := doReq(t, "GET", srv.URL+"/metrics", nil)
	if !strings.Contains(raw, "copart_controller_degraded_transitions_total 1") {
		t.Errorf("want exactly one degraded transition:\n%s", raw)
	}
}

// TestQueueBackpressureAndDraining covers the bounded-queue and drain
// rejection paths without a live controller.
func TestQueueBackpressureAndDraining(t *testing.T) {
	p := New(&fakeAdmitter{}, &fakeStatus{}, nil, WithQueueDepth(2), WithOpTimeout(50*time.Millisecond))
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	// Nobody drains: an HTTP mutation times out with 504. The op stays
	// queued (one of the two slots).
	code, body, _ := doReq(t, "DELETE", srv.URL+"/apps/whatever", nil)
	if code != http.StatusGatewayTimeout || body["code"] != CodeTimeout {
		t.Fatalf("undrained mutation = %d %v, want 504 timeout", code, body)
	}

	if err := p.EnqueueAdd(AppSpec{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	err := p.EnqueueReweight("c", 2)
	rej, ok := err.(*Rejection)
	if !ok || rej.Code != CodeQueueFull {
		t.Fatalf("enqueue on a full queue = %v, want queue_full", err)
	}

	// Draining: queued mutations are rejected, snapshots still served.
	p.SetDraining()
	p.Drain()
	ok1, rejected := p.AdmissionStats()
	if rejected < 3 {
		t.Errorf("drained queue: ok=%d rejected=%d, want the queued ops plus the overflow rejected", ok1, rejected)
	}
	go func() {
		time.Sleep(5 * time.Millisecond)
		p.Drain()
	}()
	code, body, _ = doReq(t, "POST", srv.URL+"/apps", AppSpec{Name: "z2"})
	if code != http.StatusServiceUnavailable || body["code"] != CodeDraining {
		t.Fatalf("draining admit = %d %v, want 503 draining", code, body)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(5 * time.Millisecond)
		p.Drain()
	}()
	code, _, raw := doReq(t, "GET", srv.URL+"/snapshot", nil)
	<-done
	if code != http.StatusOK || !strings.Contains(raw, `"v"`) {
		t.Fatalf("draining snapshot = %d: %s (snapshots must survive drain)", code, raw)
	}
}

// TestRejectionRendering: Rejection implements error and renders with
// its code over HTTP.
func TestRejectionRendering(t *testing.T) {
	rej := Reject(http.StatusConflict, CodeMachineFull, "no room for %q", "x")
	if rej.Error() != `no room for "x"` {
		t.Errorf("Error() = %q", rej.Error())
	}
	rec := httptest.NewRecorder()
	writeErr(rec, rej)
	if rec.Code != http.StatusConflict {
		t.Errorf("status = %d", rec.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["code"] != CodeMachineFull {
		t.Errorf("body = %v", body)
	}

	rec = httptest.NewRecorder()
	writeErr(rec, fmt.Errorf("plain failure"))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("plain error status = %d", rec.Code)
	}
}
