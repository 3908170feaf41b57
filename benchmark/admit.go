package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/workloads"
)

const (
	bootApps = 3
	// A daemon keeps every retired app in machine.apps and each period
	// walks them, so admission latency drifts with the cycles served
	// (a prototype saw admit p50 grow 6× over 20k cycles). The workload
	// therefore serves a fixed number of cycles per daemon lifetime and
	// boots a fresh daemon for the next batch: drift is bounded and equal
	// in every batch, whatever the host's speed lets a run complete.
	replayStride = 8
	replayTail   = 40
)

// daemon is cmd/copartd's control-plane wiring rebuilt from its public
// pieces: a machine without a solve cache, H-Both × 3 apps, a seeded
// counting RNG, the manager, the machine admitter and the plane, with
// BetweenPeriods = plane.Drain and OnPeriod = plane.Observe.
type daemon struct {
	m     *machine.Machine
	mgr   *core.Manager
	plane *controlplane.Plane
	boot  []string

	srv     *http.Server
	base    string
	done    chan error
	started time.Time

	// script, when set, runs on the controller goroutine before each
	// drain (the deterministic replay enqueues its operations there).
	script  func()
	reports []core.PeriodReport // kept only by the replay
	keep    bool
	periods atomic.Int64

	// Tracing (nil tr = untraced). applying lists the drain spans that
	// applied at least one operation. Drains that applied nothing and
	// idle periods are dropped from the trace as they end: a
	// free-running controller completes ~10^5 of them a second.
	tr       *tracer
	tt       *timedTarget
	applying []int
}

func newDaemon(seed int64, tr *tracer) (*daemon, error) {
	mcfg := machine.DefaultConfig()
	m, err := machine.New(mcfg)
	if err != nil {
		return nil, err
	}
	models, err := workloads.Mix(mcfg, workloads.HBoth, bootApps)
	if err != nil {
		return nil, err
	}
	d := &daemon{m: m, tr: tr}
	for _, model := range models {
		if err := m.AddApp(model); err != nil {
			return nil, err
		}
		d.boot = append(d.boot, model.Name)
	}
	sort.Strings(d.boot)
	var target core.Target = m
	if tr != nil {
		d.tt = newTimedTarget(m, tr)
		target = d.tt
	}
	ref, err := workloads.StreamMissRates(m)
	if err != nil {
		return nil, err
	}
	rng, src := core.NewSeededRand(seed)
	d.mgr, err = core.NewManager(target, core.DefaultParams(), ref,
		core.Envelope{LoWay: 0, Ways: mcfg.LLCWays}, rng)
	if err != nil {
		return nil, err
	}
	d.mgr.SnapshotSource = src
	d.plane = controlplane.New(&controlplane.MachineAdmitter{M: m, Mgr: d.mgr}, d.mgr, nil)
	d.mgr.BetweenPeriods = d.between
	d.mgr.OnPeriod = d.onPeriod
	return d, nil
}

func (d *daemon) between() {
	if d.script != nil {
		d.script()
	}
	if d.tr == nil {
		d.plane.Drain()
		return
	}
	// A period that reported nothing (profiling does not call OnPeriod)
	// is still open here.
	d.tt.closePeriod("profile")
	ok0, rej0 := d.plane.AdmissionStats()
	id := d.tr.begin("controlplane.Drain", -1)
	d.plane.Drain()
	d.tr.end(id)
	if ok1, rej1 := d.plane.AdmissionStats(); ok1+rej1 > ok0+rej0 {
		d.tr.tag(id, "applied="+strconv.FormatUint(ok1+rej1-ok0-rej0, 10))
		if id >= 0 {
			d.applying = append(d.applying, id)
		}
	} else {
		d.tr.truncate(id)
	}
	d.tt.openPeriod()
}

func (d *daemon) onPeriod(r core.PeriodReport) {
	d.periods.Add(1)
	d.plane.Observe(r)
	if d.keep {
		d.reports = append(d.reports, r)
	}
	if d.tr == nil {
		return
	}
	if id := d.tt.closePeriod(r.Phase.String()); id >= 0 && r.Phase == core.PhaseIdle {
		d.tr.truncate(id)
	}
}

// serve starts the HTTP server on a loopback port and the free-running
// controller.
func (d *daemon) serve() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	d.base = "http://" + ln.Addr().String()
	d.srv = &http.Server{Handler: d.plane.Handler()}
	go d.srv.Serve(ln) //nolint:errcheck // ErrServerClosed after Shutdown
	d.done = make(chan error, 1)
	d.started = time.Now()
	go func() { d.done <- d.mgr.Run(1 << 62) }()
	return nil
}

// stop ends the controller and the server and waits for both.
func (d *daemon) stop() error {
	d.mgr.Stop()
	err := <-d.done
	d.plane.SetDraining()
	d.plane.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if serr := d.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

func guestName(batch, cycle int) string { return fmt.Sprintf("g%d-%d", batch, cycle) }

func guestSpec(name string) controlplane.AppSpec {
	return controlplane.AppSpec{Name: name, Benchmark: "EP", Cores: 1, Weight: 2}
}

// replayAdmission drives the wiring deterministically: the same
// admit → reweight → evict cycles, enqueued from BetweenPeriods at fixed
// loop iterations and drained on the one goroutine, no HTTP and no
// clock. Its reports are the admission path's simulated statistics, which
// the free-running loop cannot give (how many periods pass between two
// requests there depends on host timing).
func replayAdmission(seed int64, cycles int, tr *tracer) (*daemon, error) {
	d, err := newDaemon(seed, tr)
	if err != nil {
		return nil, err
	}
	d.keep = true
	step := 0
	var scriptErr error
	d.script = func() {
		c, phase := step/replayStride, step%replayStride
		step++
		var err error
		switch {
		case c >= cycles:
			if step > cycles*replayStride+replayTail {
				d.mgr.Stop()
			}
		case phase == 0:
			err = d.plane.EnqueueAdd(guestSpec(guestName(0, c)))
		case phase == 3:
			err = d.plane.EnqueueReweight(guestName(0, c), 1.5)
		case phase == 6:
			err = d.plane.EnqueueRemove(guestName(0, c))
		}
		if err != nil && scriptErr == nil {
			scriptErr = err
		}
	}
	if err := d.mgr.Run(1 << 62); err != nil {
		return nil, err
	}
	if d.tt != nil {
		d.tt.closePeriod("profile")
	}
	return d, scriptErr
}

// admitWorkload is the closed loop: one client on one keep-alive
// connection cycling POST /apps → PATCH weight → DELETE against the
// free-running controller, with GET /metrics and GET /apps every tenth
// cycle. An iteration is one cycle.
type admitWorkload struct {
	seed     int64
	perBatch int
	warm     int
	replayN  int
	tr       *tracer // controller-side tracer; client spans go to ctr
	ctr      *tracer

	d      *daemon
	traced bool // whether d was booted with the tracing target
	client *http.Client
	batch  int
	cycle  int // cycles served by the current daemon, warm-up included
	linked int // client spans already linked to their drains

	replay []core.PeriodReport

	// Host samples, microseconds. admit is POST send → 201 received.
	admit, reweight, remove, scrape, appsGet []float64
	// Quartile split of admit by position in the batch, for the drift ratio.
	admitFirst, admitLast   []float64
	waitUs, applyUs, httpUs []float64
	// Controller periods reported over the daemons' lifetimes.
	periodsDone, daemonNs int64
}

func newAdmitWorkload(seed int64, perBatch, warm, replayN int, tr *tracer) *admitWorkload {
	w := &admitWorkload{seed: seed, perBatch: perBatch, warm: warm, replayN: replayN, tr: tr}
	if tr != nil {
		w.ctr = newTracer(tr.epoch)
	}
	tp := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1,
		DisableCompression: true}
	w.client = &http.Client{Transport: tp, Timeout: 30 * time.Second}
	return w
}

func (w *admitWorkload) name() string { return "copartd_admit" }

func (w *admitWorkload) close() {
	if w.d != nil {
		w.d.stop() //nolint:errcheck // best effort on the error path
		w.d = nil
	}
	w.client.CloseIdleConnections()
}

// do sends one request and reads the whole reply (so the connection is
// reused). A transport error or an unscripted status is a failed op.
func (w *admitWorkload) do(t *tally, span, method, path string, body []byte, want int) (time.Duration, []byte) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, w.d.base+path, rd)
	if err != nil {
		t.check(false, "copartd_admit: %s %s: %v", method, path, err)
		return 0, nil
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	id := -1
	if w.traced {
		id = w.ctr.begin(span, -1)
	}
	t0 := time.Now()
	resp, err := w.client.Do(req)
	var got []byte
	if err == nil {
		got, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	d := time.Since(t0)
	if id >= 0 {
		w.ctr.end(id)
	}
	if err != nil {
		t.check(false, "copartd_admit: %s %s: %v", method, path, err)
		return d, nil
	}
	t.check(resp.StatusCode == want, "copartd_admit: %s %s = %d, want %d: %.200s", method, path, resp.StatusCode, want, got)
	return d, got
}

// startBatch boots a fresh daemon and serves the warm-up cycles.
func (w *admitWorkload) startBatch(t *tally) error {
	var tr *tracer
	if w.traced {
		tr = w.tr
	}
	d, err := newDaemon(w.seed, tr)
	if err != nil {
		return err
	}
	if err := d.serve(); err != nil {
		return err
	}
	w.d, w.cycle = d, 0
	w.batch++
	for i := 0; i < w.warm; i++ {
		w.runCycle(t, false)
	}
	return nil
}

// endBatch checks the daemon's final state and stops it.
func (w *admitWorkload) endBatch(t *tally) error {
	// The /apps mirror follows the controller by up to one re-profile,
	// so poll briefly for the post-eviction view.
	var names []string
	for deadline := time.Now().Add(2 * time.Second); ; {
		_, body := w.do(t, "http.GET /apps", "GET", "/apps", nil, http.StatusOK)
		names = names[:0]
		var views []struct {
			Name string `json:"name"`
		}
		if err := json.Unmarshal(body, &views); err == nil {
			for _, v := range views {
				names = append(names, v.Name)
			}
		}
		sort.Strings(names)
		if fmt.Sprint(names) == fmt.Sprint(w.d.boot) || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	t.check(fmt.Sprint(names) == fmt.Sprint(w.d.boot), "copartd_admit: final GET /apps lists %v, want the boot apps %v", names, w.d.boot)
	d := w.d
	w.d = nil
	w.periodsDone += d.periods.Load()
	w.daemonNs += time.Since(d.started).Nanoseconds()
	if err := d.stop(); err != nil {
		return err
	}
	w.client.CloseIdleConnections()
	ok, rejected := d.plane.AdmissionStats()
	t.check(ok == uint64(3*w.cycle) && rejected == 0,
		"copartd_admit: AdmissionStats = (%d, %d), want (%d, 0)", ok, rejected, 3*w.cycle)
	if d.tr != nil {
		w.linkDrains(d)
	}
	return nil
}

func (w *admitWorkload) setUp(t *tally) error {
	d, err := replayAdmission(w.seed, w.replayN, nil)
	if err != nil {
		return err
	}
	w.replay = d.reports
	ok, rejected := d.plane.AdmissionStats()
	t.check(ok == uint64(3*w.replayN) && rejected == 0,
		"copartd_admit: replay AdmissionStats = (%d, %d), want (%d, 0)", ok, rejected, 3*w.replayN)
	active := d.m.Apps()
	sort.Strings(active)
	t.check(fmt.Sprint(active) == fmt.Sprint(d.boot), "copartd_admit: replay ends with %v, want %v", active, d.boot)
	t.check(len(w.replay) > 0, "copartd_admit: replay reported no period")
	return w.startBatch(t)
}

// runCycle is one admit → reweight → evict cycle; record keeps its
// samples (false during warm-up).
func (w *admitWorkload) runCycle(t *tally, record bool) time.Duration {
	name := guestName(w.batch, w.cycle)
	spec, _ := json.Marshal(guestSpec(name))
	t0 := time.Now()
	a, _ := w.do(t, "http.POST /apps", "POST", "/apps", spec, http.StatusCreated)
	rw, _ := w.do(t, "http.PATCH /apps", "PATCH", "/apps/"+name, []byte(`{"weight":1.5}`), http.StatusOK)
	rm, _ := w.do(t, "http.DELETE /apps", "DELETE", "/apps/"+name, nil, http.StatusOK)
	var sc, ag time.Duration
	reads := w.cycle%10 == 9
	if reads {
		sc, _ = w.do(t, "http.GET /metrics", "GET", "/metrics", nil, http.StatusOK)
		ag, _ = w.do(t, "http.GET /apps", "GET", "/apps", nil, http.StatusOK)
	}
	d := time.Since(t0)
	pos := w.cycle - w.warm
	w.cycle++
	if !record {
		return d
	}
	w.admit = append(w.admit, us(a))
	w.reweight = append(w.reweight, us(rw))
	w.remove = append(w.remove, us(rm))
	if reads {
		w.scrape = append(w.scrape, us(sc))
		w.appsGet = append(w.appsGet, us(ag))
	}
	switch q := w.perBatch / 4; {
	case pos < q:
		w.admitFirst = append(w.admitFirst, us(a))
	case pos >= w.perBatch-q:
		w.admitLast = append(w.admitLast, us(a))
	}
	return d
}

func (w *admitWorkload) iterate(t *tally, traced bool) (time.Duration, error) {
	if w.cycle >= w.warm+w.perBatch || traced != w.traced {
		if err := w.endBatch(t); err != nil {
			return 0, err
		}
		w.traced = traced
		if err := w.startBatch(t); err != nil {
			return 0, err
		}
	}
	return w.runCycle(t, true), nil
}

// linkDrains points every mutation span of the finished batch at the
// drain that answered it (the first applying drain that starts after the
// request was sent; the loop is closed, so at most one mutation is in
// flight) and splits an admission's time around it: send → drain start
// (request transit, handler, queue wait), the drain itself, and drain
// end → reply received. The three parts sum to the span by construction.
func (w *admitWorkload) linkDrains(d *daemon) {
	drains := d.applying
	for i := w.linked; i < len(w.ctr.spans); i++ {
		s := &w.ctr.spans[i]
		if s.Name == "http.GET /metrics" || s.Name == "http.GET /apps" || s.Name == "http.GET /snapshot" {
			continue
		}
		k := sort.Search(len(drains), func(k int) bool { return d.tr.spans[drains[k]].Start >= s.Start })
		if k == len(drains) || d.tr.spans[drains[k]].End > s.End {
			continue
		}
		dr := d.tr.spans[drains[k]]
		s.Link = dr.ID
		if s.Name == "http.POST /apps" {
			w.waitUs = append(w.waitUs, float64(dr.Start-s.Start)/1e3)
			w.applyUs = append(w.applyUs, float64(dr.dur())/1e3)
			w.httpUs = append(w.httpUs, float64(s.End-dr.End)/1e3)
		}
	}
	w.linked = len(w.ctr.spans)
}

func (w *admitWorkload) finish(t *tally) (simStats, error) {
	if w.d != nil {
		if err := w.endBatch(t); err != nil {
			return simStats{}, err
		}
	}
	u := make([]float64, len(w.replay))
	for i, r := range w.replay {
		u[i] = r.Unfairness
	}
	last := w.replay[len(w.replay)-1]
	t.check(len(last.Apps) == bootApps, "copartd_admit: replay's last period reports %d apps, want %d", len(last.Apps), bootApps)
	return simStats{unfairnessMean: mean(u), digest: digest(core.ReportsDigest(w.replay))}, nil
}

func (w *admitWorkload) layers(out map[string]float64, untracedMs []float64) error {
	out["controlplane.admit_us_p50"] = percentile(w.admit, 50)
	out["controlplane.admit_us_p90"] = percentile(w.admit, 90)
	out["controlplane.http_add_us_p99"] = percentile(w.admit, 99)
	out["controlplane.http_reweight_us_p50"] = percentile(w.reweight, 50)
	out["controlplane.http_remove_us_p50"] = percentile(w.remove, 50)
	out["controlplane.metrics_scrape_us_p50"] = percentile(w.scrape, 50)
	out["controlplane.apps_get_us_p50"] = percentile(w.appsGet, 50)
	out["controlplane.admit_drift_ratio"] = ratio(median(w.admitLast), median(w.admitFirst))
	out["controlplane.wait_for_drain_us"] = median(w.waitUs)
	out["controlplane.apply_us"] = median(w.applyUs)
	out["controlplane.http_overhead_us"] = median(w.httpUs)
	out["core.periods_per_s_under_admit"] = ratio(float64(w.periodsDone), float64(w.daemonNs)/1e9)

	// GET /snapshot on a fresh daemon that has served a few cycles.
	var t tally
	if err := w.startBatch(&t); err != nil {
		return err
	}
	var snap []float64
	for i := 0; i < 5; i++ {
		d, body := w.do(&t, "http.GET /snapshot", "GET", "/snapshot", nil, http.StatusOK)
		if _, err := core.ParseSnapshot(body); err != nil {
			return fmt.Errorf("copartd_admit: /snapshot does not parse: %w", err)
		}
		snap = append(snap, ms(d))
	}
	out["controlplane.snapshot_ms"] = median(snap)
	d := w.d
	w.d = nil
	if err := d.stop(); err != nil {
		return err
	}
	if t.failed > 0 {
		return fmt.Errorf("copartd_admit: snapshot probe: %s", t.msgs[0])
	}
	return nil
}
