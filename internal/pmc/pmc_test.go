package pmc

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
)

// fakeSource is a scriptable counter source.
type fakeSource struct {
	counters map[string]machine.Counters
	err      error
	failApp  string // reads of this app alone fail
}

func (f *fakeSource) ReadCounters(app string) (machine.Counters, error) {
	if f.err != nil {
		return machine.Counters{}, f.err
	}
	if app == f.failApp {
		return machine.Counters{}, fmt.Errorf("injected read failure for %s", app)
	}
	c, ok := f.counters[app]
	if !ok {
		return machine.Counters{}, errors.New("unknown app")
	}
	return c, nil
}

func TestFirstSampleHasNoWindow(t *testing.T) {
	src := &fakeSource{counters: map[string]machine.Counters{"a": {Instructions: 100}}}
	s := NewSampler(src)
	_, ok, err := s.Sample("a", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("first sample should report no window")
	}
}

func TestRates(t *testing.T) {
	src := &fakeSource{counters: map[string]machine.Counters{
		"a": {Instructions: 1000, LLCAccesses: 100, LLCMisses: 10},
	}}
	s := NewSampler(src)
	if _, _, err := s.Sample("a", 0); err != nil {
		t.Fatal(err)
	}
	src.counters["a"] = machine.Counters{Instructions: 3000, LLCAccesses: 300, LLCMisses: 60}
	r, ok, err := s.Sample("a", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("second sample should have a window")
	}
	if math.Abs(r.IPS-1000) > 1e-9 {
		t.Errorf("IPS=%v want 1000", r.IPS)
	}
	if math.Abs(r.AccessRate-100) > 1e-9 {
		t.Errorf("AccessRate=%v want 100", r.AccessRate)
	}
	if math.Abs(r.MissRate-25) > 1e-9 {
		t.Errorf("MissRate=%v want 25", r.MissRate)
	}
	if math.Abs(r.MissRatio-0.25) > 1e-9 {
		t.Errorf("MissRatio=%v want 0.25", r.MissRatio)
	}
	if r.Window != 2*time.Second {
		t.Errorf("Window=%v", r.Window)
	}
}

func TestMissRatioZeroWithoutAccesses(t *testing.T) {
	src := &fakeSource{counters: map[string]machine.Counters{"a": {Instructions: 1}}}
	s := NewSampler(src)
	s.Sample("a", 0)
	src.counters["a"] = machine.Counters{Instructions: 2}
	r, ok, err := s.Sample("a", time.Second)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if r.MissRatio != 0 {
		t.Errorf("MissRatio=%v want 0", r.MissRatio)
	}
}

// TestWraparoundDropsSample models a counter wrapping mid-stream: the
// wrapped sample must be discarded (no bogus negative rate, no error) and
// the window re-anchored so the next sample is correct again.
func TestWraparoundDropsSample(t *testing.T) {
	src := &fakeSource{counters: map[string]machine.Counters{
		"a": {Instructions: 1 << 32, LLCAccesses: 1000, LLCMisses: 100},
	}}
	s := NewSampler(src)
	s.Sample("a", 0)
	// The instruction counter wraps: cumulative value becomes small again.
	src.counters["a"] = machine.Counters{Instructions: 500, LLCAccesses: 1100, LLCMisses: 110}
	r, ok, err := s.Sample("a", time.Second)
	if err != nil {
		t.Fatalf("wraparound must not error: %v", err)
	}
	if ok {
		t.Fatalf("wrapped sample must be dropped, got rates %+v", r)
	}
	if s.Drops() != 1 {
		t.Errorf("Drops()=%d want 1", s.Drops())
	}
	// The next window is anchored at the post-wrap snapshot and correct.
	src.counters["a"] = machine.Counters{Instructions: 2500, LLCAccesses: 1300, LLCMisses: 130}
	r, ok, err = s.Sample("a", 2*time.Second)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if math.Abs(r.IPS-2000) > 1e-9 {
		t.Errorf("post-wrap IPS=%v want 2000", r.IPS)
	}
	if math.Abs(r.AccessRate-200) > 1e-9 {
		t.Errorf("post-wrap AccessRate=%v want 200", r.AccessRate)
	}
}

// TestCounterResetDropsSample models a full counter reset (all counters
// back to ~zero, e.g. the perf fd was reopened after its process died).
func TestCounterResetDropsSample(t *testing.T) {
	src := &fakeSource{counters: map[string]machine.Counters{
		"a": {Instructions: 9000, LLCAccesses: 900, LLCMisses: 90},
	}}
	s := NewSampler(src)
	s.Sample("a", 0)
	src.counters["a"] = machine.Counters{}
	r, ok, err := s.Sample("a", time.Second)
	if err != nil {
		t.Fatalf("reset must not error: %v", err)
	}
	if ok {
		t.Fatalf("reset sample must be dropped, got rates %+v", r)
	}
	if s.Drops() != 1 {
		t.Errorf("Drops()=%d want 1", s.Drops())
	}
	src.counters["a"] = machine.Counters{Instructions: 100, LLCAccesses: 10, LLCMisses: 1}
	r, ok, err = s.Sample("a", 2*time.Second)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if math.Abs(r.IPS-100) > 1e-9 {
		t.Errorf("post-reset IPS=%v want 100", r.IPS)
	}
}

func TestZeroWindowIsNoOp(t *testing.T) {
	src := &fakeSource{counters: map[string]machine.Counters{"a": {Instructions: 10}}}
	s := NewSampler(src)
	s.Sample("a", time.Second)
	_, ok, err := s.Sample("a", time.Second)
	if err != nil {
		t.Fatalf("zero window should be a no-op, got %v", err)
	}
	if ok {
		t.Error("zero window should not produce rates")
	}
	// The original snapshot must survive so the next window is anchored
	// at the first sample.
	src.counters["a"] = machine.Counters{Instructions: 30}
	r, ok, err := s.Sample("a", 3*time.Second)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if math.Abs(r.IPS-10) > 1e-9 {
		t.Errorf("IPS=%v want 10 (anchored at the first snapshot)", r.IPS)
	}
}

func TestNegativeWindowError(t *testing.T) {
	src := &fakeSource{counters: map[string]machine.Counters{"a": {}}}
	s := NewSampler(src)
	s.Sample("a", time.Second)
	if _, _, err := s.Sample("a", time.Millisecond); err == nil {
		t.Error("negative window should error")
	}
}

func TestSourceErrorPropagates(t *testing.T) {
	src := &fakeSource{err: errors.New("boom")}
	s := NewSampler(src)
	if _, _, err := s.Sample("a", 0); err == nil {
		t.Error("source error should propagate")
	}
}

func TestForgetResetsWindow(t *testing.T) {
	src := &fakeSource{counters: map[string]machine.Counters{"a": {Instructions: 100}}}
	s := NewSampler(src)
	s.Sample("a", 0)
	s.Forget("a")
	_, ok, err := s.Sample("a", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("sample after Forget should behave like a first sample")
	}
}

func TestReset(t *testing.T) {
	src := &fakeSource{counters: map[string]machine.Counters{"a": {}, "b": {}}}
	s := NewSampler(src)
	s.Sample("a", 0)
	s.Sample("b", 0)
	s.Reset()
	if _, ok, _ := s.Sample("a", time.Second); ok {
		t.Error("Reset should drop all snapshots")
	}
}

func TestSamplerAgainstMachine(t *testing.T) {
	cfg := machine.DefaultConfig()
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	model := machine.AppModel{
		Name: "app", Cores: 4, CPIBase: 1, AccPerInstr: 0.01,
		Hot: []machine.WSComponent{{Bytes: 4 << 20, Weight: 1}},
	}
	if err := m.AddApp(model); err != nil {
		t.Fatal(err)
	}
	s := NewSampler(m)
	if _, _, err := s.Sample("app", m.Now()); err != nil {
		t.Fatal(err)
	}
	if err := m.Step(time.Second); err != nil {
		t.Fatal(err)
	}
	r, ok, err := s.Sample("app", m.Now())
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	perfs, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.IPS-perfs[0].IPS) > 1e-6*perfs[0].IPS {
		t.Errorf("sampled IPS %v vs solved %v", r.IPS, perfs[0].IPS)
	}
}

// loopSample is SampleAll's specification: the loop over Sample a caller
// wrote before SampleAll existed, with the same stopping rule.
func loopSample(s *Sampler, apps []string, now time.Duration, out []Rates) (int, error) {
	for i, app := range apps {
		r, ok, err := s.Sample(app, now)
		if err != nil {
			return i, err
		}
		if out == nil {
			continue
		}
		if !ok {
			return i, nil
		}
		out[i] = r
	}
	return -1, nil
}

// sameWindows compares two samplers' complete window state: tracked
// names in insertion order, every snapshot, the spill, and the drops.
func sameWindows(a, b *Sampler) error {
	if a.drops != b.drops {
		return fmt.Errorf("drops %d vs %d", a.drops, b.drops)
	}
	if len(a.names) != len(b.names) || len(a.last) != len(b.last) {
		return fmt.Errorf("tracked %d (map %d) vs %d (map %d)", len(a.names), len(a.last), len(b.names), len(b.last))
	}
	for i, n := range a.names {
		if n != b.names[i] || *a.snaps[i] != *b.snaps[i] {
			return fmt.Errorf("slot %d: %s %+v vs %s %+v", i, n, *a.snaps[i], b.names[i], *b.snaps[i])
		}
		if len(a.last) > 0 && (a.last[n] != a.snaps[i] || b.last[n] != b.snaps[i]) {
			return fmt.Errorf("slot %d: map and slices disagree on %s", i, n)
		}
	}
	return nil
}

// TestSampleAllMatchesSample drives twin samplers over one scripted
// source, one through the per-app loop and one through SampleAll, and
// requires them to agree on everything after every sweep: rates bit for
// bit, the stop index, the error text, every snapshot (so a stopped
// sweep left the later ones alone) and the drop count. The script mixes
// the aligned steady sweep with first sightings, reordered, partial and
// repeated app lists, zero and negative windows, counter wraparound and
// read errors at a random app, Forget and Reset between sweeps, and
// sets past the eight-app spill into the map.
func TestSampleAllMatchesSample(t *testing.T) {
	const sweeps = 12000
	rng := rand.New(rand.NewSource(18))
	src := &fakeSource{counters: map[string]machine.Counters{}}
	pool := make([]string, 14)
	for i := range pool {
		pool[i] = fmt.Sprintf("app%02d", i)
		src.counters[pool[i]] = machine.Counters{Instructions: 1e9, LLCAccesses: 1e7, LLCMisses: 1e6}
	}
	ref, got := NewSampler(src), NewSampler(src)
	var (
		apps                        []string
		now                         = time.Second
		stops, errs, spills, shapes int
	)
	for sweep := 0; sweep < sweeps; sweep++ {
		if len(apps) == 0 || rng.Intn(40) == 0 {
			// A new tenant: 1…12 apps, usually on a recycled sampler.
			if rng.Intn(3) > 0 {
				ref.Reset()
				got.Reset()
			}
			apps = append(apps[:0], pool[:1+rng.Intn(12)]...)
			rng.Shuffle(len(apps), func(i, j int) { apps[i], apps[j] = apps[j], apps[i] })
		}
		list := apps
		switch rng.Intn(12) {
		case 0: // another order
			list = append([]string(nil), apps...)
			rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
			shapes++
		case 1: // a prefix, or the set plus a stranger or a repeat
			if rng.Intn(2) == 0 {
				list = apps[:1+rng.Intn(len(apps))]
			} else {
				list = append(append([]string(nil), apps...), pool[rng.Intn(len(pool))])
			}
			shapes++
		case 2: // an app departs
			gone := apps[rng.Intn(len(apps))]
			ref.Forget(gone)
			got.Forget(gone)
			if len(apps) > 1 && rng.Intn(2) == 0 {
				kept := apps[:0:0]
				for _, a := range apps {
					if a != gone {
						kept = append(kept, a)
					}
				}
				apps, list = kept, kept
			}
		}
		switch rng.Intn(10) {
		case 0: // zero window
		case 1: // negative window
			now -= time.Duration(1+rng.Intn(5)) * time.Millisecond
		default:
			now += time.Duration(1+rng.Intn(3)) * 500 * time.Millisecond
		}
		for _, a := range pool {
			c := src.counters[a]
			c.Instructions += 1e6 * (1 + rng.Float64())
			c.LLCAccesses += 1e4 * rng.Float64() * float64(rng.Intn(2))
			c.LLCMisses += 1e3 * rng.Float64()
			src.counters[a] = c
		}
		if rng.Intn(15) == 0 { // a counter wraps at app k
			k := list[rng.Intn(len(list))]
			c := src.counters[k]
			c.Instructions = 1e3 * rng.Float64()
			src.counters[k] = c
		}
		src.failApp = ""
		if rng.Intn(20) == 0 { // a read fails at app k
			src.failApp = list[rng.Intn(len(list))]
		}
		var wantOut, gotOut []Rates
		if rng.Intn(4) > 0 {
			wantOut, gotOut = make([]Rates, len(list)), make([]Rates, len(list))
		}
		wantStop, wantErr := loopSample(ref, list, now, wantOut)
		gotStop, gotErr := got.SampleAll(list, now, gotOut)
		if wantStop != gotStop {
			t.Fatalf("sweep %d over %v: stopped at %d, the loop at %d", sweep, list, gotStop, wantStop)
		}
		if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
			t.Fatalf("sweep %d: error %v, the loop's %v", sweep, gotErr, wantErr)
		}
		done := len(wantOut)
		if wantStop >= 0 {
			done = wantStop
			stops++
		}
		if wantErr != nil {
			errs++
		}
		for i := 0; i < done && wantOut != nil; i++ {
			w, g := wantOut[i], gotOut[i]
			if math.Float64bits(w.IPS) != math.Float64bits(g.IPS) ||
				math.Float64bits(w.AccessRate) != math.Float64bits(g.AccessRate) ||
				math.Float64bits(w.MissRate) != math.Float64bits(g.MissRate) ||
				math.Float64bits(w.MissRatio) != math.Float64bits(g.MissRatio) ||
				w.Window != g.Window {
				t.Fatalf("sweep %d app %s: rates %+v, the loop's %+v", sweep, list[i], g, w)
			}
		}
		if err := sameWindows(ref, got); err != nil {
			t.Fatalf("sweep %d over %v (stop %d): %v", sweep, list, wantStop, err)
		}
		if len(got.last) > 0 {
			spills++
		}
	}
	if stops < sweeps/10 || errs < sweeps/50 || spills < sweeps/20 || shapes < sweeps/10 || ref.Drops() < sweeps/50 {
		t.Fatalf("script too tame: %d stops, %d errors, %d spilled sweeps, %d odd app lists, %d drops in %d sweeps",
			stops, errs, spills, shapes, ref.Drops(), sweeps)
	}
}

// TestSamplerSnapshotRoundTrip restores a snapshot into a fresh sampler
// below and above the spill bound: the snapshot must carry every window
// (it used to be read from the map alone, which a small set never
// builds) and the restored sampler must measure the next window exactly
// as the original does (restore used to write into that same, nil, map).
func TestSamplerSnapshotRoundTrip(t *testing.T) {
	for _, n := range []int{4, 9} {
		src := &fakeSource{counters: map[string]machine.Counters{}}
		apps := make([]string, n)
		for i := range apps {
			apps[i] = fmt.Sprintf("app%d", n-i) // insertion order is not name order
			src.counters[apps[i]] = machine.Counters{Instructions: float64(1000 * (i + 1)), LLCAccesses: 100, LLCMisses: 10}
		}
		orig := NewSampler(src)
		if _, err := orig.SampleAll(apps, time.Second, nil); err != nil {
			t.Fatal(err)
		}
		snap := orig.Snapshot()
		if len(snap.Apps) != n {
			t.Fatalf("%d apps: snapshot carries %d windows", n, len(snap.Apps))
		}
		for i := 1; i < n; i++ {
			if snap.Apps[i-1].App >= snap.Apps[i].App {
				t.Fatalf("%d apps: snapshot not sorted by app: %q before %q", n, snap.Apps[i-1].App, snap.Apps[i].App)
			}
		}
		restored := NewSampler(src)
		if err := restored.RestoreSnapshot(snap); err != nil {
			t.Fatal(err)
		}
		for i, a := range apps {
			src.counters[a] = machine.Counters{Instructions: float64(5000 * (i + 1)), LLCAccesses: 400, LLCMisses: 30}
		}
		want, got := make([]Rates, n), make([]Rates, n)
		if k, err := orig.SampleAll(apps, 3*time.Second, want); k >= 0 || err != nil {
			t.Fatalf("%d apps: original stopped at %d: %v", n, k, err)
		}
		if k, err := restored.SampleAll(apps, 3*time.Second, got); k >= 0 || err != nil {
			t.Fatalf("%d apps: restored sampler stopped at %d: %v", n, k, err)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Errorf("%d apps, %s: restored window measures %+v, original %+v", n, apps[i], got[i], want[i])
			}
		}
	}
}

func TestRestoreSnapshotRejectsDuplicateApp(t *testing.T) {
	snap := SamplerSnapshot{Apps: []AppWindow{{App: "a", At: 1}, {App: "b", At: 1}, {App: "a", At: 2}}}
	err := NewSampler(&fakeSource{}).RestoreSnapshot(snap)
	if err == nil || !strings.Contains(err.Error(), `"a"`) {
		t.Fatalf("duplicate app must be rejected by name, got %v", err)
	}
}
