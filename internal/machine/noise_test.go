package machine

import (
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"strings"
	"testing"
	"time"
)

func noisyConfig(seed int64) Config {
	cfg := DefaultConfig()
	cfg.MeasurementNoise = 0.05
	cfg.NoiseSeed = seed
	return cfg
}

func TestNoiseValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MeasurementNoise = -0.1
	if err := cfg.Validate(); err == nil {
		t.Error("negative noise should error")
	}
	cfg.MeasurementNoise = 0.6
	if err := cfg.Validate(); err == nil {
		t.Error("noise ≥ 0.5 should error")
	}
}

func TestNoiseOffByDefault(t *testing.T) {
	m1, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.AddApp(llcSensitiveModel()); err != nil {
		t.Fatal(err)
	}
	perfs, err := m1.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Step(time.Second); err != nil {
		t.Fatal(err)
	}
	c, _ := m1.ReadCounters("llc")
	if math.Abs(c.Instructions-perfs[0].IPS) > 1e-6*perfs[0].IPS {
		t.Error("noiseless counters must match the solved rates exactly")
	}
}

func TestNoiseJittersCounters(t *testing.T) {
	m, err := New(noisyConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddApp(llcSensitiveModel()); err != nil {
		t.Fatal(err)
	}
	perfs, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	var prev float64
	jittered := false
	for i := 0; i < 10; i++ {
		if err := m.Step(time.Second); err != nil {
			t.Fatal(err)
		}
		c, _ := m.ReadCounters("llc")
		delta := c.Instructions - prev
		prev = c.Instructions
		// Counters stay monotone and within the clamp band.
		if delta < 0.5*perfs[0].IPS || delta > 1.5*perfs[0].IPS {
			t.Fatalf("period %d: delta %.3g outside the clamp band of %.3g", i, delta, perfs[0].IPS)
		}
		if math.Abs(delta-perfs[0].IPS) > 1e-3*perfs[0].IPS {
			jittered = true
		}
	}
	if !jittered {
		t.Error("noise enabled but counters never deviated")
	}
}

func TestNoiseDeterministicPerSeed(t *testing.T) {
	read := func(seed int64) float64 {
		m, err := New(noisyConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AddApp(llcSensitiveModel()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if err := m.Step(time.Second); err != nil {
				t.Fatal(err)
			}
		}
		c, _ := m.ReadCounters("llc")
		return c.Instructions
	}
	if read(7) != read(7) {
		t.Error("same seed must reproduce identical counters")
	}
	if read(7) == read(8) {
		t.Error("different seeds should differ")
	}
}

// TestNoiseStreamMoments checks that the one-word jitter stream still
// delivers what Config.MeasurementNoise promises — independent N(1, σ)
// factor pairs, clamped to [0.5, 1.5] — whatever source backs it.
func TestNoiseStreamMoments(t *testing.T) {
	const n = 100_000
	draw := func(sigma float64, visit func(perf, miss float64)) {
		cfg := noisyConfig(17)
		cfg.MeasurementNoise = sigma
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			visit(m.noiseFactors())
		}
	}

	const sigma = 0.02 // the clamps sit 25σ out: never engaged
	var sp, sm, spp, smm, spm float64
	draw(sigma, func(p, q float64) {
		p, q = p-1, q-1
		sp, sm, spp, smm, spm = sp+p, sm+q, spp+p*p, smm+q*q, spm+p*q
	})
	for name, s := range map[string][2]float64{"perf": {sp, spp}, "miss": {sm, smm}} {
		mean := s[0] / n
		sd := math.Sqrt(s[1]/n - mean*mean)
		if math.Abs(mean) > 3*sigma/math.Sqrt(n) {
			t.Errorf("%s factor mean = 1%+.2e, want within 3σ/√n = %.2e", name, mean, 3*sigma/math.Sqrt(n))
		}
		if math.Abs(sd/sigma-1) > 0.02 {
			t.Errorf("%s factor σ = %.5f, want %.2f within 2%%", name, sd, sigma)
		}
	}
	cov := spm/n - (sp/n)*(sm/n)
	if r := cov / (sigma * sigma); math.Abs(r) > 3/math.Sqrt(n) {
		t.Errorf("perf/miss correlation = %.4f, want ≈ 0 (within %.4f)", r, 3/math.Sqrt(n))
	}

	lo, hi := 0, 0
	draw(0.49, func(p, q float64) {
		for _, f := range [2]float64{p, q} {
			switch {
			case f < 0.5 || f > 1.5:
				t.Fatalf("factor %v outside the clamp band", f)
			case f == 0.5:
				lo++
			case f == 1.5:
				hi++
			}
		}
	})
	if lo == 0 || hi == 0 {
		t.Errorf("σ=0.49 hit the low clamp %d times and the high clamp %d times, want both", lo, hi)
	}
}

// counterBits is a Counters value as raw float bits, for exact comparison.
func counterBits(c Counters) [4]uint64 {
	return [4]uint64{math.Float64bits(c.Instructions), math.Float64bits(c.LLCAccesses),
		math.Float64bits(c.LLCMisses), math.Float64bits(c.MemoryBytes)}
}

// TestNoiseSnapshotMidStream: a snapshot taken anywhere in the jitter
// stream records one state word, survives JSON, and restores in O(1) to
// a machine whose every later counter is bit-equal to the original's.
func TestNoiseSnapshotMidStream(t *testing.T) {
	step := func(m *Machine, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := m.Step(time.Second); err != nil {
				t.Fatal(err)
			}
		}
	}
	roundTrip := func(s Snapshot, edit func([]byte) []byte) Snapshot {
		t.Helper()
		blob, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(blob, []byte(`"noiseState":`)) {
			t.Fatalf("snapshot omits the stream state word: %s", blob)
		}
		var out Snapshot
		if err := json.Unmarshal(edit(blob), &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	keep := func(b []byte) []byte { return b }

	for _, k := range []int{0, 1, 1000} {
		m := snapMachine(t, 0.03)
		step(m, k)
		r, err := RestoreSnapshot(roundTrip(m.Snapshot(), keep))
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		for i := 0; i < 200; i++ {
			step(m, 1)
			step(r, 1)
			for _, app := range []string{"a", "b"} {
				co, _ := m.ReadCounters(app)
				cr, _ := r.ReadCounters(app)
				if counterBits(co) != counterBits(cr) {
					t.Fatalf("k=%d step %d: %s counters diverged after restore:\n  orig %+v\n  rest %+v", k, i, app, co, cr)
				}
			}
		}
	}

	noisy := snapMachine(t, 0.03)
	step(noisy, 3)

	// A snapshot of the retired math/rand stream (it recorded a draw
	// count) cannot be resumed and must say so.
	legacy := roundTrip(noisy.Snapshot(), func(b []byte) []byte {
		return bytes.Replace(b, []byte(`"noiseState":`), []byte(`"noiseCalls":6,"noiseState":`), 1)
	})
	if _, err := RestoreSnapshot(legacy); err == nil || !strings.Contains(err.Error(), "math/rand") {
		t.Errorf("legacy noiseCalls snapshot: err = %v, want a rejection naming the retired math/rand stream", err)
	}

	// A mid-stream state word under a noise-free configuration is a
	// mismatched blob.
	s := noisy.Snapshot()
	s.Config.MeasurementNoise = 0
	if _, err := RestoreSnapshot(s); err == nil || !strings.Contains(err.Error(), "noise is disabled") {
		t.Errorf("recorded stream state with noise disabled: err = %v, want a rejection", err)
	}

	// Noise-free snapshots that predate the state word keep restoring.
	quiet := snapMachine(t, 0)
	step(quiet, 3)
	old := roundTrip(quiet.Snapshot(), func(b []byte) []byte {
		return regexp.MustCompile(`"noiseState":\d+,`).ReplaceAll(b, nil)
	})
	r, err := RestoreSnapshot(old)
	if err != nil {
		t.Fatalf("noise-free snapshot without a state word: %v", err)
	}
	if got, want := r.Snapshot().NoiseState, quiet.Snapshot().NoiseState; got != want {
		t.Errorf("restored noise-free machine sits at stream word %#x, want the seed position %#x", got, want)
	}
}
