package fairness

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestSlowdown(t *testing.T) {
	tests := []struct {
		name         string
		ipsFull, ips float64
		want         float64
		wantErr      bool
	}{
		{"no degradation", 100, 100, 1.0, false},
		{"2x slowdown", 200, 100, 2.0, false},
		{"speedup clamps nothing", 100, 200, 0.5, false},
		{"zero ips", 100, 0, 0, true},
		{"negative ips", 100, -1, 0, true},
		{"negative full", -1, 100, 0, true},
		{"zero full is zero slowdown", 0, 100, 0, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Slowdown(tt.ipsFull, tt.ips)
			if (err != nil) != tt.wantErr {
				t.Fatalf("Slowdown(%v,%v) err=%v wantErr=%v", tt.ipsFull, tt.ips, err, tt.wantErr)
			}
			if err == nil && !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Slowdown(%v,%v)=%v want %v", tt.ipsFull, tt.ips, got, tt.want)
			}
		})
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	mu, err := Mean(xs)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(mu, 5, 1e-12) {
		t.Errorf("Mean=%v want 5", mu)
	}
	sd, err := StdDev(xs)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(sd, 2, 1e-12) {
		t.Errorf("StdDev=%v want 2 (population form)", sd)
	}
}

func TestMeanEmpty(t *testing.T) {
	if _, err := Mean(nil); err != ErrNoSamples {
		t.Errorf("Mean(nil) err=%v want ErrNoSamples", err)
	}
	if _, err := StdDev(nil); err != ErrNoSamples {
		t.Errorf("StdDev(nil) err=%v want ErrNoSamples", err)
	}
	if _, err := Unfairness(nil); err != ErrNoSamples {
		t.Errorf("Unfairness(nil) err=%v want ErrNoSamples", err)
	}
	if _, err := GeoMean(nil); err != ErrNoSamples {
		t.Errorf("GeoMean(nil) err=%v want ErrNoSamples", err)
	}
}

func TestUnfairnessEqualSlowdowns(t *testing.T) {
	u, err := Unfairness([]float64{1.7, 1.7, 1.7, 1.7})
	if err != nil {
		t.Fatal(err)
	}
	if u != 0 {
		t.Errorf("equal slowdowns should be perfectly fair, got %v", u)
	}
}

func TestUnfairnessSingleApp(t *testing.T) {
	u, err := Unfairness([]float64{3.2})
	if err != nil {
		t.Fatal(err)
	}
	if u != 0 {
		t.Errorf("single app unfairness=%v want 0", u)
	}
}

func TestUnfairnessKnownValue(t *testing.T) {
	// slowdowns 1 and 3: μ=2, σ=1 → unfairness 0.5.
	u, err := Unfairness([]float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(u, 0.5, 1e-12) {
		t.Errorf("Unfairness=%v want 0.5", u)
	}
}

func TestUnfairnessRejectsInvalid(t *testing.T) {
	for _, bad := range [][]float64{
		{1, 0},
		{1, -2},
		{1, math.NaN()},
		{1, math.Inf(1)},
	} {
		if _, err := Unfairness(bad); err == nil {
			t.Errorf("Unfairness(%v) expected error", bad)
		}
	}
}

func TestGeoMean(t *testing.T) {
	g, err := GeoMean([]float64{1, 4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(g, 4, 1e-9) {
		t.Errorf("GeoMean=%v want 4", g)
	}
	if _, err := GeoMean([]float64{1, 0}); err == nil {
		t.Error("GeoMean with zero should error")
	}
}

func TestImprovement(t *testing.T) {
	imp, err := Improvement(1.0, 0.427)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(imp, 57.3, 1e-9) {
		t.Errorf("Improvement=%v want 57.3", imp)
	}
	if _, err := Improvement(0, 1); err == nil {
		t.Error("Improvement with zero base should error")
	}
}

// Property: unfairness is scale-invariant — multiplying all slowdowns by a
// positive constant leaves σ/μ unchanged.
func TestUnfairnessScaleInvariantProperty(t *testing.T) {
	f := func(raw []uint16, scaleRaw uint16) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, r := range raw {
			xs = append(xs, 1+float64(r)/1000) // in [1, ~66.5]
		}
		scale := 0.5 + float64(scaleRaw)/65535*10
		scaled := make([]float64, len(xs))
		for i, x := range xs {
			scaled[i] = x * scale
		}
		u1, err1 := Unfairness(xs)
		u2, err2 := Unfairness(scaled)
		if err1 != nil || err2 != nil {
			return false
		}
		return almostEqual(u1, u2, 1e-9*(1+u1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: unfairness is non-negative and zero iff all slowdowns equal.
func TestUnfairnessNonNegativeProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		allEqual := true
		for _, r := range raw {
			xs = append(xs, 1+float64(r))
			if r != raw[0] {
				allEqual = false
			}
		}
		u, err := Unfairness(xs)
		if err != nil {
			return false
		}
		if u < 0 {
			return false
		}
		if allEqual && u > 1e-12 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: geometric mean lies between min and max.
func TestGeoMeanBoundsProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, r := range raw {
			v := 1 + float64(r)
			xs = append(xs, v)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		g, err := GeoMean(xs)
		if err != nil {
			return false
		}
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
