package membw

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const GB = 1e9

func testArbiter(t *testing.T) *Arbiter {
	t.Helper()
	a, err := New(Config{
		TotalBandwidth: 28 * GB,
		PerCoreCap:     9 * GB,
		CongestionK:    0.5,
		CongestionP:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestValidateLevel(t *testing.T) {
	for _, l := range []int{10, 20, 50, 100} {
		if err := ValidateLevel(l); err != nil {
			t.Errorf("level %d should be valid: %v", l, err)
		}
	}
	for _, l := range []int{0, 5, 15, 110, -10} {
		if err := ValidateLevel(l); err == nil {
			t.Errorf("level %d should be invalid", l)
		}
	}
}

func TestClampLevel(t *testing.T) {
	tests := []struct{ in, want int }{
		{0, 10}, {-5, 10}, {10, 10}, {14, 10}, {15, 20},
		{55, 60}, {99, 100}, {100, 100}, {150, 100},
	}
	for _, tt := range tests {
		if got := ClampLevel(tt.in); got != tt.want {
			t.Errorf("ClampLevel(%d)=%d want %d", tt.in, got, tt.want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if _, err := New(Config{TotalBandwidth: 0, PerCoreCap: 1}); err == nil {
		t.Error("zero total bandwidth should error")
	}
	if _, err := New(Config{TotalBandwidth: 1, PerCoreCap: 0}); err == nil {
		t.Error("zero per-core cap should error")
	}
	if _, err := New(Config{TotalBandwidth: 1, PerCoreCap: 1, CongestionK: -1}); err == nil {
		t.Error("negative congestion k should error")
	}
}

func TestDefaultCurveMonotone(t *testing.T) {
	prev := 0.0
	for l := MinLevel; l <= MaxLevel; l += Granularity {
		f := DefaultCurve(l)
		if f <= prev {
			t.Errorf("curve not increasing at level %d: %v <= %v", l, f, prev)
		}
		prev = f
	}
	if got := DefaultCurve(100); math.Abs(got-1) > 1e-9 {
		t.Errorf("curve(100)=%v want 1", got)
	}
}

func TestCap(t *testing.T) {
	a := testArbiter(t)
	c100, err := a.Cap(100, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c100-36*GB) > 1e-3 {
		t.Errorf("cap(100,4)=%v want 36GB", c100)
	}
	c10, _ := a.Cap(10, 4)
	if c10 >= c100/5 {
		t.Errorf("cap(10) should be well below a fifth of cap(100): %v vs %v", c10, c100)
	}
	if _, err := a.Cap(15, 4); err == nil {
		t.Error("invalid level should error")
	}
	if _, err := a.Cap(100, 0); err == nil {
		t.Error("zero cores should error")
	}
}

func TestAllocateEmpty(t *testing.T) {
	a := testArbiter(t)
	r, err := a.Allocate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stretch != 1 || r.Utilization != 0 {
		t.Errorf("empty allocation %+v", r)
	}
}

func TestAllocateUnderloaded(t *testing.T) {
	a := testArbiter(t)
	demands := []Demand{
		{Bytes: 2 * GB, MBALevel: 100, Cores: 4},
		{Bytes: 3 * GB, MBALevel: 100, Cores: 4},
	}
	r, err := a.Allocate(demands)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Grants[0]-2*GB) > 1e-3 || math.Abs(r.Grants[1]-3*GB) > 1e-3 {
		t.Errorf("underloaded demands should be fully granted: %v", r.Grants)
	}
}

func TestAllocateMBACapBinds(t *testing.T) {
	a := testArbiter(t)
	// One app demanding 20 GB/s but throttled to MBA 10 on 4 cores.
	r, err := a.Allocate([]Demand{{Bytes: 20 * GB, MBALevel: 10, Cores: 4}})
	if err != nil {
		t.Fatal(err)
	}
	cap, _ := a.Cap(10, 4)
	if math.Abs(r.Grants[0]-cap) > 1e-3 {
		t.Errorf("grant %v should equal MBA cap %v", r.Grants[0], cap)
	}
}

func TestAllocateSharedBudgetBinds(t *testing.T) {
	a := testArbiter(t)
	// Two identical heavy streams at full MBA: they split the budget.
	demands := []Demand{
		{Bytes: 30 * GB, MBALevel: 100, Cores: 4},
		{Bytes: 30 * GB, MBALevel: 100, Cores: 4},
	}
	r, err := a.Allocate(demands)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Grants[0]-14*GB) > 1e-3 || math.Abs(r.Grants[1]-14*GB) > 1e-3 {
		t.Errorf("equal heavy demands should split evenly: %v", r.Grants)
	}
	if math.Abs(r.Utilization-1) > 1e-9 {
		t.Errorf("utilization %v want 1", r.Utilization)
	}
	if r.Stretch <= 1 {
		t.Errorf("saturated bus should stretch latency, got %v", r.Stretch)
	}
}

func TestAllocateMaxMinRedistribution(t *testing.T) {
	a := testArbiter(t)
	// A light app takes its small demand; the heavies split the rest.
	demands := []Demand{
		{Bytes: 4 * GB, MBALevel: 100, Cores: 4},
		{Bytes: 30 * GB, MBALevel: 100, Cores: 4},
		{Bytes: 30 * GB, MBALevel: 100, Cores: 4},
	}
	r, err := a.Allocate(demands)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Grants[0]-4*GB) > 1e-3 {
		t.Errorf("light demand should be fully satisfied: %v", r.Grants[0])
	}
	if math.Abs(r.Grants[1]-12*GB) > 1e-3 || math.Abs(r.Grants[2]-12*GB) > 1e-3 {
		t.Errorf("heavies should split the remaining 24GB: %v", r.Grants)
	}
}

func TestAllocateThrottledAppFreesBandwidth(t *testing.T) {
	a := testArbiter(t)
	// Throttling one heavy app leaves more for the other — the mechanism
	// CoPart exploits when reclaiming bandwidth from a Supply app.
	free, err := a.Allocate([]Demand{
		{Bytes: 30 * GB, MBALevel: 100, Cores: 4},
		{Bytes: 30 * GB, MBALevel: 100, Cores: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	throttled, err := a.Allocate([]Demand{
		{Bytes: 30 * GB, MBALevel: 20, Cores: 4},
		{Bytes: 30 * GB, MBALevel: 100, Cores: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if throttled.Grants[1] <= free.Grants[1] {
		t.Errorf("throttling app 0 should increase app 1's grant: %v vs %v",
			throttled.Grants[1], free.Grants[1])
	}
}

func TestAllocateInvalidDemand(t *testing.T) {
	a := testArbiter(t)
	if _, err := a.Allocate([]Demand{{Bytes: -1, MBALevel: 100, Cores: 1}}); err == nil {
		t.Error("negative demand should error")
	}
	if _, err := a.Allocate([]Demand{{Bytes: math.NaN(), MBALevel: 100, Cores: 1}}); err == nil {
		t.Error("NaN demand should error")
	}
	if _, err := a.Allocate([]Demand{{Bytes: 1, MBALevel: 17, Cores: 1}}); err == nil {
		t.Error("invalid level should error")
	}
}

// Properties of the water-filling allocation.
func TestAllocateProperties(t *testing.T) {
	a := testArbiter(t)
	f := func(raw []uint32, levelsRaw []uint8) bool {
		n := len(raw)
		if n == 0 || n > 12 {
			return true
		}
		demands := make([]Demand, n)
		for i := range demands {
			level := 10
			if i < len(levelsRaw) {
				level = ClampLevel(int(levelsRaw[i]%10+1) * 10)
			}
			demands[i] = Demand{
				Bytes:    float64(raw[i]%40) * GB / 2, // 0..19.5 GB/s
				MBALevel: level,
				Cores:    int(raw[i]%4) + 1,
			}
		}
		r, err := a.Allocate(demands)
		if err != nil {
			return false
		}
		sum := 0.0
		for i, g := range r.Grants {
			// grant ≤ demand, grant ≤ cap, grant ≥ 0
			if g < -1e-6 || g > demands[i].Bytes+1e-3 || g > r.Caps[i]+1e-3 {
				return false
			}
			sum += g
		}
		// total ≤ budget
		if sum > a.TotalBandwidth()+1e-3 {
			return false
		}
		// stretch ≥ 1
		return r.Stretch >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: allocation is work-conserving — if total clipped demand is
// below budget, everyone gets min(demand, cap) exactly.
func TestAllocateWorkConservingProperty(t *testing.T) {
	a := testArbiter(t)
	f := func(raw []uint16) bool {
		n := len(raw)
		if n == 0 || n > 8 {
			return true
		}
		demands := make([]Demand, n)
		for i := range demands {
			demands[i] = Demand{
				Bytes:    float64(raw[i]%3) * GB, // ≤ 2 GB/s each, ≤ 16 total < 28
				MBALevel: 100,
				Cores:    4,
			}
		}
		r, err := a.Allocate(demands)
		if err != nil {
			return false
		}
		for i, g := range r.Grants {
			want := math.Min(demands[i].Bytes, r.Caps[i])
			if math.Abs(g-want) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestRhoPowMatchesMathPow pins that raising the utilization by
// multiplication is invisible: for every exponent that takes that path,
// and its neighbours that do not, rhoPow equals math.Pow bit for bit on
// the endpoints, around the fallback threshold, deep in the subnormal
// range, and on a million draws each spread uniformly over [0, 1] and
// over the exponents down to the threshold.
func TestRhoPowMatchesMathPow(t *testing.T) {
	draws := 1_000_000
	if testing.Short() {
		draws = 50_000
	}
	rng := rand.New(rand.NewSource(16))
	for _, p := range []float64{0, 0.5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 2.5} {
		a, err := New(Config{TotalBandwidth: 28 * GB, PerCoreCap: 9 * GB, CongestionK: 0.5, CongestionP: p})
		if err != nil {
			t.Fatal(err)
		}
		if direct := p >= 1 && p <= maxIntP && p == math.Trunc(p); (a.intP != 0) != direct {
			t.Fatalf("p=%v: intP %d, want multiplication path %v", p, a.intP, direct)
		}
		check := func(rho float64) {
			if got, want := a.rhoPow(rho), math.Pow(rho, p); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("p=%v rho=%v (%#x): rhoPow %v (%#x), math.Pow %v (%#x)", p, rho, math.Float64bits(rho),
					got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		for _, rho := range []float64{0, 1, 0.5, 0x1p-200, 1e-77, math.SmallestNonzeroFloat64,
			minDirectRho, math.Nextafter(minDirectRho, 0), math.Nextafter(minDirectRho, 1), math.Nextafter(1, 0)} {
			check(rho)
		}
		for i := 0; i < draws; i++ {
			check(rng.Float64())
			check(math.Ldexp(0.5+rng.Float64()/2, -rng.Intn(140)))
		}
	}
}
