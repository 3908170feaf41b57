package workloads

import (
	"math"
	"testing"

	"repro/internal/machine"
	"repro/internal/membw"
)

func testMachine(t *testing.T) *machine.Machine {
	t.Helper()
	m, err := machine.New(machine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func alloc(cfg machine.Config, ways, mba int) machine.Alloc {
	return machine.Alloc{CBM: (uint64(1) << ways) - 1, MBALevel: mba}
}

// TestByNameDoesNotAliasCatalog: the definition table is built once, so
// a caller mutating a returned model's hot set must not reach it.
func TestByNameDoesNotAliasCatalog(t *testing.T) {
	cfg := machine.DefaultConfig()
	first, err := ByName(cfg, "WN")
	if err != nil {
		t.Fatal(err)
	}
	want := first.Model.Hot[0]
	first.Model.Hot[0].Bytes *= 3
	first.Model.Hot[0].Weight = 0
	first.Model.Hot = append(first.Model.Hot, machine.WSComponent{Bytes: 1})
	again, err := ByName(cfg, "WN")
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Model.Hot) != 1 || again.Model.Hot[0] != want {
		t.Fatalf("ByName after mutating a returned hot set: %+v, want [%+v]", again.Model.Hot, want)
	}
	if names := Names(); len(names) != 11 || names[0] != "WN" {
		t.Fatalf("Names() = %v", names)
	}
}

func TestCatalogComplete(t *testing.T) {
	specs, err := Catalog(machine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 11 {
		t.Fatalf("catalog has %d benchmarks, want 11 (Table 2)", len(specs))
	}
	wantCategories := map[Category]int{
		LLCSensitive: 3, BWSensitive: 3, DualSensitive: 3, Insensitive: 2,
	}
	got := map[Category]int{}
	for _, s := range specs {
		got[s.Category]++
		if err := s.Model.Validate(); err != nil {
			t.Errorf("%s: invalid model: %v", s.Model.Name, err)
		}
		if s.Model.Cores != DefaultThreads {
			t.Errorf("%s: cores=%d want %d", s.Model.Name, s.Model.Cores, DefaultThreads)
		}
	}
	for cat, n := range wantCategories {
		if got[cat] != n {
			t.Errorf("category %v: %d benchmarks, want %d", cat, got[cat], n)
		}
	}
}

func TestNames(t *testing.T) {
	names := Names()
	if len(names) != 11 || names[0] != "WN" || names[10] != "EP" {
		t.Errorf("Names()=%v", names)
	}
}

func TestByName(t *testing.T) {
	cfg := machine.DefaultConfig()
	s, err := ByName(cfg, "CG")
	if err != nil {
		t.Fatal(err)
	}
	if s.Model.Name != "CG" || s.Category != BWSensitive {
		t.Errorf("ByName(CG)=%+v", s)
	}
	if _, err := ByName(cfg, "nope"); err == nil {
		t.Error("unknown name should error")
	}
}

// TestTable2Calibration asserts that each model's solo full-resource LLC
// access and miss rates land within 12 % of the calibration targets
// (congestion and arbitration introduce small deviations from the
// closed-form calibration).
func TestTable2Calibration(t *testing.T) {
	m := testMachine(t)
	specs, err := Catalog(m.Config())
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string][2]float64{
		"WN": {6.91e7, 2.58e4}, "WS": {4.32e7, 9.12e5}, "RT": {3.76e7, 2.16e4},
		"OC": {5.19e7, 4.88e7}, "CG": {3.10e8, 1.12e8}, "FT": {2.45e7, 2.00e7},
		"SP": {1.69e8, 9.21e7}, "ON": {9.49e7, 7.89e7},
		"FMM": {3.67e7, 2.08e7}, // scaled 6× from Table 2, see package doc
		"SW":  {1.08e4, 7.98e2}, "EP": {7.34e5, 1.79e4},
	}
	for _, s := range specs {
		want, ok := targets[s.Model.Name]
		if !ok {
			t.Fatalf("no target for %s", s.Model.Name)
		}
		perf, err := m.SoloPerf(s.Model)
		if err != nil {
			t.Fatalf("%s: %v", s.Model.Name, err)
		}
		if rel := math.Abs(perf.AccessRate-want[0]) / want[0]; rel > 0.12 {
			t.Errorf("%s: access rate %.3g vs Table 2 %.3g (off by %.1f%%)",
				s.Model.Name, perf.AccessRate, want[0], rel*100)
		}
		if rel := math.Abs(perf.MissRate-want[1]) / want[1]; rel > 0.12 {
			t.Errorf("%s: miss rate %.3g vs Table 2 %.3g (off by %.1f%%)",
				s.Model.Name, perf.MissRate, want[1], rel*100)
		}
	}
}

// TestPaperClassificationRules applies the paper's own §3.3 rules to every
// model and asserts the resulting class matches Table 2.
func TestPaperClassificationRules(t *testing.T) {
	m := testMachine(t)
	cfg := m.Config()
	specs, err := Catalog(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		full, err := m.SoloPerf(s.Model)
		if err != nil {
			t.Fatal(err)
		}
		oneWay, err := m.SoloPerfAt(s.Model, alloc(cfg, 1, 100))
		if err != nil {
			t.Fatal(err)
		}
		lowBW, err := m.SoloPerfAt(s.Model, alloc(cfg, cfg.LLCWays, 10))
		if err != nil {
			t.Fatal(err)
		}
		llcDrop := 1 - oneWay.IPS/full.IPS
		bwDrop := 1 - lowBW.IPS/full.IPS
		llcSens := llcDrop >= 0.15
		bwSens := bwDrop >= 0.15
		var got Category
		switch {
		case llcSens && bwSens:
			got = DualSensitive
		case llcSens:
			got = LLCSensitive
		case bwSens:
			got = BWSensitive
		case llcDrop < 0.01 && bwDrop < 0.01:
			got = Insensitive
		default:
			t.Errorf("%s: in no class (llcDrop=%.1f%% bwDrop=%.1f%%)",
				s.Model.Name, llcDrop*100, bwDrop*100)
			continue
		}
		if got != s.Category {
			t.Errorf("%s: classified %v, Table 2 says %v (llcDrop=%.1f%% bwDrop=%.1f%%)",
				s.Model.Name, got, s.Category, llcDrop*100, bwDrop*100)
		}
	}
}

// TestWaysFor90Percent reproduces the §4.1 finding that WN, WS, RT need
// 4, 3, and 2 ways to reach 90 % of full performance.
func TestWaysFor90Percent(t *testing.T) {
	m := testMachine(t)
	cfg := m.Config()
	want := map[string]int{"WN": 4, "WS": 3, "RT": 2}
	for name, wantWays := range want {
		s, err := ByName(cfg, name)
		if err != nil {
			t.Fatal(err)
		}
		full, err := m.SoloPerf(s.Model)
		if err != nil {
			t.Fatal(err)
		}
		got := cfg.LLCWays
		for w := 1; w <= cfg.LLCWays; w++ {
			perf, err := m.SoloPerfAt(s.Model, alloc(cfg, w, 100))
			if err != nil {
				t.Fatal(err)
			}
			if perf.IPS >= 0.9*full.IPS {
				got = w
				break
			}
		}
		if got != wantWays {
			t.Errorf("%s reaches 90%% at %d ways, paper says %d", name, got, wantWays)
		}
	}
}

// TestMBAFor90Percent checks the §4.1 finding that the BW-sensitive
// benchmarks need low-to-mid MBA levels (paper: OC 30, CG 20, FT 30) to
// reach 90 % of full performance. We assert the level is within ±10 of the
// paper's (the MBA throttle curve of the real part is not published).
func TestMBAFor90Percent(t *testing.T) {
	m := testMachine(t)
	cfg := m.Config()
	want := map[string]int{"OC": 30, "CG": 20, "FT": 30}
	for name, wantLevel := range want {
		s, err := ByName(cfg, name)
		if err != nil {
			t.Fatal(err)
		}
		full, err := m.SoloPerf(s.Model)
		if err != nil {
			t.Fatal(err)
		}
		got := 100
		for level := 10; level <= 100; level += 10 {
			perf, err := m.SoloPerfAt(s.Model, alloc(cfg, cfg.LLCWays, level))
			if err != nil {
				t.Fatal(err)
			}
			if perf.IPS >= 0.9*full.IPS {
				got = level
				break
			}
		}
		if got < wantLevel-10 || got > wantLevel+10 {
			t.Errorf("%s reaches 90%% at MBA %d, paper says %d (±10 accepted)",
				name, got, wantLevel)
		}
	}
}

func TestStreamSaturatesBandwidth(t *testing.T) {
	m := testMachine(t)
	cfg := m.Config()
	perf, err := m.SoloPerf(Stream(cfg))
	if err != nil {
		t.Fatal(err)
	}
	traffic := perf.MissRate * cfg.LineBytes * cfg.WritebackFactor
	if traffic < 0.95*cfg.BW.TotalBandwidth {
		t.Errorf("STREAM traffic %.3g should saturate the %.3g budget",
			traffic, cfg.BW.TotalBandwidth)
	}
}

func TestStreamMissRatesMonotone(t *testing.T) {
	m := testMachine(t)
	rates, err := StreamMissRates(m)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for level := 10; level <= 100; level += 10 {
		r, ok := rates[level]
		if !ok {
			t.Fatalf("missing level %d", level)
		}
		if r < prev {
			t.Errorf("STREAM miss rate not monotone at level %d: %v < %v", level, r, prev)
		}
		prev = r
	}
	if err := membw.ValidateLevel(10); err != nil {
		t.Fatal(err)
	}
	// Throttling must actually bite: level 10 well below level 100.
	if rates[10] > 0.5*rates[100] {
		t.Errorf("MBA 10 should throttle STREAM strongly: %v vs %v", rates[10], rates[100])
	}
}

func TestCategoryString(t *testing.T) {
	for _, c := range []Category{LLCSensitive, BWSensitive, DualSensitive, Insensitive} {
		if c.String() == "" {
			t.Errorf("empty string for %d", int(c))
		}
	}
	if Category(99).String() == "" {
		t.Error("unknown category should still render")
	}
}
