package policies

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/membw"
	"repro/internal/workloads"
)

func mix(t *testing.T, kind workloads.MixKind, n int) []machine.AppModel {
	t.Helper()
	models, err := workloads.Mix(machine.DefaultConfig(), kind, n)
	if err != nil {
		t.Fatal(err)
	}
	return models
}

func TestPolicyNames(t *testing.T) {
	if (EQ{}).Name() != "EQ" || (None{}).Name() != "None" || (ST{}).Name() != "ST" {
		t.Error("static policy names wrong")
	}
	if CoPart(1).Name() != "CoPart" {
		t.Error("CoPart name")
	}
	if CATOnly(1).Name() != "CAT-only" || MBAOnly(1).Name() != "MBA-only" {
		t.Error("frozen-axis policy names wrong")
	}
	if (&Dynamic{}).Name() != "CoPart" {
		t.Error("empty label should default to CoPart")
	}
}

func TestEQProducesValidResult(t *testing.T) {
	cfg := machine.DefaultConfig()
	res, err := EQ{}.Run(cfg, mix(t, workloads.HLLC, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Slowdowns) != 4 || len(res.Allocs) != 4 || len(res.Names) != 4 {
		t.Fatalf("result shape: %+v", res)
	}
	for i, s := range res.Slowdowns {
		if s < 1-1e-6 {
			t.Errorf("slowdown[%d]=%v below 1", i, s)
		}
	}
	if res.Unfairness < 0 {
		t.Errorf("unfairness %v", res.Unfairness)
	}
	if res.Throughput <= 0 {
		t.Errorf("throughput %v", res.Throughput)
	}
	// EQ allocations: equal MBA, near-equal ways.
	for _, a := range res.Allocs {
		if a.MBALevel != res.Allocs[0].MBALevel {
			t.Error("EQ should assign one MBA level to all")
		}
		if w := a.Ways(); w < 2 || w > 3 {
			t.Errorf("EQ ways %d for 4 apps on 11 ways", w)
		}
	}
}

func TestNoneSharesEverything(t *testing.T) {
	cfg := machine.DefaultConfig()
	res, err := None{}.Run(cfg, mix(t, workloads.HBoth, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Allocs {
		if a.CBM != cfg.FullMask() || a.MBALevel != 100 {
			t.Errorf("None should leave full overlapping allocations, got %+v", a)
		}
	}
}

// TestUnpartitionedLeadBySide locates, per sensitive Fig 12 mix, the
// side on which None (no partitioning) beats EQ: EQ's allocation is
// scored with one of its two halves lifted to None's — its CBMs at MBA
// 100, or the full mask at its MBA level — as a ratio to EQ's own
// unfairness. On the LLC mixes sharing the cache alone recovers None's
// lead (full mask ≤ 0.1× EQ) and on the BW mixes lifting the throttle
// alone does (MBA 100 ≤ 0.2× EQ): the substrate's leads sit on the
// cache side and the bandwidth side respectively, not on one of them.
func TestUnpartitionedLeadBySide(t *testing.T) {
	cfg := machine.DefaultConfig()
	for _, kind := range workloads.MixKinds() {
		if kind == workloads.IS {
			continue
		}
		models := mix(t, kind, 4)
		eq, err := EQ{}.Run(cfg, models)
		if err != nil {
			t.Fatal(err)
		}
		hybrid := func(lift func(a *machine.Alloc)) float64 {
			allocs := slices.Clone(eq.Allocs)
			for i := range allocs {
				lift(&allocs[i])
			}
			res, err := evaluate(cfg, models, allocs)
			if err != nil {
				t.Fatal(err)
			}
			return res.Unfairness / eq.Unfairness
		}
		mba := hybrid(func(a *machine.Alloc) { a.MBALevel = membw.MaxLevel })
		llc := hybrid(func(a *machine.Alloc) { a.CBM = cfg.FullMask() })
		t.Logf("%v: EQ's CBMs at MBA 100 %.3f× EQ, full mask at EQ's MBA %.3f× EQ", kind, mba, llc)
		switch kind {
		case workloads.HLLC, workloads.MLLC:
			if !(llc <= 0.1) {
				t.Errorf("%v: full mask at EQ's MBA reads %.3f× EQ, want ≤ 0.1×", kind, llc)
			}
		case workloads.HBW, workloads.MBW:
			if !(mba <= 0.2) {
				t.Errorf("%v: EQ's CBMs at MBA 100 reads %.3f× EQ, want ≤ 0.2×", kind, mba)
			}
		}
	}
}

func TestSTBeatsEQ(t *testing.T) {
	cfg := machine.DefaultConfig()
	for _, kind := range []workloads.MixKind{workloads.HLLC, workloads.HBW, workloads.HBoth} {
		models := mix(t, kind, 4)
		eq, err := EQ{}.Run(cfg, models)
		if err != nil {
			t.Fatal(err)
		}
		st, err := ST{}.Run(cfg, models)
		if err != nil {
			t.Fatal(err)
		}
		if st.Unfairness > eq.Unfairness+1e-9 {
			t.Errorf("%v: ST (an oracle) must not lose to EQ: %.4f vs %.4f",
				kind, st.Unfairness, eq.Unfairness)
		}
	}
}

func TestSTValidatesGrid(t *testing.T) {
	cfg := machine.DefaultConfig()
	if _, err := (ST{MBAGrid: []int{15}}).Run(cfg, mix(t, workloads.HLLC, 4)); err == nil {
		t.Error("invalid grid level should error")
	}
	if _, err := (ST{}).Run(cfg, nil); err == nil {
		t.Error("empty mix should error")
	}
}

func TestCoPartBeatsEQOnSensitiveMixes(t *testing.T) {
	cfg := machine.DefaultConfig()
	for _, kind := range []workloads.MixKind{workloads.HLLC, workloads.HBW, workloads.HBoth} {
		models := mix(t, kind, 4)
		eq, err := EQ{}.Run(cfg, models)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := CoPart(7).Run(cfg, models)
		if err != nil {
			t.Fatal(err)
		}
		if cp.Unfairness >= eq.Unfairness {
			t.Errorf("%v: CoPart %.4f should beat EQ %.4f", kind, cp.Unfairness, eq.Unfairness)
		}
	}
}

func TestCATOnlyKeepsEqualMBA(t *testing.T) {
	cfg := machine.DefaultConfig()
	res, err := CATOnly(3).Run(cfg, mix(t, workloads.HLLC, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Allocs {
		if a.MBALevel != res.Allocs[0].MBALevel {
			t.Errorf("CAT-only must keep MBA equal: %+v", res.Allocs)
		}
	}
}

func TestMBAOnlyKeepsEqualWays(t *testing.T) {
	cfg := machine.DefaultConfig()
	res, err := MBAOnly(3).Run(cfg, mix(t, workloads.HBW, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Allocs {
		if w := a.Ways(); w < 2 || w > 3 {
			t.Errorf("MBA-only must keep ways at the equal split: %d", w)
		}
	}
}

func TestCoPartBeatsCATOnlyOnBWMix(t *testing.T) {
	// Figure 12's key comparison: CAT-only cannot help bandwidth-starved
	// mixes; the coordinated controller can.
	cfg := machine.DefaultConfig()
	models := mix(t, workloads.HBW, 4)
	cat, err := CATOnly(5).Run(cfg, models)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := CoPart(5).Run(cfg, models)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Unfairness > cat.Unfairness+1e-9 {
		t.Errorf("CoPart %.4f should not lose to CAT-only %.4f on H-BW",
			cp.Unfairness, cat.Unfairness)
	}
}

func TestCoPartBeatsMBAOnlyOnLLCMix(t *testing.T) {
	cfg := machine.DefaultConfig()
	models := mix(t, workloads.HLLC, 4)
	mba, err := MBAOnly(5).Run(cfg, models)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := CoPart(5).Run(cfg, models)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Unfairness > mba.Unfairness+1e-9 {
		t.Errorf("CoPart %.4f should not lose to MBA-only %.4f on H-LLC",
			cp.Unfairness, mba.Unfairness)
	}
}

func TestDynamicExploreTime(t *testing.T) {
	cfg := machine.DefaultConfig()
	d, err := CoPart(11).ExploreTime(cfg, mix(t, workloads.HBoth, 4))
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 || d > 100*time.Millisecond {
		t.Errorf("implausible exploration time %v", d)
	}
}

func TestPoliciesRejectInvalidConfig(t *testing.T) {
	bad := machine.DefaultConfig()
	bad.Cores = 0
	models := mix(t, workloads.HLLC, 4)
	for _, p := range []Policy{EQ{}, ST{}, None{}, UCP{}, CoPart(1)} {
		if _, err := p.Run(bad, models); err == nil {
			t.Errorf("%s: invalid config should error", p.Name())
		}
	}
	if _, err := CoPart(1).ExploreTime(bad, models); err == nil {
		t.Error("ExploreTime with invalid config should error")
	}
}

func TestPoliciesRejectOversizedMix(t *testing.T) {
	cfg := machine.DefaultConfig()
	// 12 apps exceed the 11 CLOS-minimum ways.
	var models []machine.AppModel
	base := mix(t, workloads.HLLC, 4)
	for i := 0; i < 3; i++ {
		for _, m := range base {
			m.Name = m.Name + string(rune('a'+i))
			m.Cores = 1
			models = append(models, m)
		}
	}
	if _, err := (EQ{}).Run(cfg, models); err == nil {
		t.Error("EQ with more apps than ways should error")
	}
	if _, err := (UCP{}).Run(cfg, models); err == nil {
		t.Error("UCP with more apps than ways should error")
	}
}

func TestDynamicDeterministicWithSeed(t *testing.T) {
	cfg := machine.DefaultConfig()
	models := mix(t, workloads.MBoth, 4)
	a, err := CoPart(99).Run(cfg, models)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CoPart(99).Run(cfg, models)
	if err != nil {
		t.Fatal(err)
	}
	if a.Unfairness != b.Unfairness {
		t.Errorf("same seed diverged: %v vs %v", a.Unfairness, b.Unfairness)
	}
	for i := range a.Allocs {
		if a.Allocs[i] != b.Allocs[i] {
			t.Errorf("alloc %d diverged", i)
		}
	}
}

// TestSTOracleGolden pins the oracle itself: the state ST chooses and the
// bits of its unfairness, for the seven four-app mixes on the default MBA
// grid and one six-app mix on the three-level grid. Figures 12–14 and 17
// normalise against these, so a solver or search edit that moves any of
// them — a changed float operation order, a different tie-break among
// equal minima — must show up here, not as a silently shifted baseline.
// Values recorded before sessions became table-backed (PR 12's parent).
func TestSTOracleGolden(t *testing.T) {
	golden := []struct {
		kind       workloads.MixKind
		apps       int
		unfairness uint64 // math.Float64bits
		allocs     []machine.Alloc
	}{
		{workloads.HLLC, 4, 0x3d34535d74e6e5eb, []machine.Alloc{{CBM: 0xf, MBALevel: 100}, {CBM: 0x70, MBALevel: 100}, {CBM: 0x180, MBALevel: 100}, {CBM: 0x600, MBALevel: 100}}},
		{workloads.HBW, 4, 0x3f7583bf5176a544, []machine.Alloc{{CBM: 0x1, MBALevel: 100}, {CBM: 0x2, MBALevel: 100}, {CBM: 0x4, MBALevel: 100}, {CBM: 0x7f8, MBALevel: 10}}},
		{workloads.HBoth, 4, 0x3fb66375a8dbfebd, []machine.Alloc{{CBM: 0x1f, MBALevel: 60}, {CBM: 0xe0, MBALevel: 100}, {CBM: 0x300, MBALevel: 100}, {CBM: 0x400, MBALevel: 10}}},
		{workloads.MLLC, 4, 0x3d32a9194479946b, []machine.Alloc{{CBM: 0xf, MBALevel: 100}, {CBM: 0x70, MBALevel: 100}, {CBM: 0x80, MBALevel: 100}, {CBM: 0x700, MBALevel: 100}}},
		{workloads.MBW, 4, 0x3f66cb65cddbd41f, []machine.Alloc{{CBM: 0x1, MBALevel: 100}, {CBM: 0x2, MBALevel: 100}, {CBM: 0x4, MBALevel: 10}, {CBM: 0x7f8, MBALevel: 10}}},
		{workloads.MBoth, 4, 0x3fb4afe3d391c494, []machine.Alloc{{CBM: 0x1f, MBALevel: 100}, {CBM: 0x1e0, MBALevel: 100}, {CBM: 0x200, MBALevel: 10}, {CBM: 0x400, MBALevel: 10}}},
		{workloads.IS, 4, 0x0, []machine.Alloc{{CBM: 0x1, MBALevel: 100}, {CBM: 0x2, MBALevel: 100}, {CBM: 0x4, MBALevel: 100}, {CBM: 0x7f8, MBALevel: 100}}},
		{workloads.HBoth, 6, 0x3fb8f430d882c215, []machine.Alloc{{CBM: 0x7, MBALevel: 100}, {CBM: 0x8, MBALevel: 100}, {CBM: 0x10, MBALevel: 100}, {CBM: 0x1e0, MBALevel: 100}, {CBM: 0x200, MBALevel: 100}, {CBM: 0x400, MBALevel: 10}}},
	}
	cfg := machine.DefaultConfig()
	for _, g := range golden {
		res, err := ST{}.Run(cfg, mix(t, g.kind, g.apps))
		if err != nil {
			t.Fatalf("%v/%d: %v", g.kind, g.apps, err)
		}
		if got := math.Float64bits(res.Unfairness); got != g.unfairness {
			t.Errorf("%v/%d: unfairness bits %#x (%v), golden %#x (%v)",
				g.kind, g.apps, got, res.Unfairness, g.unfairness, math.Float64frombits(g.unfairness))
		}
		if !reflect.DeepEqual(res.Allocs, g.allocs) {
			t.Errorf("%v/%d: chose %+v, golden %+v", g.kind, g.apps, res.Allocs, g.allocs)
		}
	}
}

// TestSTAllocationBudget pins that an ST run's allocations are set-up
// only: the best state is copied into preallocated slices, so the count
// cannot grow with the number of improvements the enumeration order
// happens to produce.
func TestSTAllocationBudget(t *testing.T) {
	cfg := machine.DefaultConfig()
	const budget = 100 // measured 60–70; per-improvement copies made it 81–240 depending on the mix
	for _, kind := range workloads.MixKinds() {
		models := mix(t, kind, 4)
		avg := testing.AllocsPerRun(1, func() {
			if _, err := (ST{}).Run(cfg, models); err != nil {
				t.Fatal(err)
			}
		})
		if avg > budget {
			t.Errorf("%v: ST.Run allocates %.0f times, budget %d", kind, avg, budget)
		}
	}
}
