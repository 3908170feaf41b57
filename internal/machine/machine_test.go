package machine

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/membw"
)

// Test models spanning the paper's four sensitivity classes.

func llcSensitiveModel() AppModel {
	return AppModel{
		Name: "llc", Cores: 4, CPIBase: 0.9, AccPerInstr: 0.009,
		Hot:        []WSComponent{{Bytes: 8 << 20, Weight: 0.999}},
		StreamFrac: 0.001,
	}
}

func bwSensitiveModel() AppModel {
	return AppModel{
		Name: "bw", Cores: 4, CPIBase: 0.8, AccPerInstr: 0.04,
		Hot:        []WSComponent{{Bytes: 1 << 20, Weight: 0.1}},
		StreamFrac: 0.9,
		MLP:        10,
	}
}

func dualSensitiveModel() AppModel {
	return AppModel{
		Name: "dual", Cores: 4, CPIBase: 0.8, AccPerInstr: 0.02,
		Hot:        []WSComponent{{Bytes: 10 << 20, Weight: 0.55}},
		StreamFrac: 0.45,
		MLP:        4,
	}
}

func insensitiveModel() AppModel {
	return AppModel{
		Name: "ins", Cores: 4, CPIBase: 0.6, AccPerInstr: 1e-6,
		StreamFrac: 1,
	}
}

func newMachine(t *testing.T) *Machine {
	t.Helper()
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func alloc(ways, mba int) Alloc {
	return Alloc{CBM: (uint64(1) << ways) - 1, MBALevel: mba}
}

func TestDefaultConfigMatchesTable1(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Cores != 16 {
		t.Errorf("cores=%d want 16", cfg.Cores)
	}
	if cfg.LLCWays != 11 {
		t.Errorf("ways=%d want 11", cfg.LLCWays)
	}
	if cfg.WayBytes*float64(cfg.LLCWays) != 22<<20 {
		t.Errorf("LLC capacity %v want 22MB", cfg.WayBytes*float64(cfg.LLCWays))
	}
	if cfg.FreqHz != 2.1e9 {
		t.Errorf("freq=%v want 2.1GHz", cfg.FreqHz)
	}
	if cfg.BW.TotalBandwidth != 28e9 {
		t.Errorf("bandwidth=%v want 28GB/s", cfg.BW.TotalBandwidth)
	}
}

func TestConfigValidateRejects(t *testing.T) {
	bad := DefaultConfig()
	bad.Cores = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero cores should error")
	}
	bad = DefaultConfig()
	bad.WritebackFactor = 0.5
	if err := bad.Validate(); err == nil {
		t.Error("writeback < 1 should error")
	}
	bad = DefaultConfig()
	bad.MissCostCycles = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero miss cost should error")
	}
}

func TestModelValidate(t *testing.T) {
	if err := llcSensitiveModel().Validate(); err != nil {
		t.Error(err)
	}
	bad := llcSensitiveModel()
	bad.StreamFrac = 0.5 // weights no longer sum to 1
	if err := bad.Validate(); err == nil {
		t.Error("weight sum != 1 should error")
	}
	bad = llcSensitiveModel()
	bad.Name = ""
	if err := bad.Validate(); err == nil {
		t.Error("empty name should error")
	}
	bad = llcSensitiveModel()
	bad.Cores = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero cores should error")
	}
	bad = llcSensitiveModel()
	bad.Hot = []WSComponent{{Bytes: -1, Weight: 0.999}}
	if err := bad.Validate(); err == nil {
		t.Error("negative component size should error")
	}
}

func TestMissRatioCurveShape(t *testing.T) {
	m := llcSensitiveModel()
	// Monotone non-increasing in capacity.
	prev := 2.0
	for c := 0.0; c <= 24<<20; c += 1 << 20 {
		mr := m.MissRatio(c)
		if mr > prev+1e-12 {
			t.Fatalf("miss ratio not monotone at %v: %v > %v", c, mr, prev)
		}
		if mr < 0 || mr > 1 {
			t.Fatalf("miss ratio %v out of range", mr)
		}
		prev = mr
	}
	// Fits at 8MB: only the stream fraction misses.
	if mr := m.MissRatio(8 << 20); math.Abs(mr-0.001) > 1e-9 {
		t.Errorf("fitting working set should leave only stream misses, got %v", mr)
	}
	// Negative capacity clamps.
	if mr := m.MissRatio(-5); mr != 1.0 {
		t.Errorf("zero capacity miss ratio %v want 1", mr)
	}
}

func TestFootprint(t *testing.T) {
	m := dualSensitiveModel()
	if m.Footprint() != 10<<20 {
		t.Errorf("footprint %v want 10MB", m.Footprint())
	}
}

func TestAddRemoveApps(t *testing.T) {
	m := newMachine(t)
	if err := m.AddApp(llcSensitiveModel()); err != nil {
		t.Fatal(err)
	}
	if err := m.AddApp(llcSensitiveModel()); err == nil {
		t.Error("duplicate app name should error")
	}
	bw := bwSensitiveModel()
	if err := m.AddApp(bw); err != nil {
		t.Fatal(err)
	}
	if got := m.Apps(); len(got) != 2 || got[0] != "llc" || got[1] != "bw" {
		t.Errorf("Apps()=%v", got)
	}
	if err := m.RemoveApp("llc"); err != nil {
		t.Fatal(err)
	}
	if err := m.RemoveApp("llc"); err == nil {
		t.Error("double remove should error")
	}
	if err := m.RemoveApp("nope"); err == nil {
		t.Error("unknown app should error")
	}
	if got := m.Apps(); len(got) != 1 || got[0] != "bw" {
		t.Errorf("Apps() after remove=%v", got)
	}
}

// TestRemoveAppMatchesNeverLaunched: removal deletes the slot, so a
// machine that launched an app and removed it behaves bit for bit like
// one that never launched it — on the linear-scan lookup path and on
// the name-table path past smallAppScan, with noise, and with a later
// arrival taking the retired slot.
func TestRemoveAppMatchesNeverLaunched(t *testing.T) {
	for _, n := range []int{5, smallAppScan + 2} {
		models := launchableTestModels(n)
		for i := range models {
			models[i].Cores = 1
		}
		cfg := DefaultConfig()
		cfg.MeasurementNoise = 0.03
		removed, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		twin, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, model := range models {
			if err := removed.AddApp(model); err != nil {
				t.Fatal(err)
			}
			if i != 3 {
				if err := twin.AddApp(model); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := removed.RemoveApp(models[3].Name); err != nil {
			t.Fatal(err)
		}
		late := launchableTestModels(1)[0]
		late.Name, late.Cores = "late", 1
		for _, m := range []*Machine{removed, twin} {
			if err := m.AddApp(late); err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 3; step++ {
				if err := m.SetAllocation(models[n-1].Name, alloc(step+1, 100-10*step)); err != nil {
					t.Fatal(err)
				}
				if err := m.Step(time.Second); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got, want := removed.Apps(), twin.Apps(); !slices.Equal(got, want) {
			t.Fatalf("n=%d: Apps %v, want %v", n, got, want)
		}
		for _, name := range twin.Apps() {
			c1, err1 := removed.ReadCounters(name)
			c2, err2 := twin.ReadCounters(name)
			o1, err3 := removed.Occupancy(name)
			o2, err4 := twin.Occupancy(name)
			if err := errors.Join(err1, err2, err3, err4); err != nil {
				t.Fatal(err)
			}
			if c1 != c2 || math.Float64bits(o1) != math.Float64bits(o2) {
				t.Errorf("n=%d: %s counters %+v occupancy %v, never-launched twin %+v %v", n, name, c1, o1, c2, o2)
			}
		}
		if s1, s2 := removed.Snapshot(), twin.Snapshot(); !reflect.DeepEqual(s1.Apps, s2.Apps) {
			t.Errorf("n=%d: live app snapshots differ from the twin's", n)
		}
	}
}

// TestChurnKeepsAppTableLive: a daemon's admit/evict churn leaves the
// app table at its live size, so per-period walks never grow with the
// apps served, and each arrival reuses the slot the last departure
// retired.
func TestChurnKeepsAppTableLive(t *testing.T) {
	m := newMachine(t)
	models := launchableTestModels(3)
	for _, model := range models {
		if err := m.AddApp(model); err != nil {
			t.Fatal(err)
		}
	}
	guest := launchableTestModels(4)[3]
	for c := 0; c < 1000; c++ {
		guest.Name = fmt.Sprintf("guest-%d", c)
		if err := m.AddApp(guest); err != nil {
			t.Fatal(err)
		}
		if err := m.Step(time.Second); err != nil {
			t.Fatal(err)
		}
		if err := m.RemoveApp(guest.Name); err != nil {
			t.Fatal(err)
		}
	}
	if len(m.apps) != 3 || cap(m.apps) > 4 {
		t.Fatalf("after 1000 cycles the app table holds %d slots (cap %d), want 3 (cap ≤ 4)", len(m.apps), cap(m.apps))
	}
	if len(m.departed) != 1000 || !m.NameUsed("guest-0") {
		t.Fatalf("%d departed names recorded, want 1000", len(m.departed))
	}
}

func TestAddAppCoreLimit(t *testing.T) {
	m := newMachine(t)
	big := llcSensitiveModel()
	big.Cores = 16
	if err := m.AddApp(big); err != nil {
		t.Fatal(err)
	}
	other := bwSensitiveModel()
	if err := m.AddApp(other); err == nil {
		t.Error("core oversubscription should error")
	}
}

func TestSetAllocationValidation(t *testing.T) {
	m := newMachine(t)
	if err := m.AddApp(llcSensitiveModel()); err != nil {
		t.Fatal(err)
	}
	if err := m.SetAllocation("llc", Alloc{CBM: 0, MBALevel: 100}); err == nil {
		t.Error("zero CBM should error")
	}
	if err := m.SetAllocation("llc", Alloc{CBM: 1 << 12, MBALevel: 100}); err == nil {
		t.Error("out-of-range CBM should error")
	}
	if err := m.SetAllocation("llc", Alloc{CBM: 0b101, MBALevel: 100}); err == nil {
		t.Error("non-contiguous CBM should error")
	}
	if err := m.SetAllocation("llc", Alloc{CBM: 0b11, MBALevel: 15}); err == nil {
		t.Error("invalid MBA level should error")
	}
	if err := m.SetAllocation("llc", Alloc{CBM: 0b1110, MBALevel: 50}); err != nil {
		t.Errorf("valid allocation rejected: %v", err)
	}
	got, err := m.Allocation("llc")
	if err != nil {
		t.Fatal(err)
	}
	if got.CBM != 0b1110 || got.MBALevel != 50 || got.Ways() != 3 {
		t.Errorf("Allocation=%+v", got)
	}
}

func TestLLCSensitivityShape(t *testing.T) {
	// Figure 1 shape: performance rises steeply with ways, flat in MBA.
	m := newMachine(t)
	model := llcSensitiveModel()
	full, err := m.SoloPerf(model)
	if err != nil {
		t.Fatal(err)
	}
	oneWay, err := m.SoloPerfAt(model, alloc(1, 100))
	if err != nil {
		t.Fatal(err)
	}
	if oneWay.IPS > 0.85*full.IPS {
		t.Errorf("LLC-sensitive app should lose ≥15%% at 1 way: %v vs %v", oneWay.IPS, full.IPS)
	}
	lowBW, err := m.SoloPerfAt(model, alloc(11, 10))
	if err != nil {
		t.Fatal(err)
	}
	if lowBW.IPS < 0.99*full.IPS {
		t.Errorf("LLC-sensitive app should be <1%% sensitive to MBA at full ways: %v vs %v",
			lowBW.IPS, full.IPS)
	}
	// 4 ways (8MB) fit the working set: ≥90% of full performance.
	fourWays, err := m.SoloPerfAt(model, alloc(4, 100))
	if err != nil {
		t.Fatal(err)
	}
	if fourWays.IPS < 0.9*full.IPS {
		t.Errorf("4 ways should reach 90%% for an 8MB working set: %v vs %v", fourWays.IPS, full.IPS)
	}
}

func TestBWSensitivityShape(t *testing.T) {
	// Figure 2 shape: performance tracks MBA, flat in ways.
	m := newMachine(t)
	model := bwSensitiveModel()
	full, err := m.SoloPerf(model)
	if err != nil {
		t.Fatal(err)
	}
	lowBW, err := m.SoloPerfAt(model, alloc(11, 10))
	if err != nil {
		t.Fatal(err)
	}
	if lowBW.IPS > 0.85*full.IPS {
		t.Errorf("BW-sensitive app should lose ≥15%% at MBA 10: %v vs %v", lowBW.IPS, full.IPS)
	}
	oneWay, err := m.SoloPerfAt(model, alloc(1, 100))
	if err != nil {
		t.Fatal(err)
	}
	if oneWay.IPS < 0.85*full.IPS {
		t.Errorf("BW-sensitive app should be nearly insensitive to ways: %v vs %v", oneWay.IPS, full.IPS)
	}
}

func TestDualSensitivityShape(t *testing.T) {
	// Figure 3 shape: sensitive to both axes.
	m := newMachine(t)
	model := dualSensitiveModel()
	full, err := m.SoloPerf(model)
	if err != nil {
		t.Fatal(err)
	}
	oneWay, _ := m.SoloPerfAt(model, alloc(1, 100))
	lowBW, _ := m.SoloPerfAt(model, alloc(11, 10))
	if oneWay.IPS > 0.85*full.IPS {
		t.Errorf("dual app should be LLC-sensitive: %v vs %v", oneWay.IPS, full.IPS)
	}
	if lowBW.IPS > 0.85*full.IPS {
		t.Errorf("dual app should be BW-sensitive: %v vs %v", lowBW.IPS, full.IPS)
	}
}

func TestInsensitiveShape(t *testing.T) {
	m := newMachine(t)
	model := insensitiveModel()
	full, err := m.SoloPerf(model)
	if err != nil {
		t.Fatal(err)
	}
	worst, err := m.SoloPerfAt(model, alloc(1, 10))
	if err != nil {
		t.Fatal(err)
	}
	if worst.IPS < 0.99*full.IPS {
		t.Errorf("insensitive app should lose <1%% at minimum resources: %v vs %v", worst.IPS, full.IPS)
	}
}

func TestConsolidationInterference(t *testing.T) {
	// Two heavy streamers sharing the machine without partitioning run
	// slower than either alone (congestion + shared budget).
	m := newMachine(t)
	a := bwSensitiveModel()
	b := bwSensitiveModel()
	b.Name = "bw2"
	if err := m.AddApp(a); err != nil {
		t.Fatal(err)
	}
	if err := m.AddApp(b); err != nil {
		t.Fatal(err)
	}
	solo, err := m.SoloPerf(a)
	if err != nil {
		t.Fatal(err)
	}
	perfs, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range perfs {
		if p.IPS >= solo.IPS {
			t.Errorf("app %d should suffer interference: %v vs solo %v", i, p.IPS, solo.IPS)
		}
	}
}

func TestExclusivePartitionProtectsCapacity(t *testing.T) {
	// An LLC-sensitive app co-running with a streamer: exclusive ways
	// restore most of its solo performance vs. full overlap.
	m := newMachine(t)
	llc := llcSensitiveModel()
	bw := bwSensitiveModel()
	if err := m.AddApp(llc); err != nil {
		t.Fatal(err)
	}
	if err := m.AddApp(bw); err != nil {
		t.Fatal(err)
	}
	sharedPerfs, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	// Partition: llc gets ways 0-5, bw gets 6-10.
	if err := m.SetAllocation("llc", Alloc{CBM: 0b00000111111, MBALevel: 100}); err != nil {
		t.Fatal(err)
	}
	if err := m.SetAllocation("bw", Alloc{CBM: 0b11111000000, MBALevel: 100}); err != nil {
		t.Fatal(err)
	}
	partPerfs, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if partPerfs[0].IPS <= sharedPerfs[0].IPS {
		t.Errorf("partitioning should protect the LLC-sensitive app: %v vs %v",
			partPerfs[0].IPS, sharedPerfs[0].IPS)
	}
}

func TestStepAccumulatesCounters(t *testing.T) {
	m := newMachine(t)
	if err := m.AddApp(llcSensitiveModel()); err != nil {
		t.Fatal(err)
	}
	if err := m.Step(time.Second); err != nil {
		t.Fatal(err)
	}
	c1, err := m.ReadCounters("llc")
	if err != nil {
		t.Fatal(err)
	}
	if c1.Instructions <= 0 || c1.LLCAccesses <= 0 {
		t.Errorf("counters should advance: %+v", c1)
	}
	if err := m.Step(time.Second); err != nil {
		t.Fatal(err)
	}
	c2, _ := m.ReadCounters("llc")
	if c2.Instructions <= c1.Instructions {
		t.Error("counters must be cumulative")
	}
	if m.Now() != 2*time.Second {
		t.Errorf("Now()=%v want 2s", m.Now())
	}
	if err := m.Step(0); err == nil {
		t.Error("zero step should error")
	}
}

func TestStepRatesMatchSolve(t *testing.T) {
	m := newMachine(t)
	if err := m.AddApp(bwSensitiveModel()); err != nil {
		t.Fatal(err)
	}
	perfs, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Step(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	c, _ := m.ReadCounters("bw")
	if math.Abs(c.Instructions-2*perfs[0].IPS) > 1e-6*c.Instructions {
		t.Errorf("instructions %v want %v", c.Instructions, 2*perfs[0].IPS)
	}
	if math.Abs(c.LLCMisses-2*perfs[0].MissRate) > 1e-6*math.Max(c.LLCMisses, 1) {
		t.Errorf("misses %v want %v", c.LLCMisses, 2*perfs[0].MissRate)
	}
}

func TestSolveForValidation(t *testing.T) {
	m := newMachine(t)
	if _, err := m.SolveFor([]AppModel{llcSensitiveModel()}, nil); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := m.SolveFor(
		[]AppModel{llcSensitiveModel()},
		[]Alloc{{CBM: 0, MBALevel: 100}},
	); err == nil {
		t.Error("zero CBM should error")
	}
	if _, err := m.SolveFor(
		[]AppModel{llcSensitiveModel()},
		[]Alloc{{CBM: 1, MBALevel: 13}},
	); err == nil {
		t.Error("bad MBA should error")
	}
	got, err := m.SolveFor(nil, nil)
	if err != nil || got != nil {
		t.Errorf("empty solve: %v, %v", got, err)
	}
}

func TestCounterAccessErrors(t *testing.T) {
	m := newMachine(t)
	if _, err := m.ReadCounters("ghost"); err == nil {
		t.Error("unknown app should error")
	}
	if _, err := m.Allocation("ghost"); err == nil {
		t.Error("unknown app should error")
	}
	if _, err := m.Model("ghost"); err == nil {
		t.Error("unknown app should error")
	}
}

// Property: solo performance is monotone non-decreasing in both allocated
// ways and MBA level — more resources never hurt in the model.
func TestMonotonePerformanceProperty(t *testing.T) {
	m := newMachine(t)
	models := []AppModel{
		llcSensitiveModel(), bwSensitiveModel(), dualSensitiveModel(), insensitiveModel(),
	}
	f := func(modelIdx, waysRaw, mbaRaw uint8) bool {
		model := models[int(modelIdx)%len(models)]
		ways := int(waysRaw)%10 + 1 // 1..10, compare to ways+1
		mba := membw.ClampLevel(int(mbaRaw)%90 + 10)
		if mba > 90 {
			mba = 90
		}
		base, err := m.SoloPerfAt(model, alloc(ways, mba))
		if err != nil {
			return false
		}
		moreWays, err := m.SoloPerfAt(model, alloc(ways+1, mba))
		if err != nil {
			return false
		}
		moreBW, err := m.SoloPerfAt(model, alloc(ways, mba+10))
		if err != nil {
			return false
		}
		const eps = 1e-9
		return moreWays.IPS >= base.IPS*(1-eps) && moreBW.IPS >= base.IPS*(1-eps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: miss ratio is within [0,1] and monotone in capacity for
// arbitrary two-component models.
func TestMissRatioProperty(t *testing.T) {
	f := func(s1, s2, w1Raw uint16) bool {
		w1 := float64(w1Raw%90+5) / 100 // 0.05..0.94
		m := AppModel{
			Name: "p", Cores: 1, CPIBase: 1, AccPerInstr: 0.01,
			Hot: []WSComponent{
				{Bytes: float64(s1%64+1) * (1 << 20), Weight: w1},
				{Bytes: float64(s2%64+1) * (1 << 20), Weight: 0.95 - w1},
			},
			StreamFrac: 0.05,
		}
		if err := m.Validate(); err != nil {
			return false
		}
		prev := 1.1
		for c := 0.0; c <= 70<<20; c += 1 << 20 {
			mr := m.MissRatio(c)
			if mr < 0 || mr > 1 || mr > prev+1e-12 {
				return false
			}
			prev = mr
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAssignContiguousWays(t *testing.T) {
	masks, err := AssignContiguousWays([]int{5, 3, 2, 1}, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{0b00000011111, 0b00011100000, 0b01100000000, 0b10000000000}
	for i := range want {
		if masks[i] != want[i] {
			t.Errorf("mask[%d]=%#b want %#b", i, masks[i], want[i])
		}
	}
	// Masks are disjoint.
	var union uint64
	for _, m := range masks {
		if union&m != 0 {
			t.Error("masks overlap")
		}
		union |= m
	}
	if _, err := AssignContiguousWays([]int{0, 1}, 0, 11); err == nil {
		t.Error("zero ways should error")
	}
	if _, err := AssignContiguousWays([]int{6, 6}, 0, 11); err == nil {
		t.Error("oversubscription should error")
	}
	if _, err := AssignContiguousWays([]int{1}, -1, 11); err == nil {
		t.Error("negative lo should error")
	}
}

func TestAssignContiguousWaysWindow(t *testing.T) {
	masks, err := AssignContiguousWays([]int{2, 2}, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if masks[0] != 0b00110000 || masks[1] != 0b11000000 {
		t.Errorf("windowed masks %#b %#b", masks[0], masks[1])
	}
}

func TestWayCounts(t *testing.T) {
	got := WayCounts([]uint64{0b111, 0b11000})
	if got[0] != 3 || got[1] != 2 {
		t.Errorf("WayCounts=%v", got)
	}
}

func TestEqualSplit(t *testing.T) {
	got, err := EqualSplit(11, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{3, 3, 3, 2}
	sum := 0
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("EqualSplit=%v want %v", got, want)
		}
		sum += got[i]
	}
	if sum != 11 {
		t.Errorf("split sums to %d", sum)
	}
	if _, err := EqualSplit(3, 4); err == nil {
		t.Error("more apps than ways should error")
	}
	if _, err := EqualSplit(11, 0); err == nil {
		t.Error("zero apps should error")
	}
}
