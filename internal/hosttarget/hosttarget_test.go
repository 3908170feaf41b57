package hosttarget

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/machine"
	"repro/internal/resctrl"
	"repro/internal/workloads"
)

// newHarness wires a Host to the machine simulator through the simulated
// resctrl tree: counters come from the machine, schemata writes are
// pushed into the machine on every Step — the full file-level actuation
// path a real deployment uses.
func newHarness(t *testing.T) (*Host, *machine.Machine, *resctrl.Client) {
	t.Helper()
	cfg := machine.DefaultConfig()
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	client, err := resctrl.NewSimTree(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(Options{
		Client:   client,
		Counters: m,
		Hardware: cfg,
		Step: func(d time.Duration) error {
			if err := resctrl.ApplyToMachine(client, m); err != nil {
				return err
			}
			return m.Step(d)
		},
		Now: m.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	return h, m, client
}

func TestNewValidation(t *testing.T) {
	cfg := machine.DefaultConfig()
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	client, err := resctrl.NewSimTree(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{Counters: m, Hardware: cfg}); err == nil {
		t.Error("nil client should error")
	}
	if _, err := New(Options{Client: client, Hardware: cfg}); err == nil {
		t.Error("nil counters should error")
	}
	bad := cfg
	bad.LLCWays = 9 // disagrees with the tree's 11-way cbm_mask
	if _, err := New(Options{Client: client, Counters: m, Hardware: bad}); err == nil {
		t.Error("way-count mismatch should error")
	}
	badCfg := cfg
	badCfg.Cores = 0
	if _, err := New(Options{Client: client, Counters: m, Hardware: badCfg}); err == nil {
		t.Error("invalid hardware should error")
	}
}

func TestAddRemoveApp(t *testing.T) {
	h, m, client := newHarness(t)
	spec, err := workloads.ByName(m.Config(), "WN")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddApp(spec.Model); err != nil {
		t.Fatal(err)
	}
	if err := h.AddApp("WN", []int{101, 102}); err != nil {
		t.Fatal(err)
	}
	if err := h.AddApp("WN", nil); err == nil {
		t.Error("duplicate app should error")
	}
	pids, err := client.Tasks("WN")
	if err != nil {
		t.Fatal(err)
	}
	if len(pids) != 2 || pids[0] != 101 {
		t.Errorf("tasks %v", pids)
	}
	if got := h.Apps(); len(got) != 1 || got[0] != "WN" {
		t.Errorf("Apps()=%v", got)
	}
	if err := h.RemoveApp("WN"); err != nil {
		t.Fatal(err)
	}
	if err := h.RemoveApp("WN"); err == nil {
		t.Error("removing an unknown app should error")
	}
	groups, _ := client.Groups()
	if len(groups) != 0 {
		t.Errorf("group should be deleted, have %v", groups)
	}
}

func TestAddAppAdoptsExistingGroup(t *testing.T) {
	h, _, client := newHarness(t)
	if err := client.CreateGroup("pre"); err != nil {
		t.Fatal(err)
	}
	if err := h.AddApp("pre", nil); err != nil {
		t.Errorf("adopting an existing group should work: %v", err)
	}
}

func TestSetAllocationWritesSchemata(t *testing.T) {
	h, _, client := newHarness(t)
	if err := h.AddApp("app", nil); err != nil {
		t.Fatal(err)
	}
	if err := h.SetAllocation("app", machine.Alloc{CBM: 0x7, MBALevel: 40}); err != nil {
		t.Fatal(err)
	}
	s, err := client.ReadSchemata("app")
	if err != nil {
		t.Fatal(err)
	}
	if s.L3[0] != 0x7 || s.MB[0] != 40 {
		t.Errorf("schemata %+v", s)
	}
	if err := h.SetAllocation("app", machine.Alloc{CBM: 0b101, MBALevel: 40}); err == nil {
		t.Error("non-contiguous CBM should be rejected by the tree")
	}
	if err := h.SetAllocation("app", machine.Alloc{CBM: 1, MBALevel: 15}); err == nil {
		t.Error("invalid MBA level should be rejected")
	}
}

// TestFaultInjectedHost wraps a Host in the fault injector, as a
// deployment soak would: counter reads and schemata writes inside the
// burst windows fail with ErrInjected, a certain probabilistic read
// fault fails too, and once the windows close both pass through and the
// schemata reach the tree.
func TestFaultInjectedHost(t *testing.T) {
	h, m, client := newHarness(t)
	spec, err := workloads.ByName(m.Config(), "WN")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddApp(spec.Model); err != nil {
		t.Fatal(err)
	}
	if err := h.AddApp("WN", nil); err != nil {
		t.Fatal(err)
	}
	burst := []faultinject.Window{{From: time.Second, To: 2 * time.Second}}
	tgt, err := faultinject.WrapTarget(h, faultinject.Scenario{ReadBursts: burst, WriteBursts: burst}, nil)
	if err != nil {
		t.Fatal(err)
	}
	alloc := machine.Alloc{CBM: 0x7, MBALevel: 50}
	if err := tgt.Step(time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := tgt.ReadCounters("WN"); !errors.Is(err, faultinject.ErrInjected) {
		t.Errorf("read inside the burst must fail with ErrInjected, got %v", err)
	}
	if err := tgt.SetAllocation("WN", alloc); !errors.Is(err, faultinject.ErrInjected) {
		t.Errorf("write inside the burst must fail with ErrInjected, got %v", err)
	}
	if err := tgt.Step(time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := tgt.ReadCounters("WN"); err != nil {
		t.Errorf("read after the burst must pass through: %v", err)
	}
	if err := tgt.SetAllocation("WN", alloc); err != nil {
		t.Errorf("write after the burst must pass through: %v", err)
	}
	if s, err := client.ReadSchemata("WN"); err != nil || s.L3[0] != 0x7 || s.MB[0] != 50 {
		t.Errorf("schemata %+v, %v: the write did not reach the tree", s, err)
	}
	if st := tgt.Stats(); st.ReadErrors != 1 || st.WriteErrors != 1 {
		t.Errorf("stats: %+v", st)
	}

	certain, err := faultinject.WrapTarget(h, faultinject.Scenario{ReadErrProb: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := certain.ReadCounters("WN"); !errors.Is(err, faultinject.ErrInjected) {
		t.Errorf("a certain read fault must fail with ErrInjected, got %v", err)
	}
}

func TestStepValidation(t *testing.T) {
	h, _, _ := newHarness(t)
	if err := h.Step(0); err == nil {
		t.Error("zero step should error")
	}
}

func TestDefaultClock(t *testing.T) {
	cfg := machine.DefaultConfig()
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	client, err := resctrl.NewSimTree(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(Options{Client: client, Counters: m, Hardware: cfg})
	if err != nil {
		t.Fatal(err)
	}
	before := h.Now()
	if err := h.Step(time.Millisecond); err != nil { // real sleep
		t.Fatal(err)
	}
	if h.Now() <= before {
		t.Error("wall clock did not advance")
	}
}

// TestManagerOverHostTarget is the end-to-end deployment-path test: the
// CoPart manager drives the host target, every allocation flows through
// schemata files in the resctrl tree, and the "hardware" behind the tree
// is the machine simulator. The controller must converge exactly as it
// does against the machine directly.
func TestManagerOverHostTarget(t *testing.T) {
	h, m, _ := newHarness(t)
	cfg := m.Config()
	models, err := workloads.Mix(cfg, workloads.HLLC, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range models {
		if err := m.AddApp(model); err != nil {
			t.Fatal(err)
		}
		if err := h.AddApp(model.Name, nil); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := workloads.StreamMissRates(m)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := core.NewManager(h, core.DefaultParams(), ref,
		core.Envelope{LoWay: 0, Ways: cfg.LLCWays}, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	var last core.PeriodReport
	mgr.OnPeriod = func(r core.PeriodReport) { last = r }
	if err := mgr.Profile(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		done, err := mgr.ExploreStep()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	if mgr.Phase() != core.PhaseIdle {
		t.Fatalf("controller did not converge over the host target (phase %v)", mgr.Phase())
	}
	if last.Unfairness > 0.05 {
		t.Errorf("H-LLC over the host target should converge to high fairness, got %.4f",
			last.Unfairness)
	}
	// The machine's allocations must mirror the schemata the manager
	// wrote (applied on each Step).
	for _, model := range models {
		alloc, err := m.Allocation(model.Name)
		if err != nil {
			t.Fatal(err)
		}
		if alloc.CBM == cfg.FullMask() {
			t.Errorf("%s still holds the boot-time full mask; schemata were not applied",
				model.Name)
		}
	}
}

// rewriteInfo overwrites one info/ file of a sim tree and reopens the
// client, simulating hardware with different advertised limits.
func rewriteInfo(t *testing.T, dir, rel, content string) *resctrl.Client {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, rel), []byte(content+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	client, err := resctrl.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return client
}

func TestNewValidatesMBALimits(t *testing.T) {
	cfg := machine.DefaultConfig()
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := resctrl.NewSimTree(dir, cfg); err != nil {
		t.Fatal(err)
	}

	// Granularity 30 does not divide the controller's 10 % steps.
	client := rewriteInfo(t, dir, filepath.Join("info", "MB", "bandwidth_gran"), "30")
	if _, err := New(Options{Client: client, Counters: m, Hardware: cfg}); err == nil {
		t.Error("incompatible MBA granularity should be rejected")
	}
	client = rewriteInfo(t, dir, filepath.Join("info", "MB", "bandwidth_gran"), "10")

	// A minimum bandwidth above the controller's lowest level means the
	// controller would emit levels the tree rejects.
	client = rewriteInfo(t, dir, filepath.Join("info", "MB", "min_bandwidth"), "20")
	if _, err := New(Options{Client: client, Counters: m, Hardware: cfg}); err == nil {
		t.Error("min bandwidth above controller minimum should be rejected")
	}
	client = rewriteInfo(t, dir, filepath.Join("info", "MB", "min_bandwidth"), "10")

	// Granularity 5 divides 10 and min 10 matches: accepted.
	client = rewriteInfo(t, dir, filepath.Join("info", "MB", "bandwidth_gran"), "5")
	if _, err := New(Options{Client: client, Counters: m, Hardware: cfg}); err != nil {
		t.Errorf("finer tree granularity should be accepted: %v", err)
	}
}

func TestResetRestoresDefaults(t *testing.T) {
	h, _, client := newHarness(t)
	for _, name := range []string{"a", "b"} {
		if err := h.AddApp(name, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.SetAllocation("a", machine.Alloc{CBM: 0x3, MBALevel: 20}); err != nil {
		t.Fatal(err)
	}
	if err := h.SetAllocation("b", machine.Alloc{CBM: 0x1c, MBALevel: 50}); err != nil {
		t.Fatal(err)
	}
	if err := h.Reset(); err != nil {
		t.Fatal(err)
	}
	full := client.Info().CBMMask
	for _, name := range []string{"a", "b"} {
		s, err := client.ReadSchemata(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.L3[0] != full || s.MB[0] != 100 {
			t.Errorf("%s schemata after Reset: %+v, want full mask %x and 100%%", name, s, full)
		}
	}
	// The groups survive a Reset; the apps stay registered.
	if got := h.Apps(); len(got) != 2 {
		t.Errorf("Apps()=%v after Reset", got)
	}
}

func TestCloseDeletesGroups(t *testing.T) {
	h, _, client := newHarness(t)
	if err := h.AddApp("a", nil); err != nil {
		t.Fatal(err)
	}
	if err := h.SetAllocation("a", machine.Alloc{CBM: 0x3, MBALevel: 20}); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	groups, err := client.Groups()
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 0 {
		t.Errorf("groups after Close: %v", groups)
	}
	if got := h.Apps(); len(got) != 0 {
		t.Errorf("Apps()=%v after Close", got)
	}
}

// TestAppsGeneration: the count the manager's membership check relies on
// moves with every change to the registered set — AddApp, RemoveApp,
// Close — and stands still on a rejected duplicate or an unknown app,
// which leave the set as it was.
func TestAppsGeneration(t *testing.T) {
	h, _, _ := newHarness(t)
	steps := []struct {
		name  string
		op    func() error
		fails bool
		moves bool
	}{
		{"add a", func() error { return h.AddApp("a", nil) }, false, true},
		{"add b", func() error { return h.AddApp("b", nil) }, false, true},
		{"duplicate a", func() error { return h.AddApp("a", nil) }, true, false},
		{"remove unknown", func() error { return h.RemoveApp("zz") }, true, false},
		{"remove a", func() error { return h.RemoveApp("a") }, false, true},
		{"close", h.Close, false, true},
	}
	for _, s := range steps {
		gen, apps := h.AppsGeneration(), h.Apps()
		if err := s.op(); (err != nil) != s.fails {
			t.Fatalf("%s: err=%v, want failure=%v", s.name, err, s.fails)
		}
		if moved := h.AppsGeneration() != gen; moved != s.moves {
			t.Errorf("%s: generation %d → %d, want moved=%v", s.name, gen, h.AppsGeneration(), s.moves)
		}
		if changed := fmt.Sprint(h.Apps()) != fmt.Sprint(apps); changed && !s.moves {
			t.Errorf("%s: Apps %v → %v with the generation unmoved", s.name, apps, h.Apps())
		}
	}
	if got := h.AppsInto(make([]string, 3)); len(got) != 0 {
		t.Errorf("AppsInto after Close = %v", got)
	}
}
