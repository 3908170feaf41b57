package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/membw"
	"repro/internal/resctrl"
	"repro/internal/workloads"
)

func TestParseMix(t *testing.T) {
	for _, k := range workloads.MixKinds() {
		got, err := parseMix(k.String())
		if err != nil || got != k {
			t.Errorf("parseMix(%s)=%v,%v", k, got, err)
		}
	}
	// Case-insensitive.
	if k, err := parseMix("h-llc"); err != nil || k != workloads.HLLC {
		t.Errorf("parseMix(h-llc)=%v,%v", k, err)
	}
	if _, err := parseMix("nope"); err == nil {
		t.Error("unknown mix should error")
	}
}

func TestRunSimulated(t *testing.T) {
	if err := run(config{mix: "H-LLC", apps: 4, duration: 30 * time.Second, seed: 1, events: true}); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithResctrlMirror(t *testing.T) {
	dir := t.TempDir()
	if err := run(config{mix: "M-BW", apps: 4, duration: 25 * time.Second, seed: 1, resctrlDir: dir}); err != nil {
		t.Fatal(err)
	}
	// The mirror must contain one group per application with parseable
	// schemata, and the shutdown path must have restored the defaults:
	// full cache mask, 100 % memory bandwidth.
	full := machine.DefaultConfig().FullMask()
	for _, app := range []string{"OC", "CG", "SW", "EP"} {
		b, err := os.ReadFile(filepath.Join(dir, app, "schemata"))
		if err != nil {
			t.Errorf("missing schemata for %s: %v", app, err)
			continue
		}
		s, err := resctrl.ParseSchemata(string(b))
		if err != nil {
			t.Errorf("unparseable schemata for %s: %v", app, err)
			continue
		}
		if s.L3[0] != full {
			t.Errorf("%s: CBM %#x after exit, want restored full mask %#x", app, s.L3[0], full)
		}
		if s.MB[0] != membw.MaxLevel {
			t.Errorf("%s: MBA %d%% after exit, want restored %d%%", app, s.MB[0], membw.MaxLevel)
		}
	}
}

// TestRunWithFaults drives the daemon through the full chaos path: a
// probabilistic error background plus a read outage and churn must not
// make run return an error once resilience is enabled.
func TestRunWithFaults(t *testing.T) {
	spec := "seed=3,readerr=0.1,writeerr=0.05,readburst=20s-25s,depart=@30s,arrive=WN@40s"
	if err := run(config{mix: "H-Both", apps: 4, duration: 70 * time.Second, seed: 1, faults: spec}); err != nil {
		t.Fatal(err)
	}
}

// TestRunWithFaultsAndMirror checks that churn arrivals get a control
// group created on demand in the mirror tree. The mix must not already
// contain WN: the machine rejects re-arrivals under a previously used
// name, and a pre-existing group would make this check vacuous.
func TestRunWithFaultsAndMirror(t *testing.T) {
	dir := t.TempDir()
	spec := "depart=@20s,arrive=WN@30s"
	if err := run(config{mix: "H-Both", apps: 4, duration: 60 * time.Second, seed: 1, resctrlDir: dir, faults: spec}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "WN", "schemata")); err != nil {
		t.Errorf("arrived app WN should have a mirrored control group: %v", err)
	}
}

func TestRunBadFaultSpec(t *testing.T) {
	if err := run(config{mix: "H-LLC", apps: 4, duration: time.Second, seed: 1, faults: "bogus"}); err == nil {
		t.Error("malformed fault spec should error")
	}
	if err := run(config{mix: "H-LLC", apps: 4, duration: time.Second, seed: 1, faults: "arrive=NOPE@5s"}); err == nil {
		t.Error("unknown arrival benchmark should error")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(config{mix: "nope", apps: 4, duration: time.Second, seed: 1}); err == nil {
		t.Error("unknown mix should error")
	}
	if err := run(config{mix: "H-LLC", apps: 40, duration: time.Second, seed: 1}); err == nil {
		t.Error("too many apps should error")
	}
}

// TestRunStopsOnSignal feeds the daemon a synthetic signal and expects a
// clean early exit with defaults restored.
func TestRunStopsOnSignal(t *testing.T) {
	dir := t.TempDir()
	sig := make(chan os.Signal, 1)
	sig <- os.Interrupt
	start := time.Now()
	if err := run(config{mix: "H-LLC", apps: 4, duration: time.Hour, seed: 1, resctrlDir: dir, sig: sig}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("run took %v after the stop signal", elapsed)
	}
	full := machine.DefaultConfig().FullMask()
	for _, app := range []string{"NO", "LU", "UA", "BT"} {
		b, err := os.ReadFile(filepath.Join(dir, app, "schemata"))
		if err != nil {
			// App set depends on the mix; only check groups that exist.
			continue
		}
		s, err := resctrl.ParseSchemata(string(b))
		if err != nil {
			t.Errorf("unparseable schemata for %s: %v", app, err)
			continue
		}
		if s.L3[0] != full || s.MB[0] != membw.MaxLevel {
			t.Errorf("%s not restored to defaults: %+v", app, s)
		}
	}
}

// TestRestoreStopsOnSignal: a snapshot whose clock allows a long RNG
// replay (10^11 draws over 10^9 periods) must not hold a stop signal
// hostage — run returns at once, naming the signal. The abandoned
// replay keeps one core busy until the test binary exits, so this test
// stays last in the package.
func TestRestoreStopsOnSignal(t *testing.T) {
	data, err := os.ReadFile("../../internal/core/testdata/snapshot_v2_draws.json")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := core.ParseSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	snap.Machine.Now = int64(1e9 * time.Second)
	snap.Taken = snap.Machine.Now
	snap.Manager.RNGDraws = 1e11
	blob, err := snap.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "long.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	sig := make(chan os.Signal, 1)
	sig <- os.Interrupt
	done := make(chan error, 1)
	go func() { done <- run(config{restore: path, duration: time.Second, sig: sig}) }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "interrupt") {
			t.Errorf("run: got %v, want the caught interrupt", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("restore ignored the stop signal for 10s")
	}
}
