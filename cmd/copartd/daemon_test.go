package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/membw"
	"repro/internal/resctrl"
)

// TestValidateFlagErrors: every malformed flag is rejected before the
// daemon builds anything, with an error enumerating the valid values.
func TestValidateFlagErrors(t *testing.T) {
	base := config{mix: "H-Both", apps: 4, duration: time.Minute}
	cases := []struct {
		name   string
		mutate func(*config)
		want   []string // substrings of the error
	}{
		{"unknown mix", func(c *config) { c.mix = "H-Everything" },
			[]string{`unknown mix "H-Everything"`, "H-LLC", "IS"}},
		{"apps too low", func(c *config) { c.apps = 1 },
			[]string{"-apps 1 out of range", "2-"}},
		{"apps too high", func(c *config) { c.apps = 40 },
			[]string{"-apps 40 out of range", "LLC way"}},
		{"bad faults", func(c *config) { c.faults = "frob=1,readerr=x" },
			[]string{`"frob=1"`, `"readerr=x"`, "unknown key"}},
		{"probability above 1", func(c *config) { c.faults = "readerr=5" },
			[]string{"readerr probability 5 outside [0,1]"}},
		{"NaN probability", func(c *config) { c.faults = "readerr=NaN" },
			[]string{"readerr probability NaN outside [0,1]"}},
		{"infinite overrun", func(c *config) { c.faults = "overrun=1x+Inf" },
			[]string{"overrun factor +Inf"}},
		{"huge overrun", func(c *config) { c.faults = "overrun=1x1e300" },
			[]string{"overrun factor 1e+300"}},
		{"bad arrival", func(c *config) { c.faults = "arrive=NOPE@5s" },
			[]string{`"NOPE"`, "valid benchmarks", "EP"}},
		{"zero duration", func(c *config) { c.duration = 0 },
			[]string{"-duration", "positive"}},
		{"negative pace", func(c *config) { c.pace = -time.Second },
			[]string{"-pace"}},
		{"missing restore file", func(c *config) { c.restore = "/nonexistent/snap.json" },
			[]string{"-restore"}},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		err := cfg.validate()
		if err == nil {
			t.Errorf("%s: want error", tc.name)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error missing %q:\n%v", tc.name, w, err)
			}
		}
	}
	if err := base.validate(); err != nil {
		t.Errorf("base config should validate: %v", err)
	}
}

// TestRestoreConflictingFlags: -restore refuses flags the snapshot
// supersedes.
func TestRestoreConflictingFlags(t *testing.T) {
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "snap.json")
	if err := os.WriteFile(snapPath, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"mix", "apps", "faults", "seed"} {
		cfg := config{restore: snapPath, duration: time.Minute,
			setFlags: map[string]bool{f: true, "restore": true}}
		if err := cfg.validate(); err == nil || !strings.Contains(err.Error(), "-"+f) {
			t.Errorf("restore + -%s: want conflict error, got %v", f, err)
		}
	}
	cfg := config{restore: snapPath, duration: time.Minute,
		setFlags: map[string]bool{"restore": true, "duration": true}}
	if err := cfg.validate(); err != nil {
		t.Errorf("restore + -duration should be fine: %v", err)
	}
}

// TestPanicGuardRestoresDefaults: a panic inside the control loop must
// surface as an error AND still restore the default schemata — a
// crashed controller may never leave the machine partitioned.
func TestPanicGuardRestoresDefaults(t *testing.T) {
	dir := t.TempDir()
	periods := 0
	periodHook = func(r core.PeriodReport) {
		periods++
		if periods == 12 { // deep enough that real partitions are programmed
			panic("injected controller failure")
		}
	}
	defer func() { periodHook = nil }()

	err := run(config{mix: "M-BW", apps: 4, duration: time.Hour, seed: 1, resctrlDir: dir})
	if err == nil || !strings.Contains(err.Error(), "controller panic") {
		t.Fatalf("want controller panic error, got %v", err)
	}

	full := machine.DefaultConfig().FullMask()
	checked := 0
	for _, app := range []string{"OC", "CG", "SW", "EP"} {
		b, err := os.ReadFile(filepath.Join(dir, app, "schemata"))
		if err != nil {
			continue
		}
		s, err := resctrl.ParseSchemata(string(b))
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		checked++
		if s.L3[0] != full || s.MB[0] != membw.MaxLevel {
			t.Errorf("%s left partitioned after panic: %+v", app, s)
		}
	}
	if checked == 0 {
		t.Fatal("no mirrored groups found to check")
	}
}

// TestSnapshotRoundTripCLI: run T, snapshot at exit, restore and run the
// remainder — the final state snapshot must be byte-identical to an
// uninterrupted run of the full duration.
func TestSnapshotRoundTripCLI(t *testing.T) {
	dir := t.TempDir()
	mid := filepath.Join(dir, "mid.json")
	resumed := filepath.Join(dir, "resumed.json")
	whole := filepath.Join(dir, "whole.json")

	if err := run(config{mix: "H-Both", apps: 4, duration: 40 * time.Second, seed: 5,
		snapshotExit: mid}); err != nil {
		t.Fatal(err)
	}
	if err := run(config{restore: mid, duration: 60 * time.Second,
		snapshotExit: resumed}); err != nil {
		t.Fatal(err)
	}
	if err := run(config{mix: "H-Both", apps: 4, duration: 100 * time.Second, seed: 5,
		snapshotExit: whole}); err != nil {
		t.Fatal(err)
	}

	br, err := os.ReadFile(resumed)
	if err != nil {
		t.Fatal(err)
	}
	bw, err := os.ReadFile(whole)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(br, bw) {
		t.Fatalf("snapshot after restore+resume (%d bytes) differs from uninterrupted run (%d bytes)",
			len(br), len(bw))
	}
	// Restored runs must also reject a snapshot that fails to parse.
	badPath := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(badPath, []byte(`{"version":99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run(config{restore: badPath, duration: time.Second})
	if want := fmt.Sprintf("snapshot version 99, this build reads version %d", core.SnapshotVersion); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("restoring a future-version snapshot: got %v, want an error naming %q", err, want)
	}
}

// TestDaemonControlPlane boots the daemon with -listen and drives
// admission, reweight, removal, snapshot, and metrics over real HTTP,
// then shuts down via the signal path.
func TestDaemonControlPlane(t *testing.T) {
	addrCh := make(chan string, 1)
	onListen = func(addr string) { addrCh <- addr }
	defer func() { onListen = nil }()

	sig := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		// Target-time horizon: large enough that the unpaced loop cannot
		// exhaust it on a loaded test host before the shutdown signal.
		done <- run(config{mix: "H-Both", apps: 3, duration: 10000 * time.Hour, seed: 1,
			listen: "127.0.0.1:0", sig: sig})
	}()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("daemon exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never started listening")
	}

	get := func(path string) (int, string) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, rerr := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if rerr != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}

	spec, _ := json.Marshal(map[string]interface{}{
		"name": "late", "benchmark": "EP", "cores": 1, "weight": 2.0,
	})
	resp, err := http.Post(base+"/apps", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("admit = %d", resp.StatusCode)
	}

	req, _ := http.NewRequest("PATCH", base+"/apps/late", strings.NewReader(`{"weight": 1.5}`))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reweight = %d", resp.StatusCode)
	}

	code, snapBody := get("/snapshot")
	if code != http.StatusOK {
		t.Fatalf("snapshot = %d", code)
	}
	snap, err := core.ParseSnapshot([]byte(snapBody))
	if err != nil {
		t.Fatalf("daemon snapshot unparseable: %v", err)
	}
	// The admitted app must be in the snapshot with its current weight.
	foundLate := false
	for _, a := range snap.Machine.Apps {
		if a.Model.Name == "late" {
			foundLate = true
		}
	}
	if !foundLate {
		t.Error("admitted app missing from snapshot")
	}
	if w := snap.Manager.Weights["late"]; w != 1.5 {
		t.Errorf("snapshot weight for late = %v, want 1.5", w)
	}

	req, _ = http.NewRequest("DELETE", base+"/apps/late", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("remove = %d", resp.StatusCode)
	}

	if code, body := get("/metrics"); code != http.StatusOK ||
		!strings.Contains(body, `copart_admission_ops_total{op="add",outcome="ok"} 1`) {
		t.Errorf("metrics = %d, missing add counter:\n%.400s", code, body)
	}

	sig <- os.Interrupt
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain and exit after signal")
	}
}
