package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// writeSnapshot builds a live manager, runs it for a while, and writes
// its snapshot to dir — the input every snap2test mode consumes.
func writeSnapshot(t *testing.T, dir string) (path string, snap *core.Snapshot) {
	t.Helper()
	cfg := machine.DefaultConfig()
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	models, err := workloads.Mix(cfg, workloads.HBoth, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range models {
		if err := m.AddApp(model); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := workloads.StreamMissRates(m)
	if err != nil {
		t.Fatal(err)
	}
	rng, src := core.NewSeededRand(11)
	mgr, err := core.NewManager(m, core.DefaultParams(), ref,
		core.Envelope{LoWay: 0, Ways: cfg.LLCWays}, rng)
	if err != nil {
		t.Fatal(err)
	}
	mgr.SnapshotSource = src
	if err := mgr.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	snap, err = mgr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := snap.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(dir, "incident-0042.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, snap
}

// TestGenerateEmitsValidTest: the generated file must parse as Go, carry
// the replay digest the snapshot actually produces, and derive its test
// name from the snapshot file.
func TestGenerateEmitsValidTest(t *testing.T) {
	dir := t.TempDir()
	snapPath, snap := writeSnapshot(t, dir)
	out := filepath.Join(dir, "replay_test.go")
	const d = 20 * time.Second

	if err := run(snapPath, d, out, "regress", "", false); err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, out, src, 0); err != nil {
		t.Fatalf("generated test does not parse: %v", err)
	}

	reports, err := core.ReplaySnapshot(snap, d)
	if err != nil {
		t.Fatal(err)
	}
	wantDigest := fmt.Sprintf("%#016x", core.ReportsDigest(reports))
	text := string(src)
	for _, want := range []string{
		"package regress",
		"func TestSnapshotReplayIncident0042(t *testing.T)",
		wantDigest,
		fmt.Sprintf("%d*time.Nanosecond", int64(d)),
		fmt.Sprintf("want %d", len(reports)),
		"DO NOT EDIT",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("generated test missing %q", want)
		}
	}
}

// TestCheckMode: -check replays without writing anything and rejects
// broken inputs.
func TestCheckMode(t *testing.T) {
	dir := t.TempDir()
	snapPath, _ := writeSnapshot(t, dir)

	if err := run(snapPath, 15*time.Second, "", "regress", "", true); err != nil {
		t.Fatalf("check mode on a good snapshot: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("check mode wrote files: %v", entries)
	}

	if err := run("", time.Second, "", "regress", "", true); err == nil {
		t.Error("missing -snapshot accepted")
	}
	if err := run(snapPath, 0, "", "regress", "", true); err == nil {
		t.Error("zero duration accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"version":99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run(bad, time.Second, "", "regress", "", true)
	if want := fmt.Sprintf("snapshot version 99, this build reads version %d", core.SnapshotVersion); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("other-version snapshot: got %v, want an error naming %q", err, want)
	}
}

// TestTestName pins the identifier derivation.
func TestTestName(t *testing.T) {
	cases := map[string]string{
		"snap.json":                "Snap",
		"/tmp/x/incident-7.json":   "Incident7",
		"a_b-c.json":               "ABC",
		"2024-01-05T00.json":       "20240105T00",
		"----.json":                "Snapshot",
		"mixed_CASE_name.json":     "MixedCASEName",
		"/deep/path/to/state.json": "State",
	}
	for in, want := range cases {
		if got := testName(in); got != want {
			t.Errorf("testName(%q) = %q, want %q", in, got, want)
		}
	}
}
