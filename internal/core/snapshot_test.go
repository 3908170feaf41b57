package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/workloads"
)

// snapSetup builds a machine + manager pair with a snapshot-capable RNG.
func snapSetup(t *testing.T, seed int64, noise float64, opts ...machine.Option) (*Manager, *machine.Machine) {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.MeasurementNoise = noise
	cfg.NoiseSeed = seed + 100
	m, err := machine.New(cfg, opts...)
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
	rng, src := NewSeededRand(seed)
	mgr, err := NewManager(m, DefaultParams(), ref, Envelope{LoWay: 0, Ways: cfg.LLCWays}, rng)
	if err != nil {
		t.Fatal(err)
	}
	mgr.SnapshotSource = src
	return mgr, m
}

// cloneReport deep-copies a report so retained slices cannot alias the
// manager's buffers across membership changes.
func cloneReport(r PeriodReport) PeriodReport {
	r.Apps = append([]string(nil), r.Apps...)
	r.Slowdowns = append([]float64(nil), r.Slowdowns...)
	r.State = r.State.Clone()
	return r
}

func collect(mgr *Manager, into *[]PeriodReport) {
	mgr.OnPeriod = func(r PeriodReport) { *into = append(*into, cloneReport(r)) }
}

// TestSnapshotBitIdentity is the core crash-safety contract: running T1,
// snapshotting, JSON round-tripping the snapshot, restoring, and running
// T2 must produce bit-identical period reports to the same T1+T2 run
// snapshotted at the same boundary but never serialized. Verified
// noise-free at two seeds and with measurement noise (which exercises
// the noise-RNG replay) at a third.
func TestSnapshotBitIdentity(t *testing.T) {
	const (
		t1 = 40 * time.Second
		t2 = 60 * time.Second
	)
	cases := []struct {
		seed  int64
		noise float64
		cache bool
	}{
		{seed: 1, noise: 0, cache: false},
		{seed: 2, noise: 0, cache: true},
		{seed: 3, noise: 0.02, cache: false},
	}
	for _, tc := range cases {
		var opts []machine.Option
		if tc.cache {
			opts = append(opts, machine.WithSolveCache())
		}

		// Reference leg: run T1, then keep going for T2 uninterrupted.
		ref, _ := snapSetup(t, tc.seed, tc.noise, opts...)
		var refReports []PeriodReport
		if err := ref.Run(t1); err != nil {
			t.Fatalf("seed %d: reference T1: %v", tc.seed, err)
		}
		collect(ref, &refReports)
		if err := ref.Run(t2); err != nil {
			t.Fatalf("seed %d: reference T2: %v", tc.seed, err)
		}
		if len(refReports) == 0 {
			t.Fatalf("seed %d: reference run produced no reports", tc.seed)
		}

		// Snapshot leg: identical run to T1, snapshot, serialize, parse,
		// restore, resume for T2.
		mgr, _ := snapSetup(t, tc.seed, tc.noise, opts...)
		if err := mgr.Run(t1); err != nil {
			t.Fatalf("seed %d: T1: %v", tc.seed, err)
		}
		snap, err := mgr.Snapshot()
		if err != nil {
			t.Fatalf("seed %d: snapshot: %v", tc.seed, err)
		}
		data, err := snap.Marshal()
		if err != nil {
			t.Fatalf("seed %d: marshal: %v", tc.seed, err)
		}
		parsed, err := ParseSnapshot(data)
		if err != nil {
			t.Fatalf("seed %d: parse: %v", tc.seed, err)
		}
		restored, _, err := RestoreSnapshot(parsed)
		if err != nil {
			t.Fatalf("seed %d: restore: %v", tc.seed, err)
		}
		var resumed []PeriodReport
		collect(restored, &resumed)
		if err := restored.Run(t2); err != nil {
			t.Fatalf("seed %d: resumed T2: %v", tc.seed, err)
		}

		if !ReportsEqual(refReports, resumed) {
			t.Errorf("seed %d (noise=%v cache=%v): restored run diverged from uninterrupted run (%d vs %d reports)",
				tc.seed, tc.noise, tc.cache, len(refReports), len(resumed))
			for i := range refReports {
				if i < len(resumed) && !reportEqual(refReports[i], resumed[i]) {
					t.Errorf("  first divergence at report %d: t=%v vs t=%v, unfairness %v vs %v",
						i, refReports[i].Time, resumed[i].Time, refReports[i].Unfairness, resumed[i].Unfairness)
					break
				}
			}
		}
		if dr, ds := ReportsDigest(refReports), ReportsDigest(resumed); dr != ds {
			t.Errorf("seed %d: report digests differ: %#x vs %#x", tc.seed, dr, ds)
		}

		// Serialization itself must be deterministic: same state, same bytes.
		data2, err := mgr.Snapshot()
		if err != nil {
			t.Fatalf("seed %d: re-snapshot: %v", tc.seed, err)
		}
		b2, err := data2.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != string(b2) {
			t.Errorf("seed %d: snapshotting the same state twice produced different bytes", tc.seed)
		}
	}
}

// TestSnapshotReplayHelper: ReplaySnapshot must equal driving the
// restored manager by hand.
func TestSnapshotReplayHelper(t *testing.T) {
	mgr, _ := snapSetup(t, 7, 0)
	if err := mgr.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	snap, err := mgr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	a, err := ReplaySnapshot(snap, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReplaySnapshot(snap, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || !ReportsEqual(a, b) {
		t.Fatalf("replay not deterministic: %d vs %d reports", len(a), len(b))
	}
}

// TestSnapshotRequiresSource: a manager built with a plain rand.Rand
// cannot be snapshotted, and says why.
func TestSnapshotRequiresSource(t *testing.T) {
	mgr, _ := snapSetup(t, 1, 0)
	mgr.SnapshotSource = nil
	if _, err := mgr.Snapshot(); err == nil || !strings.Contains(err.Error(), "SnapshotSource") {
		t.Fatalf("want SnapshotSource error, got %v", err)
	}
}

// TestSnapshotVersionAndTamper: version mismatches and config tampering
// are rejected at parse/restore time.
func TestSnapshotVersionAndTamper(t *testing.T) {
	mgr, _ := snapSetup(t, 1, 0)
	if err := mgr.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	snap, err := mgr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	bad := *snap
	bad.Version = SnapshotVersion + 1
	data, err := bad.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseSnapshot(data); err == nil {
		t.Error("future snapshot version should be rejected")
	}

	tampered := *snap
	tampered.Machine.Config.LLCWays++ // digest no longer matches
	if _, _, err := RestoreSnapshot(&tampered); err == nil {
		t.Error("config/digest mismatch should be rejected")
	}

	if _, err := ParseSnapshot([]byte("not json")); err == nil {
		t.Error("garbage should be rejected")
	}
}

// TestSnapshotRejectsOtherFormats: a blob this build cannot read — an
// older wire format, a newer one, a cut-off file, an empty object — is
// refused by ParseSnapshot and by RestoreSnapshot with an error naming
// the blob's version (when it has one) and the build's, never a panic.
func TestSnapshotRejectsOtherFormats(t *testing.T) {
	mgr, _ := snapSetup(t, 1, 0)
	if err := mgr.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	snap, err := mgr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	good, err := snap.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// A snapshot written by the last build of wire format 1 (copartd -mix
	// H-LLC -apps 3 -duration 12s -snapshot-exit), score memo included.
	v1, err := os.ReadFile("testdata/snapshot_v1.json")
	if err != nil {
		t.Fatal(err)
	}
	future := bytes.Replace(good, []byte(fmt.Sprintf(`"version": %d,`, SnapshotVersion)), []byte(`"version": 99,`), 1)
	build := fmt.Sprintf("this build reads version %d", SnapshotVersion)
	for _, tc := range []struct {
		name string
		data []byte
		want string // the blob's version as the error names it; "" when undecodable
	}{
		{"version 1 with its score memo", v1, "snapshot version 1,"},
		{"future version", future, "snapshot version 99,"},
		{"truncated", good[:len(good)/2], ""},
		{"empty object", []byte("{}"), "snapshot version 0,"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSnapshot(tc.data)
			if err == nil || !strings.Contains(err.Error(), build) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("ParseSnapshot: got %v, want an error naming %q and %q", err, tc.want, build)
			}
			// A caller that decodes the blob itself must hit the same wall.
			var raw Snapshot
			if json.Unmarshal(tc.data, &raw) != nil {
				return
			}
			_, _, err = RestoreSnapshot(&raw)
			if err == nil || !strings.Contains(err.Error(), build) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("RestoreSnapshot: got %v, want an error naming %q and %q", err, tc.want, build)
			}
		})
	}
}

// TestSnapshotRefusesImpossibleDraws: restore replays the RNG stream
// one draw at a time, so a blob claiming more draws than its own clock
// allows is refused before any are replayed. The committed blob is a
// 12 s copartd snapshot with rngDraws edited to 10^15, a count that
// would take restore hours to burn.
func TestSnapshotRefusesImpossibleDraws(t *testing.T) {
	data, err := os.ReadFile("testdata/snapshot_v2_draws.json")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ParseSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := RestoreSnapshot(snap)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "RNG draws exceed") {
			t.Errorf("RestoreSnapshot: got %v, want the draws refusal", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RestoreSnapshot is still replaying 10^15 draws after 5s")
	}
}

// TestSnapshotDrawsCeiling: a blob at the draws ceiling restores, one
// draw past it does not, and the largest clock and count cannot
// overflow the check.
func TestSnapshotDrawsCeiling(t *testing.T) {
	data, err := os.ReadFile("testdata/snapshot_v2_draws.json")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ParseSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	periods := uint64(snap.Machine.Now/int64(snap.Manager.Params.Period)) + 1
	snap.Manager.RNGDraws = periods * maxDrawsPerPeriod
	if _, _, err := RestoreSnapshot(snap); err != nil {
		t.Errorf("draws at the ceiling refused: %v", err)
	}
	snap.Manager.RNGDraws++
	if _, _, err := RestoreSnapshot(snap); err == nil {
		t.Error("draws one past the ceiling restored")
	}
	if err := checkDraws(math.MaxUint64, math.MaxInt64, 1); err != nil {
		t.Errorf("checkDraws at the extremes: %v", err)
	}
}

// TestSnapshotIgnoresLegacySolveCache: machines used to snapshot their
// solve-cache counters under a "solveCache" key. A blob of this wire
// format that still carries the object (copartd never wrote one, its
// machine has no cache) parses, restores and replays bit-identically to
// the same blob without it.
func TestSnapshotIgnoresLegacySolveCache(t *testing.T) {
	mgr, _ := snapSetup(t, 5, 0)
	if err := mgr.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	snap, err := mgr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := snap.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	legacy := bytes.Replace(plain, []byte(`"noiseState":`),
		[]byte(`"solveCache": {"Hits": 412, "Misses": 97, "Evictions": 0, "SharedHits": 31, "Entries": 0}, "noiseState":`), 1)
	if bytes.Equal(plain, legacy) {
		t.Fatal("the blob has no machine.noiseState to anchor the legacy object on")
	}
	replay := func(blob []byte) []PeriodReport {
		t.Helper()
		parsed, err := ParseSnapshot(blob)
		if err != nil {
			t.Fatal(err)
		}
		reports, err := ReplaySnapshot(parsed, 40*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return reports
	}
	want, got := replay(plain), replay(legacy)
	if len(want) == 0 || !ReportsEqual(want, got) {
		t.Fatalf("a legacy solveCache object changed the replay (%d vs %d reports)", len(want), len(got))
	}
}

// TestSnapshotWeightsSurvive: weights set at runtime are carried through
// a snapshot/restore cycle.
func TestSnapshotWeightsSurvive(t *testing.T) {
	mgr, m := snapSetup(t, 1, 0)
	apps := m.Apps()
	if err := mgr.SetWeight(apps[0], 2); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	snap, err := mgr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, _, err := RestoreSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if w := restored.Weight(apps[0]); w != 2 {
		t.Fatalf("restored weight = %v, want 2", w)
	}
	if w := restored.Weight(apps[1]); w != 1 {
		t.Fatalf("restored default weight = %v, want 1", w)
	}
}

// TestSnapshotCarriesSamplerWindows: a four-app manager's snapshot holds
// all four sampling windows, anchored at the snapshot instant (the
// sampler used to snapshot a map it only builds past eight apps, so
// every real snapshot read "sampler": {}), a blob with windows restores
// (restoring used to write into that same unbuilt map and panic), and a
// blob naming an app twice is an error that names it, not an overwrite.
func TestSnapshotCarriesSamplerWindows(t *testing.T) {
	mgr, m := snapSetup(t, 1, 0)
	if err := mgr.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	snap, err := mgr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	windows := snap.Manager.Sampler.Apps
	if len(windows) != len(m.Apps()) {
		t.Fatalf("snapshot carries %d sampling windows for %d apps", len(windows), len(m.Apps()))
	}
	for _, w := range windows {
		c, err := m.ReadCounters(w.App)
		if err != nil {
			t.Fatal(err)
		}
		if w.At != snap.Taken || w.Counters != c {
			t.Errorf("%s: window anchored at %d with %+v, want the snapshot instant %d with %+v",
				w.App, w.At, w.Counters, snap.Taken, c)
		}
	}
	blob, err := snap.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	restored, _, err := RestoreSnapshot(parsed)
	if err != nil {
		t.Fatal(err)
	}
	again, err := restored.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if blob2, err := again.Marshal(); err != nil || !bytes.Equal(blob, blob2) {
		t.Fatalf("snapshot of the restored manager differs from the one it was restored from (err %v)", err)
	}

	parsed.Manager.Sampler.Apps = append(parsed.Manager.Sampler.Apps, windows[0])
	if _, _, err := RestoreSnapshot(parsed); err == nil || !strings.Contains(err.Error(), windows[0].App) {
		t.Fatalf("duplicate sampler window for %s: got %v, want an error naming it", windows[0].App, err)
	}
}

// roundTripSnapshot snapshots mgr and returns the snapshot as a reader
// of its serialized form sees it.
func roundTripSnapshot(t *testing.T, mgr *Manager) *Snapshot {
	t.Helper()
	snap, err := mgr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := snap.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	return parsed
}

// TestSnapshotMidExplorationBitIdentity takes the snapshot while the
// manager is still exploring. TestSnapshotBitIdentity's boundary falls
// in the idle phase, which reads neither the classifiers' inputs nor
// anything a constructor derives for them; here the restored manager's
// next periods classify, so a derived field RestoreSnapshot failed to
// rebuild (the dense STREAM reference: a zero there makes every traffic
// ratio +Inf) shows as a diverging trajectory.
func TestSnapshotMidExplorationBitIdentity(t *testing.T) {
	const resume = 25 * time.Second
	build := func() *Manager {
		mgr, _ := snapSetup(t, 5, 0)
		if err := mgr.Profile(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := mgr.ExploreStep(); err != nil {
				t.Fatal(err)
			}
		}
		if mgr.Phase() != PhaseExplore {
			t.Fatalf("phase %v two periods into exploration, want exploration", mgr.Phase())
		}
		return mgr
	}
	ref := build()
	var want []PeriodReport
	collect(ref, &want)
	if err := ref.Run(resume); err != nil {
		t.Fatal(err)
	}

	got, err := ReplaySnapshot(roundTripSnapshot(t, build()), resume)
	if err != nil {
		t.Fatal(err)
	}
	explored := 0
	for _, r := range want {
		if r.Phase == PhaseExplore {
			explored++
		}
	}
	if explored < 3 {
		t.Fatalf("reference run explored for %d of %d resumed periods; the test needs classifying periods", explored, len(want))
	}
	if !ReportsEqual(want, got) {
		t.Errorf("manager restored mid-exploration diverged from the uninterrupted run (%d vs %d reports)", len(want), len(got))
	}
}
