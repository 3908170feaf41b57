package core_test

import (
	"errors"
	"net/http"
	"os"
	"slices"
	"testing"
	"time"

	"repro/internal/controlplane"
	"repro/internal/core"
)

// TestLegacyDepartedSnapshot restores a format-2 blob written when a
// departed app still held a machine slot, marked "active": false — a
// daemon that admitted g0 and g1 over three boot apps and evicted SP and
// g1. The departed entries restore as names only: the live table is the
// three survivors, a 30 s replay matches the writer's own replay digest,
// a departed name is still a 409 to the admitter, and the re-snapshot
// lists the departed names instead of inactive entries.
func TestLegacyDepartedSnapshot(t *testing.T) {
	data, err := os.ReadFile("testdata/snapshot_v2_departed.json")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := core.ParseSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := core.ReplaySnapshot(snap, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	const writerDigest = 0x22a3c7ff4abf1e7d // the writing build's ReplaySnapshot(blob, 30s)
	if got := core.ReportsDigest(reports); got != writerDigest || len(reports) != 30 {
		t.Errorf("replay: %d reports, digest %#x; the writer replayed 30, %#x", len(reports), got, uint64(writerDigest))
	}

	mgr, m, err := core.RestoreSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.Apps(), []string{"ON", "SW", "g0"}; !slices.Equal(got, want) {
		t.Fatalf("live apps %v, want %v", got, want)
	}
	adm := &controlplane.MachineAdmitter{M: m, Mgr: mgr}
	for _, name := range []string{"SP", "g1"} {
		var rej *controlplane.Rejection
		err := adm.AddApp(controlplane.AppSpec{Name: name, Benchmark: "EP", Cores: 1})
		if !errors.As(err, &rej) || rej.Status != http.StatusConflict || rej.Code != controlplane.CodeDuplicateApp {
			t.Errorf("re-admitting departed %s: %v, want 409 %s", name, err, controlplane.CodeDuplicateApp)
		}
	}
	again, err := mgr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := again.Machine.Departed; !slices.Equal(got, []string{"SP", "g1"}) {
		t.Errorf("re-snapshot departed = %v, want [SP g1]", got)
	}
	for _, a := range again.Machine.Apps {
		if a.Active != nil {
			t.Errorf("re-snapshot writes an active flag for %s", a.Model.Name)
		}
	}
}
