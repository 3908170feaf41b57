package core

import (
	"bytes"
	"testing"
)

// FuzzRestoreSnapshot feeds the snapshot decoder arbitrary bytes. The
// committed corpus (testdata/fuzz/FuzzRestoreSnapshot) seeds it with a
// current-format blob listing departed names, a legacy format-2 blob
// whose departed apps are "active": false entries, the format-1 blob,
// and a blob claiming 10^15 RNG draws at t=12s. Property: decoding never panics, and a blob that restores
// re-snapshots to bytes that themselves restore and re-snapshot
// byte-identically.
func FuzzRestoreSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, blob []byte) {
		snap, err := ParseSnapshot(blob)
		if err != nil {
			return
		}
		mgr, _, err := RestoreSnapshot(snap)
		if err != nil {
			return
		}
		first := resnapshot(t, mgr)
		snap, err = ParseSnapshot(first)
		if err != nil {
			t.Fatalf("re-snapshot of an accepted blob does not parse: %v", err)
		}
		if mgr, _, err = RestoreSnapshot(snap); err != nil {
			t.Fatalf("re-snapshot of an accepted blob does not restore: %v", err)
		}
		if second := resnapshot(t, mgr); !bytes.Equal(first, second) {
			t.Fatalf("re-snapshot is not stable:\n%s\n---\n%s", first, second)
		}
	})
}

func resnapshot(t *testing.T, mgr *Manager) []byte {
	t.Helper()
	snap, err := mgr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := snap.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return data
}
