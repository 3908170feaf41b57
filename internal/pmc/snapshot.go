package pmc

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/machine"
)

// SamplerSnapshot is the serializable window state of a Sampler: the
// last counter anchor per application plus the drop count. Apps are
// sorted by name so the encoding is deterministic.
type SamplerSnapshot struct {
	Apps  []AppWindow `json:"apps,omitempty"`
	Drops int         `json:"drops,omitempty"`
}

// AppWindow is one application's last counter anchor.
type AppWindow struct {
	App      string           `json:"app"`
	Counters machine.Counters `json:"counters"`
	At       int64            `json:"atNs"` // anchor time, nanoseconds
}

// Snapshot captures the sampler's window anchors.
func (s *Sampler) Snapshot() SamplerSnapshot {
	snap := SamplerSnapshot{Drops: s.drops}
	for i, app := range s.names {
		snap.Apps = append(snap.Apps, AppWindow{
			App:      app,
			Counters: s.snaps[i].counters,
			At:       int64(s.snaps[i].at),
		})
	}
	sort.Slice(snap.Apps, func(i, j int) bool { return snap.Apps[i].App < snap.Apps[j].App })
	return snap
}

// RestoreSnapshot replaces the sampler's window state with the
// snapshot's, so the next sample of each app computes the same window
// the original sampler would have. A snapshot naming an app twice is
// rejected, leaving the sampler with the windows listed before the
// repeat.
func (s *Sampler) RestoreSnapshot(snap SamplerSnapshot) error {
	s.Reset()
	s.drops = snap.Drops
	for _, w := range snap.Apps {
		if _, dup := s.lookup(w.App); dup {
			return fmt.Errorf("pmc: snapshot lists app %q twice", w.App)
		}
		s.track(w.App, w.Counters, time.Duration(w.At))
	}
	return nil
}
