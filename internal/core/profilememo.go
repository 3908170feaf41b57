package core

// ProfileMemo captures the measurement outcomes of one Profile pass:
// each application's full-resource IPS and the classifier seed states
// derived from the probe degradations. Everything else Profile does —
// the equal-split start state, the scratch layout, the phase flags —
// is a cheap deterministic recomputation; the probes are the expensive
// part, and they are a pure function of the target's configuration and
// application set whenever the target is noise-free and the manager
// consumes no randomness during profiling (it never does: probes are
// fixed allocations, and the seeds are thresholds over measured ratios).
//
// A memo is therefore reusable across managers driving *identical*
// targets under *identical* manager configuration (Params, Envelope,
// Features, Freeze flags, stream reference). The fleet keeps one memo
// per (machine configuration, mix kind, application count), exactly that
// identity, and pairs RestoreProfileMemo with
// machine.RestoreHotState so the combined (machine, manager) state is
// bit-identical to a live Profile — pinned by TestFleetPoolGolden.
type ProfileMemo struct {
	ipsFull  []float64
	llcSeeds []State
	mbaSeeds []State
}

// ExportProfileMemo captures the current profiling outcome. It must be
// called immediately after a successful Profile, before any control
// period: the classifiers are then still in their seed states (the
// Freeze flags, if set, are already folded in — the memo records the
// post-freeze seeds, so it is only valid for managers with the same
// flags). It returns nil when there is nothing exportable.
func (m *Manager) ExportProfileMemo() *ProfileMemo {
	if m.phase != PhaseExplore || len(m.apps) == 0 {
		return nil
	}
	pm := &ProfileMemo{
		ipsFull:  make([]float64, len(m.apps)),
		llcSeeds: make([]State, len(m.apps)),
		mbaSeeds: make([]State, len(m.apps)),
	}
	for i, a := range m.apps {
		if a.llc == nil || a.mba == nil || a.havePerf {
			return nil
		}
		pm.ipsFull[i] = a.ipsFull
		pm.llcSeeds[i] = a.llc.State()
		pm.mbaSeeds[i] = a.mba.State()
	}
	return pm
}

// RestoreProfileMemo re-establishes the post-profiling manager state
// from a memo instead of running the probe periods. The caller must
// first restore the target to the state a live Profile would have left
// it in (machine.RestoreHotState); this method then performs the same
// cheap setup Profile performs — resetApps, the equal-split state,
// applyState — seeds the classifiers from the memo, and re-anchors the
// sampler at the target's current counters, exactly where Profile's
// last probe pass left it. A classifier seeded from a memo is
// bit-identical to one seeded by a live probe (Reinit is exhaustive),
// so the subsequent control trajectory is too.
func (m *Manager) RestoreProfileMemo(pm *ProfileMemo) error {
	if err := m.startProfile(pm); err != nil {
		return err
	}
	for i, a := range m.apps {
		m.seedApp(a, pm.ipsFull[i], pm.llcSeeds[i], pm.mbaSeeds[i])
	}
	// First sightings (resetApps emptied the sampler) anchor every app at
	// (current counters, now) — the snapshots, and the anchor condition,
	// a live Profile's final closing sweep leaves behind.
	now := m.target.Now()
	if _, err := m.sampler.SampleAll(m.names, now, nil); err != nil {
		return err
	}
	m.anchorValid = true
	m.anchoredAt = now
	m.enterExplore("profile restored from memo")
	return nil
}
