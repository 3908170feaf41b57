package machine

import (
	"fmt"
	"time"
)

// HotState is an in-place machine checkpoint: the mutable state a run
// accumulates — virtual time, per-app counters and allocations —
// captured from a live machine and adoptable by another machine with the
// same configuration and live application set.
//
// It exists for trajectory memoization: when a whole phase of execution
// is a pure function of the starting configuration (the fleet's
// profiling phase is — it consumes no RNG and, noise-free, every Step
// is deterministic), running it once and restoring the checkpoint
// elsewhere is bit-identical to re-running it. Unlike Snapshot, which
// serializes everything needed to rebuild a machine from nothing,
// HotState assumes the receiving machine already holds the same config
// and apps and only adopts the run-mutable state, allocation-free at
// steady state.
//
// A HotState is immutable once captured, so it is safe to restore the
// same value into many machines concurrently — but each individual
// machine remains single-threaded.
type HotState struct {
	configDigest uint64
	now          time.Duration

	// Per-app state of the live apps, in launch order (mirroring the app
	// table exactly).
	names    []string
	counters []Counters
	allocs   []Alloc
}

// CaptureHotState checkpoints the machine's run-mutable state. The
// machine is not modified. It refuses machines with measurement noise
// enabled: the checkpoint does not carry the noise stream position, so
// restoring it elsewhere would silently desynchronize the noise draws
// (Snapshot/RestoreSnapshot handle that case).
func (m *Machine) CaptureHotState() (HotState, error) {
	if m.cfg.MeasurementNoise != 0 {
		return HotState{}, fmt.Errorf("machine: hot state does not carry the measurement-noise stream; use Snapshot")
	}
	hs := HotState{
		configDigest: m.cfgDigest,
		now:          m.now,
		names:        make([]string, len(m.apps)),
		counters:     make([]Counters, len(m.apps)),
		allocs:       make([]Alloc, len(m.apps)),
	}
	for i, a := range m.apps {
		hs.names[i] = a.model.Name
		hs.counters[i] = a.counters
		hs.allocs[i] = a.alloc
	}
	return hs, nil
}

// RestoreHotState adopts a checkpoint in place. The machine must hold
// the same configuration (verified by digest) and the same live
// application table (same names, same launch order) as the machine the
// checkpoint was captured from; the method then overwrites virtual time,
// per-app counters and allocations, leaving the machine bit-identical in
// behavior to the one that was checkpointed. The live set is not
// touched, so AppsGeneration does not move. The solve cache is not
// touched: keys are exact, so every entry stays valid.
func (m *Machine) RestoreHotState(hs HotState) error {
	if hs.configDigest != m.cfgDigest {
		return fmt.Errorf("machine: hot state config fingerprint %#x does not match %#x", hs.configDigest, m.cfgDigest)
	}
	if m.cfg.MeasurementNoise != 0 {
		return fmt.Errorf("machine: hot state does not carry the measurement-noise stream; use Snapshot")
	}
	if len(hs.names) != len(m.apps) {
		return fmt.Errorf("machine: hot state has %d apps, machine has %d", len(hs.names), len(m.apps))
	}
	for i, a := range m.apps {
		if a.model.Name != hs.names[i] {
			return fmt.Errorf("machine: hot state app %d is %q, machine has %q", i, hs.names[i], a.model.Name)
		}
	}
	m.now = hs.now
	for i, a := range m.apps {
		a.counters = hs.counters[i]
		a.alloc = hs.allocs[i]
		// Phased apps re-resolve at the restored time, exactly as the live
		// trajectory would have left them at its last phase boundary.
		if a.phased {
			if idx := a.model.PhaseIndexAt(m.now); idx != a.phaseIdx {
				a.resolved = a.model.AtTime(m.now)
				a.phaseIdx = idx
				a.digest = modelDigest(&a.resolved)
			}
		}
	}
	// The solver scratch no longer describes the machine.
	m.solveClean = false
	m.gatherValid = false
	return nil
}
