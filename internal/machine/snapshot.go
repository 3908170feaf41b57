package machine

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/membw"
)

// Snapshot is the complete serializable state of a Machine: the
// configuration, virtual time, the live applications in launch order
// (Perf results index over them), the departed applications' names
// (name reuse is forbidden) and the jitter stream's state word.
// Solve-cache use is not machine state (a memo changes speed only), so a
// memoizing machine and a bare one in the same state snapshot
// identically. ConfigDigest fingerprints the configuration so a restore
// against a drifted config (different solver constants ⇒ different
// trajectories) fails loudly instead of silently diverging.
//
// A restored machine is bit-identical in behavior to the original: the
// solver is a pure function of (config, models, allocations), counters
// resume from their exact cumulative values, and the jitter stream
// resumes from its recorded state word (the source's whole state).
type Snapshot struct {
	Config       Config        `json:"config"`
	ConfigDigest uint64        `json:"configDigest"`
	Now          int64         `json:"nowNs"` // virtual time, nanoseconds
	Apps         []AppSnapshot `json:"apps"`
	// Departed lists departed applications' names in removal order.
	Departed []string `json:"departed,omitempty"`
	// NoiseState is the jitter source's state word. Never omitted: a
	// stream can legitimately sit at word 0.
	NoiseState uint64 `json:"noiseState"`
	// NoiseCalls is the retired math/rand stream's draw count, decoded
	// only so that RestoreSnapshot can refuse a noisy legacy snapshot.
	NoiseCalls uint64 `json:"noiseCalls,omitempty"`
}

// AppSnapshot is one live application's state.
type AppSnapshot struct {
	Model    AppModel `json:"model"`
	CBM      uint64   `json:"cbm"`
	MBALevel int      `json:"mba"`
	Counters Counters `json:"counters"`
	// Active is decoded only: snapshots written before RemoveApp deleted
	// slots listed departed apps here with "active": false, and those
	// restore as departed names. Snapshot never sets it.
	Active *bool `json:"active,omitempty"`
}

// Snapshot captures the machine's full state. The machine is not
// modified; the snapshot shares no mutable memory with it.
func (m *Machine) Snapshot() Snapshot {
	snap := Snapshot{
		Config:       m.cfg,
		ConfigDigest: m.cfgDigest,
		Now:          int64(m.now),
		Apps:         make([]AppSnapshot, len(m.apps)),
		Departed:     slices.Clone(m.departed),
		NoiseState:   m.noiseSrc.State(),
	}
	for i, a := range m.apps {
		snap.Apps[i] = AppSnapshot{
			Model:    a.model,
			CBM:      a.alloc.CBM,
			MBALevel: a.alloc.MBALevel,
			Counters: a.counters,
		}
	}
	return snap
}

// RestoreSnapshot rebuilds a machine from a snapshot. Options are
// applied as in New. The snapshot's config digest must match the digest
// recomputed from its config, which catches both a corrupted blob and a
// Config schema drift across versions.
func RestoreSnapshot(snap Snapshot, opts ...Option) (*Machine, error) {
	m, err := New(snap.Config, opts...)
	if err != nil {
		return nil, fmt.Errorf("machine: restore: %w", err)
	}
	if snap.ConfigDigest != m.cfgDigest {
		return nil, fmt.Errorf("machine: restore: config fingerprint %#x does not match %#x (snapshot from a different configuration or schema version)",
			snap.ConfigDigest, m.cfgDigest)
	}
	if snap.Now < 0 {
		return nil, fmt.Errorf("machine: restore: negative virtual time %d", snap.Now)
	}
	m.now = time.Duration(snap.Now)
	for i, as := range snap.Apps {
		if err := as.Model.Validate(); err != nil {
			return nil, fmt.Errorf("machine: restore: app %d: %w", i, err)
		}
		if _, dup := m.byName[as.Model.Name]; dup {
			return nil, fmt.Errorf("machine: restore: duplicate app %q", as.Model.Name)
		}
		if as.CBM == 0 || as.CBM&^m.fullMask != 0 || !contiguous(as.CBM) {
			return nil, fmt.Errorf("machine: restore: app %q has invalid CBM %#x", as.Model.Name, as.CBM)
		}
		// Validated here rather than by re-programming through
		// SetAllocation below: setting an allocation equal to the held one
		// is a no-op there, which would let a corrupt level through.
		if err := membw.ValidateLevel(as.MBALevel); err != nil {
			return nil, fmt.Errorf("machine: restore: app %q: %w", as.Model.Name, err)
		}
		if err := validCounters(as.Counters); err != nil {
			return nil, fmt.Errorf("machine: restore: app %q: %w", as.Model.Name, err)
		}
		if as.Active != nil && !*as.Active {
			m.byName[as.Model.Name] = departedSlot
			m.departed = append(m.departed, as.Model.Name)
			continue
		}
		resolved := as.Model.AtTime(m.now)
		m.byName[as.Model.Name] = len(m.apps)
		a := m.nextAppSlot()
		*a = app{
			model:    as.Model,
			alloc:    Alloc{CBM: as.CBM, MBALevel: as.MBALevel},
			counters: as.Counters,
			resolved: resolved,
			digest:   modelDigest(&resolved),
			phaseIdx: as.Model.PhaseIndexAt(m.now),
			phased:   len(as.Model.Phases) > 0,
		}
		if len(as.Model.Phases) > 0 {
			m.hasPhases = true
		}
		m.appsGen++
	}
	for _, name := range snap.Departed {
		if name == "" {
			return nil, fmt.Errorf("machine: restore: departed app with an empty name")
		}
		if _, dup := m.byName[name]; dup {
			return nil, fmt.Errorf("machine: restore: duplicate app %q", name)
		}
		m.byName[name] = departedSlot
		m.departed = append(m.departed, name)
	}
	// Allocations were validated field-by-field above; what remains is
	// the cross-app invariant AddApp would have enforced.
	for _, a := range m.apps {
		used := 0
		for _, b := range m.apps {
			if b.model.Socket == a.model.Socket {
				used += b.model.Cores
			}
		}
		if used > m.cfg.Cores {
			return nil, fmt.Errorf("machine: restore: %d cores demanded on socket %d, %d available",
				used, a.model.Socket, m.cfg.Cores)
		}
	}
	if snap.NoiseCalls > 0 {
		return nil, fmt.Errorf("machine: restore: snapshot records %d draws of the retired math/rand noise stream, which cannot be resumed", snap.NoiseCalls)
	}
	// The jitter stream resumes from its state word in one store. A
	// noise-free machine never draws: its word is the seed position, or
	// absent (0) in snapshots that predate the field.
	if m.cfg.MeasurementNoise != 0 {
		m.noiseSrc.SetState(snap.NoiseState)
	} else if snap.NoiseState != 0 && snap.NoiseState != m.noiseSrc.State() {
		return nil, fmt.Errorf("machine: restore: noise stream state %#x recorded but noise is disabled", snap.NoiseState)
	}
	return m, nil
}

// validCounters rejects non-finite or negative cumulative counters.
func validCounters(c Counters) error {
	for _, v := range [...]float64{c.Instructions, c.LLCAccesses, c.LLCMisses, c.MemoryBytes} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("machine: invalid counter value %v", v)
		}
	}
	return nil
}
