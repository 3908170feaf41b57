package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"repro/internal/machine"
	"repro/internal/membw"
	"repro/internal/pmc"
)

// SnapshotVersion identifies the snapshot wire format. Restore rejects
// blobs with a different version: the format is an exact serialization
// of internal state, so cross-version compatibility would be a silent
// determinism break, not a convenience. Version 1 carried the score
// memo's entries and counters; the memo is gone and so are its keys.
const SnapshotVersion = 2

// Snapshot is the complete serializable state of a manager and its
// simulated machine at a between-periods boundary. Restoring it and
// running for a span of target time produces bit-identical
// PeriodReports to the uninterrupted original run (pinned by
// TestSnapshotRestoreBitIdentity and the CI smoke job) — which is what
// turns a production incident into a replayable regression test.
type Snapshot struct {
	Version int              `json:"version"`
	Taken   int64            `json:"takenNs"` // target time at capture, nanoseconds
	Machine machine.Snapshot `json:"machine"`
	Manager ManagerSnapshot  `json:"manager"`
}

// ManagerSnapshot serializes the Manager's control state.
type ManagerSnapshot struct {
	Params    Params             `json:"params"`
	StreamRef map[int]float64    `json:"streamRef"`
	Env       Envelope           `json:"env"`
	Phase     Phase              `json:"phase"`
	Retry     int                `json:"retry"`
	Apps      []AppStateSnapshot `json:"apps"`

	State      AllocState `json:"state"`
	BestState  AllocState `json:"bestState"`
	BestUnfair float64    `json:"bestUnfair"`
	HaveBest   bool       `json:"haveBest"`
	EnvChanged bool       `json:"envChanged,omitempty"`

	FailStreak    int  `json:"failStreak,omitempty"`
	RecoverStreak int  `json:"recoverStreak,omitempty"`
	EqApplied     bool `json:"eqApplied,omitempty"`

	Resilience Resilience `json:"resilience"`
	Features   Features   `json:"features"`
	FreezeLLC  bool       `json:"freezeLLC,omitempty"`
	FreezeMBA  bool       `json:"freezeMBA,omitempty"`

	Sampler  pmc.SamplerSnapshot `json:"sampler"`
	RNGSeed  int64               `json:"rngSeed"`
	RNGDraws uint64              `json:"rngDraws"`
	Weights  map[string]float64  `json:"weights,omitempty"`
}

// AppStateSnapshot is one application's manager-side runtime state.
type AppStateSnapshot struct {
	Name      string             `json:"name"`
	LLC       ClassifierSnapshot `json:"llc"`
	MBA       ClassifierSnapshot `json:"mba"`
	IPSFull   float64            `json:"ipsFull"`
	LastIPS   float64            `json:"lastIPS"`
	HavePerf  bool               `json:"havePerf"`
	WayChange ChangeKind         `json:"wayChange"`
	MBAChange ChangeKind         `json:"mbaChange"`
	IdleIPS   float64            `json:"idleIPS"`
	Weight    float64            `json:"weight"`
}

// ClassifierSnapshot serializes one per-application FSM. Present is
// false before the first profiling pass has built the classifier.
type ClassifierSnapshot struct {
	Present        bool    `json:"present"`
	State          State   `json:"state"`
	ProfiledDemand bool    `json:"profiledDemand,omitempty"`
	Hurt           int     `json:"hurt,omitempty"` // hurtWays / hurtLevel floor
	EntryIPS       float64 `json:"entryIPS,omitempty"`
}

// Snapshot captures the manager's and its target machine's full state.
// It requires SnapshotSource (the RNG stream position must be
// recordable) and a target that exports machine state — the bare
// *machine.Machine does; fault-injection wrappers do not, so a run
// under -faults cannot be snapshotted (the injector's probabilistic
// stream has no export surface), and the error says so.
//
// Call it only between control periods (e.g. from a BetweenPeriods
// hook, or with Run stopped): mid-period state lives in scratch buffers
// the snapshot does not cover.
func (m *Manager) Snapshot() (*Snapshot, error) {
	if m.SnapshotSource == nil {
		return nil, fmt.Errorf("core: snapshot: manager has no SnapshotSource (construct the rng with core.NewSeededRand)")
	}
	exp, ok := m.target.(interface{ Snapshot() machine.Snapshot })
	if !ok {
		return nil, fmt.Errorf("core: snapshot: target %T does not export machine state (fault-injection wrappers cannot be snapshotted)", m.target)
	}
	msnap := exp.Snapshot()
	if msnap.Config.BW.Curve != nil {
		return nil, fmt.Errorf("core: snapshot: machine uses a custom MBA curve, which cannot be serialized")
	}
	seed, draws := m.SnapshotSource.State()
	ms := ManagerSnapshot{
		Params:        m.params,
		StreamRef:     m.streamRef,
		Env:           m.env,
		Phase:         m.phase,
		Retry:         m.retry,
		Apps:          make([]AppStateSnapshot, len(m.apps)),
		State:         m.state.Clone(),
		BestState:     m.bestState.Clone(),
		BestUnfair:    m.bestUnfair,
		HaveBest:      m.haveBest,
		EnvChanged:    m.envChanged,
		FailStreak:    m.failStreak,
		RecoverStreak: m.recoverStreak,
		EqApplied:     m.eqApplied,
		Resilience:    m.Resilience,
		Features:      m.Features,
		FreezeLLC:     m.FreezeLLC,
		FreezeMBA:     m.FreezeMBA,
		Sampler:       m.sampler.Snapshot(),
		RNGSeed:       seed,
		RNGDraws:      draws,
		Weights:       m.weights,
	}
	for i, a := range m.apps {
		ms.Apps[i] = AppStateSnapshot{
			Name:      a.name,
			LLC:       snapshotLLC(a.llc),
			MBA:       snapshotMBA(a.mba),
			IPSFull:   a.ipsFull,
			LastIPS:   a.lastIPS,
			HavePerf:  a.havePerf,
			WayChange: a.wayChange,
			MBAChange: a.mbaChange,
			IdleIPS:   a.idleIPS,
			Weight:    a.weight,
		}
	}
	return &Snapshot{
		Version: SnapshotVersion,
		Taken:   int64(m.target.Now()),
		Machine: msnap,
		Manager: ms,
	}, nil
}

func snapshotLLC(c *LLCClassifier) ClassifierSnapshot {
	if c == nil {
		return ClassifierSnapshot{}
	}
	return ClassifierSnapshot{
		Present:        true,
		State:          c.state,
		ProfiledDemand: c.profiledDemand,
		Hurt:           c.hurtWays,
		EntryIPS:       c.entryIPS,
	}
}

func snapshotMBA(c *MBAClassifier) ClassifierSnapshot {
	if c == nil {
		return ClassifierSnapshot{}
	}
	return ClassifierSnapshot{
		Present:        true,
		State:          c.state,
		ProfiledDemand: c.profiledDemand,
		Hurt:           c.hurtLevel,
		EntryIPS:       c.entryIPS,
	}
}

// Marshal encodes the snapshot as deterministic, versioned JSON:
// encoding/json emits map keys sorted and float64 values in their
// shortest exact representation, so the same state always produces the
// same bytes and a JSON round-trip reproduces every float bit-for-bit.
func (s *Snapshot) Marshal() ([]byte, error) {
	return json.MarshalIndent(s, "", " ")
}

// ParseSnapshot decodes and version-checks a snapshot blob.
func ParseSnapshot(data []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("core: snapshot: %w (this build reads version %d)", err, SnapshotVersion)
	}
	if err := s.checkVersion(); err != nil {
		return nil, err
	}
	return &s, nil
}

// checkVersion rejects a snapshot of any other wire format, naming both
// versions: the blob's (0 when it carries none) and this build's.
func (s *Snapshot) checkVersion() error {
	if s.Version != SnapshotVersion {
		return fmt.Errorf("core: snapshot version %d, this build reads version %d", s.Version, SnapshotVersion)
	}
	return nil
}

// RestoreSnapshot rebuilds the machine and the manager from a snapshot.
// The machine comes back plain, as the daemon builds it (memoizing only
// the shared-way states it runs) — a memo changes speed only.
// The restored manager owns a fresh CountingSource advanced to the
// recorded stream position, so its future decisions are bit-identical
// to the original manager's.
func RestoreSnapshot(snap *Snapshot) (*Manager, *machine.Machine, error) {
	if err := snap.checkVersion(); err != nil {
		return nil, nil, err
	}
	mach, err := machine.RestoreSnapshot(snap.Machine)
	if err != nil {
		return nil, nil, err
	}
	ms := &snap.Manager
	if err := ms.Params.Validate(); err != nil {
		return nil, nil, fmt.Errorf("core: snapshot: %w", err)
	}
	if err := ms.Resilience.Validate(); err != nil {
		return nil, nil, fmt.Errorf("core: snapshot: %w", err)
	}
	cfg := mach.Config()
	if ms.Env.LoWay < 0 || ms.Env.Ways < 1 || ms.Env.LoWay+ms.Env.Ways > cfg.LLCWays {
		return nil, nil, fmt.Errorf("core: snapshot: envelope [%d,%d) outside %d ways",
			ms.Env.LoWay, ms.Env.LoWay+ms.Env.Ways, cfg.LLCWays)
	}
	for level := membw.MinLevel; level <= membw.MaxLevel; level += membw.Granularity {
		if ms.StreamRef[level] <= 0 {
			return nil, nil, fmt.Errorf("core: snapshot: missing STREAM reference for MBA level %d", level)
		}
	}
	if ms.Phase < PhaseProfile || ms.Phase > PhaseDegraded {
		return nil, nil, fmt.Errorf("core: snapshot: unknown phase %d", int(ms.Phase))
	}
	if err := checkDraws(ms.RNGDraws, mach.Now(), ms.Params.Period); err != nil {
		return nil, nil, err
	}
	src := RestoreCountingSource(ms.RNGSeed, ms.RNGDraws)
	m := &Manager{
		params:         ms.Params,
		env:            ms.Env,
		rng:            rand.New(src),
		phase:          ms.Phase,
		retry:          ms.Retry,
		bestUnfair:     ms.BestUnfair,
		haveBest:       ms.HaveBest,
		envChanged:     ms.EnvChanged,
		failStreak:     ms.FailStreak,
		recoverStreak:  ms.RecoverStreak,
		eqApplied:      ms.EqApplied,
		Resilience:     ms.Resilience,
		Features:       ms.Features,
		FreezeLLC:      ms.FreezeLLC,
		FreezeMBA:      ms.FreezeMBA,
		clock:          time.Now, //copart:wallclock ExploreTimes telemetry measures real solver latency
		SnapshotSource: src,
	}
	m.bind(mach, ms.StreamRef)
	m.state.CopyFrom(ms.State)
	m.bestState.CopyFrom(ms.BestState)
	if err := m.sampler.RestoreSnapshot(ms.Sampler); err != nil {
		return nil, nil, fmt.Errorf("core: snapshot: %w", err)
	}
	if len(ms.Weights) > 0 {
		m.weights = make(map[string]float64, len(ms.Weights))
		for name, w := range ms.Weights {
			if !(w > 0) || math.IsInf(w, 1) {
				return nil, nil, fmt.Errorf("core: snapshot: weight %v for %s is not a positive finite number", w, name)
			}
			m.weights[name] = w
		}
	}
	m.apps = make([]*appRT, len(ms.Apps))
	m.names = make([]string, len(ms.Apps))
	for i, as := range ms.Apps {
		if as.Name == "" {
			return nil, nil, fmt.Errorf("core: snapshot: app %d has no name", i)
		}
		if !(as.Weight > 0) || math.IsInf(as.Weight, 1) {
			return nil, nil, fmt.Errorf("core: snapshot: app %q weight %v is not a positive finite number", as.Name, as.Weight)
		}
		m.apps[i] = &appRT{
			name:      as.Name,
			llc:       restoreLLC(ms.Params, ms.Features, as.LLC),
			mba:       restoreMBA(ms.Params, ms.Features, as.MBA),
			ipsFull:   as.IPSFull,
			lastIPS:   as.LastIPS,
			havePerf:  as.HavePerf,
			wayChange: as.WayChange,
			mbaChange: as.MBAChange,
			idleIPS:   as.IdleIPS,
			weight:    as.Weight,
		}
		m.names[i] = as.Name
	}
	if m.phase == PhaseExplore || m.phase == PhaseIdle {
		if err := m.state.Validate(m.env.Ways); err != nil {
			return nil, nil, fmt.Errorf("core: snapshot: %w", err)
		}
		if len(m.state.Ways) != len(m.apps) {
			return nil, nil, fmt.Errorf("core: snapshot: state covers %d apps, manager has %d",
				len(m.state.Ways), len(m.apps))
		}
		for _, a := range m.apps {
			if a.llc == nil || a.mba == nil {
				return nil, nil, fmt.Errorf("core: snapshot: app %q in phase %v without classifiers", a.name, m.phase)
			}
		}
	}
	return m, mach, nil
}

// maxDrawsPerPeriod bounds the RNG draws one control period can make. A
// period draws at most two coin flips per app in the matcher and
// 64 × 3 Intn calls in the neighbour search; real 600 s runs average
// well under one draw a period.
const maxDrawsPerPeriod = 1024

// checkDraws refuses a snapshot that claims more RNG draws than the
// periods up to its own clock can have made. RestoreCountingSource
// replays the draws one at a time, so an unchecked count would stall
// the restore. The comparison divides instead of multiplying, so no
// clock value can overflow it.
func checkDraws(draws uint64, now, period time.Duration) error {
	periods := uint64(now/period) + 1
	if draws > 0 && (draws-1)/maxDrawsPerPeriod >= periods {
		return fmt.Errorf("core: snapshot: %d RNG draws exceed the %d a period allows over the %d periods to t=%v",
			draws, maxDrawsPerPeriod, periods, now)
	}
	return nil
}

func restoreLLC(params Params, f Features, cs ClassifierSnapshot) *LLCClassifier {
	if !cs.Present {
		return nil
	}
	c := NewLLCClassifier(params, cs.State, cs.ProfiledDemand)
	c.UseFeatures(f)
	c.hurtWays = cs.Hurt
	c.entryIPS = cs.EntryIPS
	return c
}

func restoreMBA(params Params, f Features, cs ClassifierSnapshot) *MBAClassifier {
	if !cs.Present {
		return nil
	}
	c := NewMBAClassifier(params, cs.State, cs.ProfiledDemand)
	c.UseFeatures(f)
	c.hurtLevel = cs.Hurt
	c.entryIPS = cs.EntryIPS
	return c
}

// ReplaySnapshot restores a snapshot and runs the manager for d of
// target time, returning the period reports — the primitive behind
// copartd -restore and cmd/snap2test.
func ReplaySnapshot(snap *Snapshot, d time.Duration) ([]PeriodReport, error) {
	mgr, _, err := RestoreSnapshot(snap)
	if err != nil {
		return nil, err
	}
	var reports []PeriodReport
	mgr.OnPeriod = func(r PeriodReport) { reports = append(reports, r) }
	if err := mgr.Run(d); err != nil {
		return reports, err
	}
	return reports, nil
}

// ReportsEqual reports whether two report sequences are bit-identical:
// every float is compared by its IEEE 754 bit pattern, so even
// sub-ULP divergence (a determinism break) is caught.
func ReportsEqual(a, b []PeriodReport) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reportEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

func reportEqual(a, b PeriodReport) bool {
	return a.Time == b.Time && a.Phase == b.Phase &&
		sameNames(a.Apps, b.Apps) && sameBits(a.Slowdowns, b.Slowdowns) &&
		math.Float64bits(a.Unfairness) == math.Float64bits(b.Unfairness) &&
		a.State.Equal(b.State)
}

// ReportsDigest hashes a report sequence (FNV-1a over an exact binary
// encoding of times, phases, apps, slowdown bits, unfairness bits, and
// states). Two sequences digest equal iff ReportsEqual would accept
// them, which lets generated regression tests embed one uint64 instead
// of the full report dump.
func ReportsDigest(reports []PeriodReport) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	wu := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wu(uint64(len(reports)))
	for _, r := range reports {
		wu(uint64(r.Time))
		wu(uint64(r.Phase))
		wu(uint64(len(r.Apps)))
		for _, app := range r.Apps {
			h.Write([]byte(app))
			h.Write([]byte{0})
		}
		for _, s := range r.Slowdowns {
			wu(math.Float64bits(s))
		}
		wu(math.Float64bits(r.Unfairness))
		for _, w := range r.State.Ways {
			wu(uint64(w))
		}
		for _, l := range r.State.MBA {
			wu(uint64(l))
		}
	}
	return h.Sum64()
}
