package machine

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"time"

	"repro/internal/membw"
	"repro/internal/splitmix"
)

// Config describes the simulated server. DefaultConfig reproduces Table 1.
// All per-resource fields (cores, LLC, bandwidth) describe ONE socket;
// Sockets multiplies the machine into independent domains.
type Config struct {
	Cores     int     // physical cores per socket
	LLCWays   int     // CAT ways per socket LLC
	WayBytes  float64 // capacity of one way
	LineBytes float64 // cache-line size
	FreqHz    float64 // core frequency
	Sockets   int     // socket count; 0 means 1 (the paper's machine)

	// HitCostCycles is the average visible stall per LLC hit (after
	// out-of-order overlap); MissCostCycles per LLC miss at an idle bus.
	HitCostCycles  float64
	MissCostCycles float64
	// WritebackFactor inflates miss traffic for dirty evictions.
	WritebackFactor float64
	// MeasurementNoise is the standard deviation of multiplicative
	// per-period jitter applied to the simulated counters (0 disables
	// it, the default). Real PMC readings fluctuate period to period —
	// scheduling, interrupts, DRAM refresh — and that fluctuation is
	// what makes the controller's δ_P/Β/Γ thresholds a trade-off
	// (§5.5.3): too small reacts to noise, too large misses signal.
	// Deterministic given NoiseSeed.
	MeasurementNoise float64
	// NoiseSeed seeds the jitter stream.
	NoiseSeed int64

	// MBALatencyK and MBALatencyP shape the extra memory latency
	// introduced by MBA throttling: effective miss cost
	// ×= 1 + K·(1 − level/100)^P. The convex shape (P > 1) matches the
	// published behaviour of MBA: low levels delay requests sharply while
	// upper-mid levels barely affect latency.
	MBALatencyK float64
	MBALatencyP float64

	BW membw.Config
}

// DefaultConfig returns the paper's machine (Table 1): 16 cores at
// 2.1 GHz, 22 MB 11-way LLC (2 MB/way), ~28 GB/s DRAM.
func DefaultConfig() Config {
	return Config{
		Cores:           16,
		LLCWays:         11,
		WayBytes:        2 << 20,
		LineBytes:       64,
		FreqHz:          2.1e9,
		HitCostCycles:   8,
		MissCostCycles:  170,
		WritebackFactor: 1.3,
		MBALatencyK:     1.3,
		MBALatencyP:     3,
		BW: membw.Config{
			TotalBandwidth: 28e9,
			PerCoreCap:     9e9,
			CongestionK:    0.8,
			CongestionP:    4,
		},
	}
}

// SocketCount returns the number of sockets, treating the zero value as 1.
//
//copart:noalloc
func (c Config) SocketCount() int {
	if c.Sockets < 1 {
		return 1
	}
	return c.Sockets
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Cores < 1 || c.LLCWays < 1 {
		return fmt.Errorf("machine: invalid cores=%d ways=%d", c.Cores, c.LLCWays)
	}
	if c.Sockets < 0 {
		return fmt.Errorf("machine: negative socket count %d", c.Sockets)
	}
	if c.WayBytes <= 0 || c.LineBytes <= 0 || c.FreqHz <= 0 {
		return fmt.Errorf("machine: non-positive geometry/frequency")
	}
	if c.HitCostCycles < 0 || c.MissCostCycles <= 0 {
		return fmt.Errorf("machine: invalid stall costs hit=%v miss=%v", c.HitCostCycles, c.MissCostCycles)
	}
	if c.WritebackFactor < 1 {
		return fmt.Errorf("machine: writeback factor %v < 1", c.WritebackFactor)
	}
	if c.MBALatencyK < 0 {
		return fmt.Errorf("machine: negative MBA latency factor %v", c.MBALatencyK)
	}
	if c.MBALatencyP <= 0 {
		return fmt.Errorf("machine: non-positive MBA latency exponent %v", c.MBALatencyP)
	}
	if c.MeasurementNoise < 0 || c.MeasurementNoise >= 0.5 {
		return fmt.Errorf("machine: measurement noise %v outside [0, 0.5)", c.MeasurementNoise)
	}
	return c.BW.Validate()
}

// FullMask returns the CBM with every configured way set.
func (c Config) FullMask() uint64 { return (uint64(1) << c.LLCWays) - 1 }

// Digest fingerprints the solver-visible configuration — the value used
// in solve-cache keys and snapshot compatibility checks. Two configs
// with equal digests are interchangeable to Solve.
func (c Config) Digest() uint64 { return configDigest(c) }

// Counters are the simulated performance-monitoring counters of one
// application, cumulative since launch. Instructions, LLCAccesses, and
// LLCMisses correspond to the three PMCs the paper samples through PAPI
// (§3.2); MemoryBytes is the DRAM traffic actually granted, which backs
// the resctrl MBM emulation (mbm_total_bytes).
type Counters struct {
	Instructions float64
	LLCAccesses  float64
	LLCMisses    float64
	MemoryBytes  float64
}

// Alloc is one application's resource-allocation state (ℓ_i, m_i) of
// §2.3, expressed as a CAT bitmask plus an MBA level.
type Alloc struct {
	CBM      uint64
	MBALevel int
}

// Ways returns the number of ways in the allocation's CBM.
//
//copart:noalloc
func (a Alloc) Ways() int { return bits.OnesCount64(a.CBM) }

// app is the runtime state of one consolidated application.
type app struct {
	model    AppModel
	alloc    Alloc
	counters Counters

	// resolved caches model.AtTime for the active phase index phaseIdx,
	// and digest fingerprints it (phases folded). AtTime depends on time
	// only through the phase index, so both stay valid until the index
	// changes — the per-app dirty bit gatherActive checks. Unphased apps
	// (phaseIdx -1) keep their AddApp-time resolution forever, and the
	// cache-key encoding never re-walks model fields.
	resolved AppModel
	digest   uint64
	phaseIdx int
	phased   bool
}

// Perf is the solved steady-state performance of one application at the
// current system state.
type Perf struct {
	IPS        float64 // achieved aggregate instructions/s
	MissRatio  float64
	AccessRate float64 // LLC accesses/s
	MissRate   float64 // LLC misses/s
	CapBytes   float64 // effective LLC capacity (occupancy share)
	DemandBW   float64 // unconstrained traffic demand, bytes/s
	GrantBW    float64 // granted bandwidth, bytes/s
}

// Machine is the simulated server.
//
// A Machine is NOT safe for concurrent use: the solver reuses
// per-Machine scratch buffers across calls (and Step mutates counters).
// Concurrent experiment cells must each construct their own Machine —
// construction is cheap, and the experiments harness does exactly that.
type Machine struct {
	cfg       Config
	fullMask  uint64 // cfg.FullMask(), hoisted out of the solve path
	cfgDigest uint64 // configDigest(cfg), hoisted out of key encoding
	arbiter   *membw.Arbiter
	// apps holds the live applications in launch order; RemoveApp
	// deletes a slot (keeping the retired *app beyond len for reuse), so
	// every per-period walk covers live apps only. byName maps a live
	// name to its slot and a departed one to departedSlot; departed lists
	// the departed names in removal order. Names are single-use: AddApp
	// refuses both kinds.
	apps     []*app
	byName   map[string]int
	departed []string
	// appsGen counts changes to the live set (see AppsGeneration).
	appsGen uint64
	now     time.Duration // virtual time since construction
	// noiseSrc is the jitter stream: one word, reseeded by Reset in one
	// store and recorded as-is by Snapshot. noiseRNG draws normals from
	// it; it holds no state of its own, is built by New iff noise is
	// enabled, and survives Reset.
	noiseSrc splitmix.Source
	noiseRNG *rand.Rand

	hasPhases bool // any active app carries a phase schedule
	// solveClean reports that scratch.view still holds the solved steady
	// state for the current machine state: no allocation, app set, or
	// snapshot change since the last solveActiveScratch. Phased machines
	// never use it (time itself is a solver input there). It lets a
	// control period whose allocations converged — idle phases, settled
	// exploration — skip the solve path entirely, key encoding and the
	// cache lookup included.
	solveClean bool
	// gatherValid reports that scratch.models/allocs/digests still
	// describe the live set: no app launched or removed since the last
	// full gatherActive pass, and no phases in play. Allocation changes
	// do not invalidate it — SetAllocation patches scratch.allocs in
	// place at the app's slot — so the common one-alloc-changed solve
	// skips re-copying every model struct and digest.
	gatherValid bool
	// scanCursor is lookup's rotation hint: the slot after the last
	// linear-scan hit. Purely a speed hint — every use re-verifies the
	// name and falls back to a full scan — so staleness (after
	// RemoveApp/Reset) is harmless.
	scanCursor int
	scratch    solveScratch
	memoAll    bool // WithSolveCache: every solve is memoized, not only shared-way runs
}

// advanceCursor moves the lookup hint past a scan hit at slot i,
// wrapping so a fixed per-period touch order stays on the one-compare
// path forever.
//
//copart:noalloc
func (m *Machine) advanceCursor(i int) {
	m.scanCursor = i + 1
	if m.scanCursor >= len(m.apps) {
		m.scanCursor = 0
	}
}

// solveScratch holds the solver's reusable buffers. solveDomainInto and
// Solve would otherwise reallocate these every fixed-point round; the
// scratch keeps the steady-state Solve path down to the one allocation
// that is the returned []Perf.
type solveScratch struct {
	models  []AppModel // Solve: resolved active models
	allocs  []Alloc    // Solve: active allocations
	digests []uint64   // resolved-model digests for cache keys
	// key and fp are encodeKey's output: the current cache key bytes and
	// their hashKey fingerprint, which picks the shared cache's shard.
	key []byte
	fp  uint64
	// extDigests serves SolveFor-style external solves that pass no
	// digests: they must not write into digests, which gatherActive may
	// be holding as its memoized active-set snapshot (gatherValid).
	extDigests []uint64
	caps       []float64      // per-app effective LLC capacity
	terms      []appTerms     // per-app miss terms at caps and MBA latency factor
	next       []float64      // occupancyShares output buffer
	bwCaps     []float64      // per-app MBA bandwidth cap (fixed per solve)
	demands    []membw.Demand // arbitration input
	arbRes     membw.Result   // arbitration output (Grants reused)
	perfs      []Perf         // solveActiveScratch solve buffer (Step, Occupancy)
	// view is what the last solveActiveScratch returned: perfs when the
	// state was freshly solved, or the shared cache's immutable entry on
	// a hit — aliased instead of copied, since Step and Occupancy only
	// read it. Never written through.
	view []Perf
}

// appTerms are what one app's demand depends on besides the congestion
// stretch: MissBreakdown at its capacity and its MBA latency factor.
type appTerms struct {
	missRatio, weighted, mbaDelay float64
}

// Option configures a Machine at construction.
type Option func(*Machine)

// WithSolveCache makes the machine memoize every solve in the
// process-wide solve cache (sharedcache.go) — private-partition runs,
// Solve and the queries — for callers whose states repeat across
// machines (fleet nodes, the policies' solo solves). Without it only the
// shared-way states the machine runs (Step, Occupancy) are memoized.
// SolveSession sweeps never are. A hit is bit-identical to recomputing
// barring a model-digest collision, so nothing invalidates it. See
// DESIGN.md §7.4 and §9.
func WithSolveCache() Option {
	return func(m *Machine) { m.memoAll = true }
}

// New builds a machine with the given configuration.
func New(cfg Config, opts ...Option) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	arb, err := membw.New(cfg.BW)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:       cfg,
		fullMask:  cfg.FullMask(),
		cfgDigest: configDigest(cfg),
		arbiter:   arb,
		byName:    make(map[string]int),
	}
	m.noiseSrc.Seed(cfg.NoiseSeed)
	if cfg.MeasurementNoise != 0 {
		m.noiseRNG = rand.New(&m.noiseSrc)
	}
	for _, opt := range opts {
		opt(m)
	}
	return m, nil
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Now returns the current virtual time.
func (m *Machine) Now() time.Duration { return m.now }

// departedSlot is byName's value for a departed application's name.
const departedSlot = -1

// AddApp launches an application with the full-resource allocation. The
// total core demand across live applications may not exceed the machine.
// A name is single-use: a live or departed application's is refused.
func (m *Machine) AddApp(model AppModel) error {
	if err := model.Validate(); err != nil {
		return err
	}
	if _, dup := m.byName[model.Name]; dup {
		return fmt.Errorf("machine: duplicate app %q", model.Name)
	}
	if model.Socket >= m.cfg.SocketCount() {
		return fmt.Errorf("machine: app %s on socket %d, machine has %d",
			model.Name, model.Socket, m.cfg.SocketCount())
	}
	used := model.Cores
	for _, a := range m.apps {
		if a.model.Socket == model.Socket {
			used += a.model.Cores
		}
	}
	if used > m.cfg.Cores {
		return fmt.Errorf("machine: %d cores demanded on socket %d, %d available",
			used, model.Socket, m.cfg.Cores)
	}
	m.byName[model.Name] = len(m.apps)
	resolved := model.AtTime(m.now)
	a := m.nextAppSlot()
	*a = app{
		model:    model,
		alloc:    Alloc{CBM: m.fullMask, MBALevel: membw.MaxLevel},
		resolved: resolved,
		digest:   modelDigest(&resolved),
		phaseIdx: model.PhaseIndexAt(m.now),
		phased:   len(model.Phases) > 0,
	}
	if len(model.Phases) > 0 {
		m.hasPhases = true
	}
	m.appsGen++
	m.solveClean = false
	m.gatherValid = false
	return nil
}

// nextAppSlot appends one app slot, reusing a retired *app kept beyond
// len by Reset when one exists (the pooled-fleet path relaunches the
// same slot counts every node, so steady-state AddApp touches no heap).
func (m *Machine) nextAppSlot() *app {
	n := len(m.apps)
	if n < cap(m.apps) {
		m.apps = m.apps[:n+1]
		if m.apps[n] == nil {
			m.apps[n] = &app{}
		}
	} else {
		m.apps = append(m.apps, &app{})
	}
	return m.apps[n]
}

// Reset retires every application and rewinds virtual time to zero,
// keeping the machine's configuration, arbiter and solver scratch. A
// reset machine behaves bit-identically to a freshly constructed one with
// the same configuration: the fleet's node-runtime pool relies on exactly
// that (DESIGN.md §12). App slots are retained beyond len for reuse by
// AddApp; the jitter stream is reseeded in one store.
//
//copart:noalloc
func (m *Machine) Reset() {
	for _, a := range m.apps[:cap(m.apps)] {
		if a == nil {
			break
		}
		*a = app{}
	}
	m.apps = m.apps[:0]
	clear(m.byName)
	m.departed = m.departed[:0]
	m.appsGen++
	m.now = 0
	m.noiseSrc.Seed(m.cfg.NoiseSeed)
	m.hasPhases = false
	m.solveClean = false
	m.gatherValid = false
}

// RemoveApp terminates an application (the idle phase detects this as a
// change event). Its slot is deleted — the apps after it shift down one,
// keeping launch order — and its counters become unavailable; only its
// name stays behind, taken for good.
func (m *Machine) RemoveApp(name string) error {
	i, ok := m.byName[name]
	if !ok {
		return fmt.Errorf("machine: unknown app %q", name)
	}
	if i == departedSlot {
		return fmt.Errorf("machine: app %q already removed", name)
	}
	gone := m.apps[i]
	last := len(m.apps) - 1
	copy(m.apps[i:], m.apps[i+1:])
	*gone = app{}
	m.apps[last] = gone // retired beyond len, for nextAppSlot to reuse
	m.apps = m.apps[:last]
	for j := i; j < last; j++ {
		m.byName[m.apps[j].model.Name] = j
	}
	m.byName[name] = departedSlot
	m.departed = append(m.departed, name)
	m.appsGen++
	m.solveClean = false
	m.gatherValid = false
	return nil
}

// Apps lists the names of live applications in launch order. The
// returned slice is freshly allocated; hot-path callers should prefer
// AppsInto with a reused buffer.
func (m *Machine) Apps() []string {
	return m.AppsInto(make([]string, 0, len(m.apps)))
}

// AppsInto appends the live application names to dst[:0] and returns
// it, reusing dst's backing array when the capacity suffices. The
// controller polls the application list every control period to detect
// consolidation changes; with a caller-owned dst that poll is
// allocation-free.
func (m *Machine) AppsInto(dst []string) []string {
	dst = dst[:0]
	for _, a := range m.apps {
		dst = append(dst, a.model.Name)
	}
	return dst
}

// AppsGeneration counts the calls that can change what Apps returns —
// AddApp, RemoveApp, Reset, RestoreSnapshot's inserts — so a poller that
// read the list under a value knows, while the value stands, that the
// list does. Not serialized: a restore starts a new count.
func (m *Machine) AppsGeneration() uint64 { return m.appsGen }

// NameUsed reports whether name belongs to a live or a departed
// application — whether AddApp would refuse it as a duplicate.
func (m *Machine) NameUsed(name string) bool {
	_, ok := m.byName[name]
	return ok
}

// Model returns the model of a live application.
func (m *Machine) Model(name string) (AppModel, error) {
	i, err := m.slotOf(name)
	if err != nil {
		return AppModel{}, err
	}
	return m.apps[i].model, nil
}

// slotOf resolves a live application's slot through byName, naming a
// departed one as such.
func (m *Machine) slotOf(name string) (int, error) {
	i, ok := m.byName[name]
	if !ok {
		return 0, fmt.Errorf("machine: unknown app %q", name)
	}
	if i == departedSlot {
		return 0, fmt.Errorf("machine: app %q is not active", name)
	}
	return i, nil
}

// smallAppScan bounds the linear-scan fast path in lookup: at or below
// this many slots a name is resolved by scanning the app array instead
// of hashing it into byName. Controllers pass the same interned name
// strings every period, so the comparisons hit Go's pointer-equality
// fast path and the per-period ReadCounters/SetAllocation sweep skips
// the string-hash entirely — on a consolidation-sized machine that hash
// was the single hottest machine-layer instruction in a fleet profile.
// Departed apps hold no slot, so a consolidation-sized daemon stays on
// it however many apps it has served.
const smallAppScan = 8

// lookup resolves a live application's slot.
func (m *Machine) lookup(name string) (int, error) {
	if len(m.apps) <= smallAppScan {
		// Cursor hint first: controllers touch their apps in a fixed
		// rotation (the sampling sweep, applyState), so the next lookup
		// almost always matches at the cursor on one pointer-equal
		// comparison. Missing the hint costs one extra compare; the scan
		// below still covers every slot. Same-length sibling names (the
		// mix generators emit "kind-0", "kind-1", …) defeat the length
		// shortcut and fall into byte-wise comparison, which made the
		// plain scan the hottest machine-layer block in a fleet profile.
		if c := m.scanCursor; c < len(m.apps) && m.apps[c].model.Name == name {
			m.advanceCursor(c)
			return c, nil
		}
		for i, a := range m.apps {
			if a.model.Name == name {
				m.advanceCursor(i)
				return i, nil
			}
		}
	}
	return m.slotOf(name)
}

// SetAllocation updates an application's (CBM, MBA level). Setting the
// allocation an application already holds is a no-op: it revalidates
// nothing (equality to a held allocation proves validity) and leaves
// the solved steady state clean, so the following Step skips its solve.
func (m *Machine) SetAllocation(name string, alloc Alloc) error {
	i, err := m.lookup(name)
	if err != nil {
		return err
	}
	a := m.apps[i]
	if a.alloc == alloc {
		return nil
	}
	if alloc.CBM == 0 || alloc.CBM&^m.fullMask != 0 {
		return fmt.Errorf("machine: invalid CBM %#x for %d ways", alloc.CBM, m.cfg.LLCWays)
	}
	if !contiguous(alloc.CBM) {
		return fmt.Errorf("machine: CBM %#x is not contiguous (CAT requires contiguous masks)", alloc.CBM)
	}
	if err := membw.ValidateLevel(alloc.MBALevel); err != nil {
		return err
	}
	a.alloc = alloc
	if m.gatherValid {
		m.scratch.allocs[i] = alloc
	}
	m.solveClean = false
	return nil
}

// Allocation returns an application's current allocation.
func (m *Machine) Allocation(name string) (Alloc, error) {
	i, err := m.lookup(name)
	if err != nil {
		return Alloc{}, err
	}
	return m.apps[i].alloc, nil
}

// ReadCounters returns a copy of an application's cumulative counters.
func (m *Machine) ReadCounters(name string) (Counters, error) {
	i, err := m.lookup(name)
	if err != nil {
		return Counters{}, err
	}
	return m.apps[i].counters, nil
}

// contiguous reports whether the set bits of mask form one contiguous run.
func contiguous(mask uint64) bool {
	if mask == 0 {
		return false
	}
	shifted := mask >> uint(bits.TrailingZeros64(mask))
	return shifted&(shifted+1) == 0
}

// Step advances virtual time by dt, accumulating counters at the solved
// steady-state rates.
//
//copart:noalloc
func (m *Machine) Step(dt time.Duration) error {
	if dt <= 0 {
		return fmt.Errorf("machine: non-positive step %v", dt)
	}
	// The solved rates are consumed within this call, so Step reads them
	// from the machine-owned scratch instead of Solve's retained copy —
	// the per-control-period path stays allocation-free.
	perfs, err := m.solveActiveScratch()
	if err != nil {
		return err
	}
	secs := dt.Seconds()
	if m.cfg.MeasurementNoise == 0 {
		// Noise-free accumulation skips the per-app factor draws; the
		// factors are exactly 1 there, so the sums are bit-identical to
		// the noisy loop's.
		for i, a := range m.apps {
			p := perfs[i]
			a.counters.Instructions += p.IPS * secs
			a.counters.LLCAccesses += p.AccessRate * secs
			a.counters.LLCMisses += p.MissRate * secs
			a.counters.MemoryBytes += p.GrantBW * secs
		}
	} else {
		for i, a := range m.apps {
			p := perfs[i]
			perfNoise, missNoise := m.noiseFactors()
			a.counters.Instructions += p.IPS * secs * perfNoise
			a.counters.LLCAccesses += p.AccessRate * secs * perfNoise
			a.counters.LLCMisses += p.MissRate * secs * perfNoise * missNoise
			a.counters.MemoryBytes += p.GrantBW * secs * perfNoise * missNoise
		}
	}
	m.now += dt
	// Phase advances invalidate nothing: the cache key is exact over
	// resolved models, so entries from an old phase simply stop being
	// looked up.
	return nil
}

// Stationary reports whether every period of the same length adds the
// same increments to every counter while nothing is reprogrammed: no
// measurement noise and no phased app. A controller uses it to tell that
// an unchanged machine will measure the same rates again
// (core.Manager.SkipIdle).
//
//copart:noalloc
func (m *Machine) Stationary() bool { return m.cfg.MeasurementNoise == 0 && !m.hasPhases }

// noiseFactors draws the per-period measurement jitter: a factor on the
// whole counter stream (execution-speed jitter) and an additional
// independent factor on the miss-related counters (cache-behaviour
// jitter). Both are 1 when noise is disabled.
//
//copart:noalloc
func (m *Machine) noiseFactors() (perf, miss float64) {
	sigma := m.cfg.MeasurementNoise
	if sigma == 0 {
		return 1, 1
	}
	return clampNoise(1 + m.noiseRNG.NormFloat64()*sigma),
		clampNoise(1 + m.noiseRNG.NormFloat64()*sigma)
}

// clampNoise bounds a jitter factor to [0.5, 1.5], keeping counters
// monotone and a tail draw from dominating a period.
//
//copart:noalloc
func clampNoise(f float64) float64 { return min(max(f, 0.5), 1.5) }

// Occupancy returns an application's current effective LLC occupancy in
// bytes (its capacity share at the solved steady state) — the quantity
// resctrl's llc_occupancy monitoring file reports. Perf results are
// indexed by slot, which the name table resolves directly, so the call
// costs one scratch solve and nothing else.
func (m *Machine) Occupancy(name string) (float64, error) {
	i, err := m.slotOf(name)
	if err != nil {
		return 0, err
	}
	perfs, err := m.solveActiveScratch()
	if err != nil {
		return 0, err
	}
	return perfs[i].CapBytes, nil
}

// gatherActive resolves the live models, allocations, and model
// digests into the scratch buffers shared by Solve and
// solveActiveScratch. Resolution and digests are maintained
// incrementally per app: unphased apps keep their AddApp-time
// resolution forever, and a phased app re-resolves (and re-digests)
// only when its *phase index* changed since it was last solved — the
// per-app dirty bit. AtTime depends on time only through that index,
// so the cached resolution is exact, and one app crossing a phase
// boundary never touches its neighbours' cached state.
//
//copart:noalloc
func (m *Machine) gatherActive() ([]AppModel, []Alloc, []uint64) {
	sc := &m.scratch
	// Memoized pass: the live set is unchanged and unphased, so the
	// scratch still holds every model struct and digest — SetAllocation
	// kept sc.allocs current in place. Copying the model structs was the
	// single largest block move in a fleet period sweep.
	if m.gatherValid && !m.hasPhases {
		return sc.models, sc.allocs, sc.digests
	}
	sc.models = sc.models[:0]
	sc.allocs = sc.allocs[:0]
	sc.digests = sc.digests[:0]
	for _, a := range m.apps {
		if a.phased {
			if idx := a.model.PhaseIndexAt(m.now); idx != a.phaseIdx {
				a.resolved = a.model.AtTime(m.now) //copart:allocok phase-boundary refresh, amortized over the phase's many periods
				a.phaseIdx = idx
				a.digest = modelDigest(&a.resolved)
			}
		}
		sc.models = append(sc.models, a.resolved)
		sc.allocs = append(sc.allocs, a.alloc)
		sc.digests = append(sc.digests, a.digest)
	}
	if !m.hasPhases {
		m.gatherValid = true
	}
	return sc.models, sc.allocs, sc.digests
}

// Solve computes the steady-state performance of every active application
// at the current system state and virtual time (phased models resolve to
// their active phase), in Apps() order. The machine state is not
// modified. The returned slice is freshly allocated and safe to retain.
//
//copart:noalloc
func (m *Machine) Solve() ([]Perf, error) {
	models, allocs, digests := m.gatherActive()
	if len(models) == 0 {
		return nil, nil
	}
	perfs := make([]Perf, len(models)) //copart:allocok the returned slice is the API contract: callers may retain it
	if err := m.solveForInto(perfs, models, allocs, digests, true); err != nil {
		return nil, err
	}
	return perfs, nil
}

// solveActiveScratch is Solve writing into the machine-owned perfs
// scratch, memoized on every machine for shared-way states: zero
// allocations at steady state, valid only until the next solve. Step and
// Occupancy consume the results immediately and use it instead of Solve.
//
//copart:noalloc
func (m *Machine) solveActiveScratch() ([]Perf, error) {
	// Work skipping: when nothing a solver reads has changed since the
	// last scratch solve, the previous steady state is still exact —
	// return it without touching the cache. Phased machines are
	// excluded because their resolved models move with virtual time.
	if m.solveClean && !m.hasPhases {
		return m.scratch.view, nil
	}
	models, allocs, digests := m.gatherActive()
	if len(models) == 0 {
		return nil, nil
	}
	sc := &m.scratch
	if cap(sc.perfs) < len(models) {
		sc.perfs = make([]Perf, len(models))
	}
	sc.perfs = sc.perfs[:len(models)]
	// solveRef hands back the cache's entry directly on a hit — the
	// dominant fleet steady state — so the per-period path moves no Perf
	// structs at all; only a fresh solve writes into sc.perfs.
	out, err := m.solveRef(sc.perfs, models, allocs, digests, true, m.memoAll || m.anySharedWay(allocs))
	if err != nil {
		return nil, err
	}
	sc.view = out
	m.solveClean = true
	return out, nil
}

// SolveFor solves the model for an arbitrary hypothetical set of
// applications and allocations — used by the ST oracle policy and the
// characterization sweeps without touching machine state. The returned
// slice is freshly allocated and safe to retain.
func (m *Machine) SolveFor(models []AppModel, allocs []Alloc) ([]Perf, error) {
	if len(models) == 0 && len(allocs) == 0 {
		return nil, nil
	}
	perfs := make([]Perf, len(models))
	if err := m.solveForInto(perfs, models, allocs, nil, false); err != nil {
		return nil, err
	}
	return perfs, nil
}

// SolveForInto is SolveFor writing the steady state into perfs
// (len(perfs) must equal len(models)). Callers that score many
// hypothetical states reuse one perfs buffer and keep the scoring loop
// allocation-free. Callers solving one fixed model set at many
// allocations — the ST oracle's exhaustive search evaluates tens of
// thousands per mix — should prefer a SolveSession.
func (m *Machine) SolveForInto(perfs []Perf, models []AppModel, allocs []Alloc) error {
	if len(perfs) != len(models) {
		return fmt.Errorf("machine: %d perf slots for %d models", len(perfs), len(models))
	}
	return m.solveForInto(perfs, models, allocs, nil, false)
}

// SolveSession solves one fixed set of models at many allocations. With
// the models fixed, an app's miss terms depend only on its way count and
// its MBA delay and bandwidth cap only on its level, so the session
// tabulates them and feeds solvePrivate, the kernel the general path
// runs. Sessions are uncached — a table-fed solve is cheaper than a
// shared-cache hit (DESIGN.md §9.1) — and multi-socket machines and
// overlapping CBMs take the general uncached path. Results are
// bit-identical to SolveFor's.
//
// The models slice is captured by reference and must not be mutated
// while the session is in use; the session shares the machine's scratch
// and is no more goroutine-safe than the machine itself.
type SolveSession struct {
	m      *Machine
	models []AppModel
	miss   []missTerms // [app*(LLCWays+1) + ways], filled at construction
	mba    []mbaTerms  // [app*mbaLevels + level/Granularity], filled on first use
}

// missTerms is one app's capacity and MissBreakdown at a number of
// exclusive ways; mbaTerms its MBA latency factor and cap at a level
// (delay 0 marks an unfilled slot: a real factor is ≥ 1).
type (
	missTerms struct{ capBytes, missRatio, weighted float64 }
	mbaTerms  struct{ delay, bwCap float64 }
)

const mbaLevels = membw.MaxLevel/membw.Granularity + 1

// NewSolveSession prepares a table-backed solving session over models.
func (m *Machine) NewSolveSession(models []AppModel) *SolveSession {
	ways := m.cfg.LLCWays
	s := &SolveSession{
		m:      m,
		models: models,
		miss:   make([]missTerms, len(models)*(ways+1)),
		mba:    make([]mbaTerms, len(models)*mbaLevels),
	}
	for i := range models {
		// Capacity accumulates way by way, exactly as
		// initialCapacitiesInto sums an exclusive CBM.
		mt := s.miss[i*(ways+1):]
		for k := 1; k <= ways; k++ {
			mt[k].capBytes = mt[k-1].capBytes + m.cfg.WayBytes
			mt[k].missRatio, mt[k].weighted = models[i].MissBreakdown(mt[k].capBytes)
		}
	}
	return s
}

// SolveInto solves the session's models at allocs into perfs
// (len(perfs) must equal len(models)), validating as SolveFor does.
//
//copart:noalloc
func (s *SolveSession) SolveInto(perfs []Perf, allocs []Alloc) error {
	m := s.m
	if len(perfs) != len(s.models) {
		return fmt.Errorf("machine: %d perf slots for %d models", len(perfs), len(s.models))
	}
	if err := m.validateExternal(s.models, allocs); err != nil {
		return err
	}
	if m.cfg.SocketCount() > 1 || m.anySharedWay(allocs) {
		return m.solveFresh(perfs, s.models, allocs)
	}
	sc := &m.scratch
	sc.size(len(allocs))
	for i, al := range allocs {
		bt, err := s.mbaAt(i, al.MBALevel)
		if err != nil {
			return err
		}
		mt := s.miss[i*(m.cfg.LLCWays+1)+al.Ways()]
		sc.caps[i], sc.bwCaps[i] = mt.capBytes, bt.bwCap
		sc.terms[i] = appTerms{mt.missRatio, mt.weighted, bt.delay}
		sc.demands[i] = membw.Demand{MBALevel: al.MBALevel, Cores: s.models[i].Cores}
	}
	return m.solvePrivate(perfs, s.models)
}

// mbaAt returns app i's MBA terms at a valid level, filling the slot on
// first use.
//
//copart:noalloc
func (s *SolveSession) mbaAt(i, level int) (mbaTerms, error) {
	bt := &s.mba[i*mbaLevels+level/membw.Granularity]
	if bt.delay == 0 {
		bwCap, err := s.m.arbiter.Cap(level, s.models[i].Cores)
		if err != nil {
			return mbaTerms{}, err
		}
		*bt = mbaTerms{s.m.mbaDelay(level), bwCap}
	}
	return *bt, nil
}

// IPSBounds brackets the IPS SolveInto gives app in any exclusive-CBM
// state where it holds ways ways at MBA level, whatever the other apps
// hold (DESIGN.md §9.1). The congestion stretch lies in [1, 1+K] and the
// roofline only lowers IPS, so hi is the unconstrained rate at stretch 1.
// lo is the smaller of the rate at stretch 1+K and, for an app that
// misses, its rate on the bandwidth it is granted at least:
// water-filling gives everyone min(want, TotalBandwidth/n). Bounds hold
// up to a few ulps; callers add slack. ok is false when the session
// would leave its table path (multi-socket) or the arguments are out of
// range: no bracket then.
func (s *SolveSession) IPSBounds(app, ways, level int) (lo, hi float64, ok bool) {
	m := s.m
	if m.cfg.SocketCount() > 1 || app < 0 || app >= len(s.models) ||
		ways < 1 || ways > m.cfg.LLCWays || membw.ValidateLevel(level) != nil {
		return 0, 0, false
	}
	bt, err := s.mbaAt(app, level)
	if err != nil {
		return 0, 0, false
	}
	model, mt := &s.models[app], s.miss[app*(m.cfg.LLCWays+1)+ways]
	t := appTerms{mt.missRatio, mt.weighted, bt.delay}
	hi, _ = m.appDemand(model, t, 1)
	lo, _ = m.appDemand(model, t, 1+m.cfg.BW.CongestionK)
	if mt.missRatio > 0 {
		fair := min(bt.bwCap, m.cfg.BW.TotalBandwidth/float64(len(s.models)))
		lo = min(lo, fair/(model.AccPerInstr*mt.missRatio*m.cfg.LineBytes*m.cfg.WritebackFactor))
	}
	return lo, hi, true
}

// solveForInto is the entry of Solve and the queries: validate, consult
// the process-wide memo (WithSolveCache machines only), and solve
// per socket domain, writing the steady state into perfs
// (len(perfs) == len(models)). digests must either be nil (computed on
// demand into scratch) or hold modelDigest of each resolved model.
// trusted skips the per-app input validation loop: it is set only for
// the machine's own state (solveActiveScratch, Solve), where every
// allocation was validated by SetAllocation on the way in and every
// model by AddApp — re-checking each app on each of a control run's
// thousands of solves was pure overhead.
//
//copart:noalloc
func (m *Machine) solveForInto(perfs []Perf, models []AppModel, allocs []Alloc, digests []uint64, trusted bool) error {
	out, err := m.solveRef(perfs, models, allocs, digests, trusted, m.memoAll)
	if err != nil {
		return err
	}
	if len(out) != 0 && &out[0] != &perfs[0] {
		copy(perfs, out)
	}
	return nil
}

// validateExternal checks a hypothetical state handed in from outside
// the machine (SolveFor, sessions).
//
//copart:noalloc
func (m *Machine) validateExternal(models []AppModel, allocs []Alloc) error {
	if len(models) != len(allocs) {
		return fmt.Errorf("machine: %d models, %d allocs", len(models), len(allocs))
	}
	sockets := m.cfg.SocketCount()
	for i, al := range allocs {
		if al.CBM == 0 || al.CBM&^m.fullMask != 0 {
			return fmt.Errorf("machine: invalid CBM %#x for app %d", al.CBM, i)
		}
		if err := membw.ValidateLevel(al.MBALevel); err != nil {
			return fmt.Errorf("machine: app %d: %w", i, err)
		}
		if s := models[i].Socket; s < 0 || s >= sockets {
			return fmt.Errorf("machine: app %d on socket %d, machine has %d",
				i, s, sockets)
		}
	}
	return nil
}

// solveRef is solveForInto returning the steady state by reference: on
// a cache hit it hands back the cache's immutable entry instead of
// copying it into perfs, and only a fresh solve writes perfs (and
// returns it). Callers either copy (solveForInto) or treat the result as
// read-only (solveActiveScratch, whose consumers Step and Occupancy
// never write). Trusted callers pass gatherActive's lockstep slices.
//
//copart:noalloc
func (m *Machine) solveRef(perfs []Perf, models []AppModel, allocs []Alloc, digests []uint64, trusted, memo bool) ([]Perf, error) {
	if !trusted {
		if err := m.validateExternal(models, allocs); err != nil {
			return nil, err
		}
	}
	shared := memo && SharedSolveCacheEnabled()
	if shared {
		if digests == nil {
			sc := &m.scratch
			sc.extDigests = sc.extDigests[:0]
			for i := range models {
				sc.extDigests = append(sc.extDigests, modelDigest(&models[i])) //copart:allocok amortized append growth on the external-solve path
			}
			digests = sc.extDigests
		}
		m.scratch.encodeKey(m.cfgDigest, digests, allocs)
		if cached, ok := sharedSolve.lookup(m.scratch.key, m.scratch.fp); ok {
			return cached, nil
		}
	}
	if err := m.solveFresh(perfs, models, allocs); err != nil {
		return nil, err
	}
	if shared {
		// encodeKey left the key in the scratch; the store makes the
		// state a hit for every machine from the next lookup on.
		entry := make([]Perf, len(perfs)) //copart:allocok cache-miss path: the immutable entry the shared cache will hold
		copy(entry, perfs)
		sharedSolve.store(m.scratch.key, m.scratch.fp, entry)
	}
	return perfs, nil
}

// solveFresh solves a validated state without touching the cache.
// Sockets are independent resource domains: each has its own LLC and
// DRAM budget, so the solver runs per socket and the results are merged
// back in input order.
//
//copart:noalloc
func (m *Machine) solveFresh(perfs []Perf, models []AppModel, allocs []Alloc) error {
	sockets := m.cfg.SocketCount()
	if sockets == 1 {
		return m.solveDomainInto(perfs, models, allocs)
	}
	for s := 0; s < sockets; s++ {
		var idx []int //copart:allocok multi-socket split is off the guarded single-socket hot path
		for i := range models {
			if models[i].Socket == s {
				idx = append(idx, i) //copart:allocok multi-socket split is off the guarded single-socket hot path
			}
		}
		if len(idx) == 0 {
			continue
		}
		subModels := make([]AppModel, len(idx)) //copart:allocok multi-socket split is off the guarded single-socket hot path
		subAllocs := make([]Alloc, len(idx))    //copart:allocok multi-socket split is off the guarded single-socket hot path
		subPerfs := make([]Perf, len(idx))      //copart:allocok multi-socket split is off the guarded single-socket hot path
		for j, i := range idx {
			subModels[j] = models[i]
			subAllocs[j] = allocs[i]
		}
		if err := m.solveDomainInto(subPerfs, subModels, subAllocs); err != nil {
			return err
		}
		for j, i := range idx {
			perfs[i] = subPerfs[j]
		}
	}
	return nil
}

// FlushShared does nothing: a fresh solve is stored in the process-wide
// cache by the miss that produced it. It is kept because the frozen
// benchmark's solve ladder (benchmark/ladder.go) calls it.
func (m *Machine) FlushShared() {}

// solveDomainInto solves one socket's applications against one LLC and
// one DRAM budget, writing the steady state into perfs
// (len(perfs) == len(models)). All intermediate state lives in the
// per-Machine scratch, so the fixed-point rounds are allocation-free.
//
//copart:noalloc
func (m *Machine) solveDomainInto(perfs []Perf, models []AppModel, allocs []Alloc) error {
	sc := &m.scratch
	sc.size(len(models))
	clear(sc.caps)
	m.initialCapacitiesInto(sc.caps, allocs)
	// The MBA latency factor and bandwidth cap depend only on the
	// allocation, which is fixed across rounds — hoist both (and their
	// math.Pow evaluations) out of the fixed-point loop.
	for i := range models {
		sc.terms[i].mbaDelay = m.mbaDelay(allocs[i].MBALevel)
		bwCap, err := m.arbiter.Cap(allocs[i].MBALevel, models[i].Cores)
		if err != nil {
			return err
		}
		sc.bwCaps[i] = bwCap
		sc.demands[i].MBALevel = allocs[i].MBALevel
		sc.demands[i].Cores = models[i].Cores
	}
	// Exclusive CBMs, the common case under every partitioning policy.
	if !m.anySharedWay(allocs) {
		for i := range models {
			sc.terms[i].missRatio, sc.terms[i].weighted = models[i].MissBreakdown(sc.caps[i])
		}
		return m.solvePrivate(perfs, models)
	}
	// Overlapping CBMs: occupancy shares and bus congestion both depend
	// on solved rates; damped fixed-point rounds converge to the sharing
	// equilibrium (the occupancy feedback is non-monotone: losing capacity
	// raises an application's miss rate, which raises its insertion
	// pressure, which wins capacity back).
	stretch := 1.0
	for iter := 0; iter < 10; iter++ {
		for i := range models {
			sc.terms[i].missRatio, sc.terms[i].weighted = models[i].MissBreakdown(sc.caps[i])
		}
		var err error
		if stretch, err = m.arbitrate(models, stretch, 1); err != nil {
			return err
		}
		m.grantedPerfs(perfs, models, stretch)
		sc.next = resize(sc.next, len(models))
		clear(sc.next)
		m.occupancySharesInto(sc.next, allocs, perfs)
		// Damping stabilizes the insertion-pressure feedback loop.
		for i := range sc.caps {
			sc.caps[i] = 0.5*sc.caps[i] + 0.5*sc.next[i]
		}
	}
	return nil
}

// solvePrivate is the kernel for exclusive CBMs: capacities, and with
// them the miss terms, are constants of the solve, so only the congestion
// feedback iterates — three rounds of demand → arbitration → stretch —
// and one final pass builds the Perf structs. The caller has filled the
// scratch's per-app caps, terms, bwCaps and demands (MBALevel, Cores):
// solveDomainInto from the state, a SolveSession from its tables
// (contract and exactness argument: DESIGN.md §7.3).
//
//copart:noalloc
func (m *Machine) solvePrivate(perfs []Perf, models []AppModel) error {
	stretch, err := m.arbitrate(models, 1, 3)
	if err != nil {
		return err
	}
	m.grantedPerfs(perfs, models, stretch)
	return nil
}

// arbitrate runs congestion rounds from the given stretch: every app's
// demand at the current stretch goes through the bandwidth arbiter, whose
// grants (left in scratch.arbRes) imply the next stretch.
//
//copart:noalloc
func (m *Machine) arbitrate(models []AppModel, stretch float64, rounds int) (float64, error) {
	sc := &m.scratch
	for ; rounds > 0; rounds-- {
		for i := range models {
			_, sc.demands[i].Bytes = m.appDemand(&models[i], sc.terms[i], stretch)
		}
		if err := m.arbiter.AllocateCapped(&sc.arbRes, sc.demands, sc.bwCaps); err != nil {
			return 0, err
		}
		stretch = sc.arbRes.Stretch
	}
	return stretch, nil
}

// grantedPerfs builds every app's Perf at the given stretch under the
// grants the last arbitrate left in scratch.arbRes.
//
//copart:noalloc
func (m *Machine) grantedPerfs(perfs []Perf, models []AppModel, stretch float64) {
	sc := &m.scratch
	bytesPerMiss := m.cfg.LineBytes * m.cfg.WritebackFactor
	for i := range models {
		model, mr, grant := &models[i], sc.terms[i].missRatio, sc.arbRes.Grants[i]
		ips, demand := m.appDemand(model, sc.terms[i], stretch)
		if demand > 0 && grant < demand {
			// Bandwidth-bound: the miss stream is limited to the grant
			// (roofline); instruction throughput follows.
			ips = grant / (model.AccPerInstr * mr * bytesPerMiss)
		}
		perfs[i] = Perf{
			IPS:        ips,
			MissRatio:  mr,
			AccessRate: ips * model.AccPerInstr,
			MissRate:   ips * model.AccPerInstr * mr,
			CapBytes:   sc.caps[i],
			DemandBW:   demand,
			GrantBW:    min(demand, grant),
		}
	}
}

// appDemand evaluates one application's unconstrained instruction rate
// and the DRAM traffic it would generate at the given congestion stretch.
//
//copart:noalloc
func (m *Machine) appDemand(model *AppModel, t appTerms, stretch float64) (ips, demand float64) {
	missCycles := m.cfg.MissCostCycles * stretch * t.mbaDelay * t.weighted
	cpi := model.CPIBase + model.AccPerInstr*(m.cfg.HitCostCycles*(1-t.missRatio)+missCycles)
	ips = float64(model.Cores) * m.cfg.FreqHz / cpi
	bytesPerMiss := m.cfg.LineBytes * m.cfg.WritebackFactor
	return ips, ips * model.AccPerInstr * t.missRatio * bytesPerMiss
}

// mbaDelay is the MBA latency factor of a level: 1 + K·(1 − level/100)^P.
//
//copart:noalloc
func (m *Machine) mbaDelay(level int) float64 {
	return 1 + m.cfg.MBALatencyK*math.Pow(1-float64(level)/100, m.cfg.MBALatencyP)
}

// size resizes the per-app solve buffers to n apps, unzeroed: every
// solve overwrites all n slots of each before reading them.
//
//copart:noalloc
func (sc *solveScratch) size(n int) {
	sc.caps, sc.terms = resize(sc.caps, n), resize(sc.terms, n)
	sc.bwCaps, sc.demands = resize(sc.bwCaps, n), resize(sc.demands, n)
}

// resize returns s with length n, reusing its backing array when the
// capacity suffices; surviving contents are stale.
//
//copart:noalloc
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// anySharedWay reports whether any LLC way appears in more than one CBM.
//
//copart:noalloc
func (m *Machine) anySharedWay(allocs []Alloc) bool {
	var seen, overlap uint64
	for _, al := range allocs {
		overlap |= seen & al.CBM
		seen |= al.CBM
	}
	return overlap != 0 && len(allocs) > 1
}

// initialCapacitiesInto seeds the occupancy iteration: each way's
// capacity is split evenly among the applications whose CBM includes
// it. caps must be zeroed with len(caps) == len(allocs).
//
//copart:noalloc
func (m *Machine) initialCapacitiesInto(caps []float64, allocs []Alloc) {
	for w := 0; w < m.cfg.LLCWays; w++ {
		bit := uint64(1) << uint(w)
		sharers := 0
		for _, al := range allocs {
			if al.CBM&bit != 0 {
				sharers++
			}
		}
		if sharers == 0 {
			continue
		}
		per := m.cfg.WayBytes / float64(sharers)
		for i, al := range allocs {
			if al.CBM&bit != 0 {
				caps[i] += per
			}
		}
	}
}

// occupancySharesInto refines effective capacities: within each way, the
// sharing applications occupy space in proportion to their *insertion*
// pressure — the miss rate, since every miss installs a line — with a
// small access-rate term for reuse-driven recency protection. This is
// what makes unpartitioned sharing brutal for cache-friendly
// applications, as on real LRU hardware: a streamer with a high miss
// rate continuously installs dead lines and evicts a neighbour's hot
// set, even though the neighbour's *access* rate may be far higher (the
// interference premise of the paper's §1). Exclusive ways degenerate to
// their full capacity, so partitioned runs are exact.
//
// caps must be zeroed with len(caps) == len(allocs).
//
//copart:noalloc solver inner loop, runs per candidate allocation inside Solve
func (m *Machine) occupancySharesInto(caps []float64, allocs []Alloc, perfs []Perf) {
	// reuseWeight credits a fraction of reuse (hit) traffic as retention
	// pressure: LRU does protect re-referenced lines, just far less than
	// proportionally.
	const reuseWeight = 0.05
	pressure := func(i int) float64 { //copart:allocok non-escaping closure called in-function only, stack-allocated (TestSolveAllocationGuard pins the path)
		hits := perfs[i].AccessRate - perfs[i].MissRate
		return perfs[i].MissRate + reuseWeight*hits
	}
	for w := 0; w < m.cfg.LLCWays; w++ {
		bit := uint64(1) << uint(w)
		totalPressure := 0.0
		sharers := 0
		for i, al := range allocs {
			if al.CBM&bit != 0 {
				totalPressure += pressure(i)
				sharers++
			}
		}
		if sharers == 0 {
			continue
		}
		for i, al := range allocs {
			if al.CBM&bit == 0 {
				continue
			}
			if totalPressure <= 0 {
				caps[i] += m.cfg.WayBytes / float64(sharers)
			} else {
				caps[i] += m.cfg.WayBytes * pressure(i) / totalPressure
			}
		}
	}
}

// SoloPerf solves the performance of a single application running alone
// with the full machine (all ways, MBA 100 %) — the IPS_full denominator
// of Equation 1.
func (m *Machine) SoloPerf(model AppModel) (Perf, error) {
	return m.SoloPerfAt(model, Alloc{CBM: m.cfg.FullMask(), MBALevel: membw.MaxLevel})
}

// SoloPerfAt solves a single application running alone at an arbitrary
// allocation — the primitive behind the Figures 1–3 characterization
// sweeps.
func (m *Machine) SoloPerfAt(model AppModel, alloc Alloc) (Perf, error) {
	perfs, err := m.SolveFor([]AppModel{model}, []Alloc{alloc})
	if err != nil {
		return Perf{}, err
	}
	return perfs[0], nil
}
