// Package fleet drives many independent simulated CoPart nodes
// concurrently — the fleet-scale benchmark behind cmd/fleetbench.
//
// Each node is a self-contained consolidation scenario: its own
// simulated machine (with the solve cache), its own workload mix drawn
// deterministically from the fleet seed, and its own resource manager.
// Nodes share nothing mutable, so the fleet fans out over
// internal/parallel under its determinism contract: node i's outcome is
// a pure function of (Config, i), results land by index, and the
// deterministic part of the result — everything in NodeResult, plus the
// structural per-block figures — is bit-identical at any worker count.
// Wall-clock figures (throughput, period-latency percentiles) are
// reported separately and are the only nondeterministic outputs.
//
// Dispatch is block-batched: nodes are partitioned into fixed-size
// contiguous blocks (a pure function of Config — never of the worker
// count) and parallel.ForEachBlock fans the blocks out. Each block owns
// a private telemetry stripe (stripe.go) — its latency sampler and its
// share of every fleet counter — written with plain stores and merged
// deterministically in block order at run end, and a block hands its
// node runtime directly from a departing node to the next arrival
// without a pool round-trip. Batching is what makes the steady-state
// run allocation-free end to end: the sequential dispatch path invokes
// a package-level function (no closure), the stripes and result slices
// are reused via RunInto, and the per-node period loop was already
// allocation-free.
//
// Two read-only structures ARE shared, because they are pure functions
// of the machine configuration: the process-wide solve cache (whose
// entries are exact, so sharing shifts timing but never values) and a
// per-configuration workloads.MixCache of precomputed mixes and STREAM
// reference rates.
//
// Node substrates are pooled: a finished node's machine, manager, and
// RNG go back to a free list (or carry over within a block), and the
// next node reinitializes them in place (machine.Reset,
// core.Manager.Reuse, Source.Seed) instead of allocating fresh ones.
// Reinitialization is exact — a pooled node's NodeResult is
// bit-identical to an unpooled one's, pinned by TestFleetPoolGolden —
// so pooling, like the caches, trades allocation for nothing.
//
// A fleet node is controlled exactly like a stand-alone one: the
// default core.Features, every period measured, Equation 2 through
// fairness.Unfairness. TestFleetNodeMatchesStandalone rebuilds nodes by
// hand and requires bit-equal outcomes, so everything above — pool,
// carries, profile memos, the solve cache — changes speed, never
// values.
package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/parallel"
	"repro/internal/splitmix"
	"repro/internal/workloads"
)

// Config sizes the fleet.
type Config struct {
	// Nodes is the number of simulated nodes.
	Nodes int
	// Periods is the number of control periods each node executes after
	// its initial profiling phase.
	Periods int
	// Seed derives every node's workload mix and manager RNG; two runs
	// with the same Config produce identical NodeResults.
	Seed int64
	// Machine configures each node's hardware; the zero value selects
	// machine.DefaultConfig().
	Machine machine.Config
	// Block is the dispatch block size: nodes are executed in contiguous
	// blocks of this many, each block one schedulable unit with its own
	// telemetry stripe. 0 selects the default, Nodes/32 clamped to
	// [1, 64]. The block size is deliberately a function of the Config
	// alone — never of the worker count — so the stripe structure, the
	// sampled latency population, and every per-block figure are
	// identical at any -parallel setting.
	Block int
}

// maxMixApps caps the per-node consolidation size (the paper evaluates
// mixes of up to 6 applications). It also sizes the per-node slots of
// Run's allocation arena.
const maxMixApps = 6

// blockSize resolves the dispatch block size (see Config.Block).
func (c Config) blockSize() int {
	if c.Block > 0 {
		if c.Block > c.Nodes {
			return c.Nodes
		}
		return c.Block
	}
	b := c.Nodes / 32
	if b < 1 {
		b = 1
	}
	if b > 64 {
		b = 64
	}
	return b
}

// perStripeCap splits the fleet-wide latency sample budget across nb
// stripes.
func perStripeCap(nb int) int {
	per := (defaultLatSamples + nb - 1) / nb
	if per < 2 {
		per = 2
	}
	return per
}

// NodeResult is one node's deterministic outcome.
type NodeResult struct {
	// Node is the node index.
	Node int
	// Mix and Apps describe the workload drawn for the node.
	Mix  string
	Apps int
	// Periods is the number of post-profiling control periods the node
	// ran, fast-forwarded idle ones included (Manager.SkipIdle);
	// Reprofiles counts re-entries into the profiling phase (change
	// detections).
	Periods    int
	Reprofiles int
	// Unfairness is Equation 2 at the last reported period.
	Unfairness float64
	// Ways and MBA are the final allocation state.
	Ways []int
	MBA  []int
	// Vestigial, always zero: the per-machine solve table and the score
	// memo are gone, and the fields leave with machine.l1_hit_ratio and
	// core.score_memo_hit_ratio in the next benchmark-only PR (ROADMAP
	// item 4). They are not refilled from Result.Shared: the frozen
	// benchmark folds them into its digest, and a shared hit/miss split
	// differs between a cold and a warm process.
	CacheHits, CacheMisses, CacheEvictions uint64
	ScoreHits, ScoreMisses                 uint64
	// Phase is the controller's phase name after the last period and
	// FailStreak its consecutive-failure count — both deterministic, and
	// both all-healthy ("idle"/"exploration", streak 0) in a fault-free
	// fleet. They exist so a fleet driver can roll node health up the
	// same way copartd's /healthz reports it.
	Phase      string
	FailStreak int
	// Arrival and Lifetime are the node's virtual arrival time and drawn
	// lifetime (in periods) under RunChurn — deterministic, drawn from
	// the trace processes before any node executes. A fixed-fleet Run
	// reports Arrival 0 and Lifetime == Config.Periods.
	Arrival  float64
	Lifetime int
}

// HealthRollup counts nodes by controller condition at run end.
type HealthRollup struct {
	// Healthy counts nodes that finished outside the degraded phase;
	// Degraded counts the rest. MaxFailStreak is the worst node's
	// consecutive-failure count.
	Healthy       int
	Degraded      int
	MaxFailStreak int
}

// BlockStats is one dispatch block's telemetry, reported so regressions
// localize: a latency shift confined to a few blocks points at their
// workloads (dispatch), a uniform shift at the period loop (solve), and
// a growing Result.StripeMerge at the telemetry merge itself. Lo, Hi,
// Periods, Samples, and Stride are deterministic (identical at any
// worker count); P50 and P99 are wall-clock figures over the block's
// kept samples.
type BlockStats struct {
	// Lo and Hi bound the block's node range [Lo, Hi).
	Lo, Hi int
	// Periods counts the block's post-profiling control periods,
	// fast-forwarded ones included. Samples of them were kept: every
	// Stride-th period that executed, since a fast-forwarded period runs
	// no timed body (see stripe.go).
	Periods int
	Samples int
	Stride  int
	// P50 and P99 are nearest-rank percentiles of the block's kept
	// period latencies.
	P50, P99 time.Duration
}

// Result aggregates the fleet run.
type Result struct {
	// Nodes holds per-node outcomes, by node index. This is the
	// deterministic part of the result.
	Nodes []NodeResult
	// Elapsed is the wall-clock duration of the whole run.
	Elapsed time.Duration
	// TotalPeriods is the number of control periods fleet-wide,
	// fast-forwarded idle periods included; PeriodsPerSec is
	// TotalPeriods/Elapsed (node-periods per second).
	TotalPeriods  int
	PeriodsPerSec float64
	// P50 and P99 are percentiles of the per-period wall-clock latency
	// across every node's executed post-profiling control periods — a
	// fast-forwarded idle period is not timed — computed over
	// the stripes' systematic samples with each sample weighted by its
	// stripe's stride (stripe.go documents the sampling semantics).
	P50, P99 time.Duration
	// Block is the resolved dispatch block size and Blocks the per-block
	// telemetry, in block order. StripeMerge is the wall-clock cost of
	// folding the stripes into this Result at run end.
	Block       int
	Blocks      []BlockStats
	StripeMerge time.Duration
	// Shared is the process-wide solve cache's delta over this run: its
	// hit/miss split depends on which node solved a state first and on
	// what the process solved before the run, so it is the one
	// nondeterministic figure here.
	Shared machine.SharedCacheStats
	// Vestigial, always zero: see NodeResult's fields of the same names.
	CacheHits, CacheMisses, CacheEvictions uint64
	ScoreHits, ScoreMisses                 uint64
	// Pool is the runtime pool's activity over this run. The hit/miss
	// split is timing-dependent under parallel execution (whichever node
	// finishes first donates its runtime), so it is reported here rather
	// than per node; Carries, by contrast, is deterministic (in-block
	// handoffs follow the fixed block structure).
	Pool PoolStats
	// Health rolls node conditions up (deterministic).
	Health HealthRollup
	// Churn describes the virtual arrival/departure schedule when the
	// run came from RunChurn (deterministic); zero for a fixed fleet.
	Churn ChurnStats

	// arena backs every node's Ways/MBA slices, one flat allocation
	// pre-sliced per node, reused across RunInto calls on the same
	// Result.
	arena []int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Nodes < 1 {
		return fmt.Errorf("fleet: %d nodes", c.Nodes)
	}
	if c.Periods < 1 {
		return fmt.Errorf("fleet: %d periods per node", c.Periods)
	}
	return nil
}

// fleetEpoch is the instant fleetClock counts from.
//
//copart:wallclock fleet throughput and latency percentiles measure real elapsed time
var fleetEpoch = time.Now()

// fleetClock is the wall-clock source behind the fleet's throughput
// and latency figures — the one intentionally nondeterministic input:
// the monotonic offset from fleetEpoch, one clock read where time.Now
// takes two (wall and monotonic). It is a package variable so tests can
// substitute a scripted clock and assert exact percentiles (clock_test.go).
//
//copart:wallclock fleet throughput and latency percentiles measure real elapsed time
var fleetClock = func() time.Duration { return time.Since(fleetEpoch) }

// nodeSeed derives node i's RNG seed from the fleet seed. Known defect
// (ROADMAP, open; fixing it moves every fleet digest): the stride is
// splitmix64's own Weyl increment, so node i's stream is node 0's
// shifted by i draws (see the warning on splitmix.Source).
func (c Config) nodeSeed(i int) int64 {
	return c.Seed + i64(0x9E3779B97F4A7C15)*int64(i)
}

// i64 reinterprets an unsigned 64-bit constant as int64.
func i64(u uint64) int64 { return int64(u) }

// mixKinds is the mix-kind table, hoisted so node setup does not rebuild
// the slice per node.
var mixKinds = workloads.MixKinds()

// phaseDegradedName is core.PhaseDegraded.String(), hoisted off the
// per-node accumulate path.
var phaseDegradedName = core.PhaseDegraded.String()

// testNodeTarget, when non-nil, supplies a node's control target (tests
// wrap the machine with fault injection here) and the resilience policy
// for its manager. A non-nil hook forces every node down the unpooled
// path — fresh machine, manager and RNG, live profiling: wrapped targets
// carry per-node fault state the pool cannot reinitialize. A hook that
// returns the machine itself is therefore the reference arm of the
// pooled-vs-fresh goldens (freshSubstrates in pool_test.go).
var testNodeTarget func(node int, m *machine.Machine) (core.Target, core.Resilience)

// nodeRuntime is one node's reusable substrate: the seeded RNG, the
// simulated machine, the resource manager, and the mix cache it draws
// workloads from. Pooled runtimes keep all of it warm between nodes;
// runNode reinitializes each piece in place, which is exact (see the
// package comment) and allocation-free at steady state.
type nodeRuntime struct {
	key uint64 // poolKey of the machine configuration it was built for
	src splitmix.Source
	rng *rand.Rand // over &src
	m   *machine.Machine
	mgr *core.Manager
	mix *workloads.MixCache
}

// poolKey fingerprints a machine configuration for the runtime pool and
// the mix-cache registry. Config.Digest covers the solver-visible
// fields; the measurement-noise parameters are folded in on top because
// two configs differing only in noise produce different counter streams
// and must never share runtimes. Configs with a custom BW.Curve are not
// fingerprintable (a func value has no digest) and bypass both caches.
func poolKey(c machine.Config) uint64 {
	const prime = 0x100000001b3
	h := c.Digest()
	h = (h ^ math.Float64bits(c.MeasurementNoise)) * prime
	h = (h ^ uint64(c.NoiseSeed)) * prime
	return h
}

// poolMaxFree caps the free list. Under churn the live population can
// spike and then drain; the cap bounds how many idle runtimes (each a
// full machine + manager) the pool retains from such a spike. At the
// default ~20-runtime working set of a 1-config fleet the cap is never
// reached; it exists so a pathological churn schedule cannot pin
// unbounded memory.
const poolMaxFree = 512

// runtimePool holds idle node runtimes, keyed by machine-config
// fingerprint. It survives across Run calls on purpose: a warm
// benchmark iteration reuses the previous iteration's substrates, which
// is what makes the steady-state fleet period allocation-free. The
// hit/miss/eviction counters accumulate process-wide; Run and RunChurn
// report per-run deltas (Result.Pool).
var runtimePool struct {
	sync.Mutex
	free      []*nodeRuntime
	hits      uint64
	misses    uint64
	evictions uint64
}

// PoolStats reports the runtime pool's activity over one run. Hits are
// nodes that popped a pooled runtime, Misses nodes that built fresh
// substrates on the poolable path, Evictions runtimes dropped because
// the free list was at capacity. Carries counts block-local handoffs —
// a runtime passed directly from a departing node to the next node of
// the same dispatch block, skipping the pool lock entirely — so
// Hits+Carries is the total number of nodes that reused a warm
// runtime. Free is the free-list size after the run. The hit/miss
// split is timing-dependent under parallel execution (which block
// finishes first determines who hits), so it lives on Result, not in
// the deterministic NodeResults; Carries follows the fixed block
// structure and is deterministic.
type PoolStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Carries   uint64
	Free      int
}

// poolSnapshot reads the cumulative pool counters.
func poolSnapshot() PoolStats {
	p := &runtimePool
	p.Lock()
	defer p.Unlock()
	return PoolStats{Hits: p.hits, Misses: p.misses, Evictions: p.evictions, Free: len(p.free)}
}

// poolDelta subtracts a snapshot taken at run start from the current
// counters, keeping the end-of-run free-list size.
func poolDelta(before PoolStats) PoolStats {
	now := poolSnapshot()
	return PoolStats{
		Hits:      now.Hits - before.Hits,
		Misses:    now.Misses - before.Misses,
		Evictions: now.Evictions - before.Evictions,
		Free:      now.Free,
	}
}

// getRuntime pops a pooled runtime built for the given configuration,
// or returns nil when none is available.
//
//copart:noalloc
func getRuntime(key uint64) *nodeRuntime {
	p := &runtimePool
	p.Lock()
	defer p.Unlock()
	for i := len(p.free) - 1; i >= 0; i-- {
		if p.free[i].key != key {
			continue
		}
		rt := p.free[i]
		last := len(p.free) - 1
		p.free[i] = p.free[last]
		p.free[last] = nil
		p.free = p.free[:last]
		p.hits++
		return rt
	}
	p.misses++
	return nil
}

// putRuntime returns a runtime to the pool. Only runtimes that finished
// their node cleanly come back; error paths drop theirs, so a runtime
// wedged by a failure can never leak state into a later node. A full
// free list (poolMaxFree) drops the runtime instead — counted as an
// eviction.
//
//copart:noalloc
func putRuntime(rt *nodeRuntime) {
	p := &runtimePool
	p.Lock()
	if len(p.free) >= poolMaxFree {
		p.evictions++
	} else {
		p.free = append(p.free, rt) //copart:allocok amortized free-list growth; steady state reuses capacity
	}
	p.Unlock()
}

// profileKey identifies one profiling outcome: everything a node's
// profiling phase depends on. The machine fingerprint (poolKey) pins
// the hardware, solver constants, and noise parameters; the mix kind
// and application count pin the exact workload models (the mix cache is
// deterministic); and every fleet manager is configured identically
// (DefaultParams, full-LLC envelope). Profiling consumes no RNG, so the
// node seed does not enter the key.
type profileKey struct {
	mach  uint64
	kind  workloads.MixKind
	nApps int
}

// profileEntry pairs the machine checkpoint with the manager memo; the
// two restore together or not at all.
type profileEntry struct {
	hot machine.HotState
	pm  *core.ProfileMemo
}

// profileMap is the immutable registry snapshot getProfileMemo reads.
type profileMap = map[profileKey]*profileEntry

// profileMemos is the process-wide registry of profiling outcomes.
// Profiling is the most expensive phase of a node's life — 3 probe
// periods per application, each a full solve-and-sample pass — and a
// fleet draws the same few dozen (kind, nApps) combinations thousands
// of times. The first node to profile a combination runs it live and
// checkpoints the result; every later node restores the checkpoint,
// bit-identically (profiling is RNG-free and, noise-free, every Step
// is deterministic — see core.ProfileMemo).
//
// The registry is copy-on-write: reads (once per node) load an
// immutable map snapshot with a single atomic, and the rare writes (a
// few dozen per machine configuration, ever) copy the map under the
// mutex and publish the successor. The previous mutex-per-read design
// cost a lock round-trip per node and serialized every worker through
// one cache line. Entries are immutable once stored; a concurrent
// double-compute publishes identical values twice.
var profileMemos struct {
	sync.Mutex // serializes writers
	snap       atomic.Pointer[profileMap]
}

// getProfileMemo returns the memoized profiling outcome, or nil.
//
//copart:noalloc
func getProfileMemo(k profileKey) *profileEntry {
	m := profileMemos.snap.Load()
	if m == nil {
		return nil
	}
	return (*m)[k]
}

// putProfileMemo publishes a profiling outcome.
func putProfileMemo(k profileKey, e *profileEntry) {
	r := &profileMemos
	r.Lock()
	defer r.Unlock()
	next := make(profileMap)
	if cur := r.snap.Load(); cur != nil {
		for ck, cv := range *cur {
			next[ck] = cv
		}
	}
	next[k] = e
	r.snap.Store(&next)
}

// mixCaches shares one immutable workloads.MixCache per machine
// configuration across all nodes, runs, and pool entries. The cache is
// read-only after construction, so sharing it cannot couple nodes.
var mixCaches struct {
	sync.Mutex
	byKey map[uint64]*workloads.MixCache
}

// mixCacheFor returns the shared mix cache for a configuration,
// building it on first sight. Construction holds the registry lock, so
// concurrent first nodes serialize instead of racing duplicate builds.
func mixCacheFor(mcfg machine.Config, key uint64) (*workloads.MixCache, error) {
	c := &mixCaches
	c.Lock()
	defer c.Unlock()
	if mc, ok := c.byKey[key]; ok {
		return mc, nil
	}
	mc, err := workloads.NewMixCache(mcfg)
	if err != nil {
		return nil, err
	}
	if c.byKey == nil {
		c.byKey = make(map[uint64]*workloads.MixCache)
	}
	c.byKey[key] = mc
	return mc, nil
}

// runNode executes one node end to end — periods control periods after
// profiling (cfg.Periods for a fixed fleet, the node's drawn lifetime
// under churn) — pushing its per-period wall-clock latencies into the
// block's stripe and writing its final allocation into the
// caller-provided ways/mba storage (cap ≥ maxMixApps slices of the
// caller's arena). carry, when non-nil, is the previous in-block node's
// runtime, reused directly when this node is poolable for the same
// configuration. On success the node's runtime is returned for the next
// in-block node to carry (nil on the unpoolable paths); error paths
// drop it.
func runNode(cfg Config, node, periods int, ways, mba []int, carry *nodeRuntime, st *blockStripe) (NodeResult, *nodeRuntime, error) {
	mcfg := cfg.Machine
	if mcfg.LLCWays == 0 {
		mcfg = machine.DefaultConfig()
	}
	maxApps := mcfg.LLCWays
	if mcfg.Cores < maxApps {
		maxApps = mcfg.Cores
	}
	if maxApps > maxMixApps {
		maxApps = maxMixApps
	}
	if maxApps < 3 {
		return NodeResult{}, nil, fmt.Errorf("fleet: machine too small for a mix (max %d apps)", maxApps)
	}

	fingerprintable := mcfg.BW.Curve == nil
	poolable := fingerprintable && testNodeTarget == nil
	key := uint64(0)
	if fingerprintable {
		key = poolKey(mcfg)
	}
	var rt *nodeRuntime
	if carry != nil {
		if poolable && carry.key == key {
			rt = carry
			st.poolCarries++
		} else {
			// A carried runtime this node cannot use (unreachable within one
			// run — blocks share a Config — but never leak it).
			putRuntime(carry)
		}
	}
	if rt == nil && poolable {
		rt = getRuntime(key)
	}
	if rt == nil {
		rt = &nodeRuntime{key: key}
	}

	seed := cfg.nodeSeed(node)
	if rt.rng == nil {
		rt.rng = rand.New(&rt.src)
	}
	// Reseeding the retained source reproduces exactly the stream a
	// freshly constructed one would emit: its whole state is the one
	// word Seed stores (see internal/splitmix).
	rt.src.Seed(seed)
	kind := mixKinds[rt.rng.Intn(len(mixKinds))]
	nApps := 3 + rt.rng.Intn(maxApps-2) // 3..maxApps

	var err error
	if rt.m == nil {
		if rt.m, err = machine.New(mcfg, machine.WithSolveCache()); err != nil {
			return NodeResult{}, nil, err
		}
	} else {
		rt.m.Reset()
	}
	if rt.mix == nil {
		if fingerprintable {
			rt.mix, err = mixCacheFor(mcfg, key)
		} else {
			rt.mix, err = workloads.NewMixCache(mcfg)
		}
		if err != nil {
			return NodeResult{}, nil, err
		}
	}
	models, err := rt.mix.Mix(kind, nApps)
	if err != nil {
		return NodeResult{}, nil, err
	}
	for _, model := range models {
		if err := rt.m.AddApp(model); err != nil {
			return NodeResult{}, nil, err
		}
	}
	if rt.mgr == nil {
		target := core.Target(rt.m)
		var resil core.Resilience
		if testNodeTarget != nil {
			target, resil = testNodeTarget(node, rt.m)
		}
		if rt.mgr, err = core.NewManager(target, core.DefaultParams(), rt.mix.StreamRef(),
			core.Envelope{LoWay: 0, Ways: mcfg.LLCWays}, rt.rng); err != nil {
			return NodeResult{}, nil, err
		}
		rt.mgr.Resilience = resil
		// The fleet measures per-node latency with its own clock
		// (fleetClock, above) and never reads the manager's ExploreTimes
		// journal, so the per-step wall-clock telemetry reads would be
		// pure overhead — two syscall-backed time.Now calls per explored
		// period across every node. A frozen clock keeps the journal's
		// shape (one entry per explore step) at zero cost.
		rt.mgr.SetClock(func() time.Time { return time.Time{} })
	} else if err := rt.mgr.Reuse(); err != nil {
		return NodeResult{}, nil, err
	}
	mgr := rt.mgr

	res := NodeResult{Node: node, Mix: kind.String(), Apps: nApps, Lifetime: periods}
	// Memoized profiling: a poolable, noise-free node's whole profiling
	// phase is a pure function of (machine config, mix kind, app count),
	// so the first node to run it checkpoints the outcome and every later
	// node restores it in place — bit-identical (the goldens' unpooled
	// reference arm runs the live path below) and orders of magnitude
	// cheaper than the 3·apps probe periods. Unpooled and fault-injected
	// nodes always profile live.
	memoable := poolable && mcfg.MeasurementNoise == 0
	var pKey profileKey
	var pe *profileEntry
	if memoable {
		pKey = profileKey{mach: key, kind: kind, nApps: nApps}
		pe = getProfileMemo(pKey)
	}
	if pe != nil {
		if err := rt.m.RestoreHotState(pe.hot); err != nil {
			return NodeResult{}, nil, err
		}
		if err := mgr.RestoreProfileMemo(pe.pm); err != nil {
			return NodeResult{}, nil, err
		}
	} else {
		if err := mgr.Profile(); err != nil {
			return NodeResult{}, nil, err
		}
		if memoable {
			if hot, err := rt.m.CaptureHotState(); err == nil {
				if pm := mgr.ExportProfileMemo(); pm != nil {
					putProfileMemo(pKey, &profileEntry{hot: hot, pm: pm})
				}
			}
		}
	}
	// settled: the last period was an idle period that found no change,
	// so the idle baseline is set and the node may be fast-forwarded.
	// asked: SkipIdle was already offered this node's periods — once per
	// node, so a node it refuses (noisy, wrapped) pays one check.
	settled, asked := false, false
	for p := 0; p < periods; p++ {
		if settled && !asked {
			asked = true
			// Everything between the baseline period and the node's last
			// period; the last runs through IdleStep, so the node's result
			// comes from a real measurement.
			if n := periods - 1 - p; n > 0 {
				skipped, err := mgr.SkipIdle(n)
				if err != nil {
					return NodeResult{}, nil, err
				}
				st.lat.advance(skipped)
				res.Periods += skipped
				p += skipped
			}
		}
		// Periods the stripe's sampler would discard skip both clock
		// reads — the sampler's keep/skip schedule is deterministic
		// (stripe.go), so the skipped reads are too.
		timed := st.lat.due()
		var start time.Duration
		if timed {
			start = fleetClock()
		}
		settled = false
		switch mgr.Phase() {
		case core.PhaseExplore:
			_, err = mgr.ExploreStep()
		case core.PhaseIdle:
			var changed bool
			changed, err = mgr.IdleStep()
			settled = !changed && err == nil
		case core.PhaseDegraded:
			err = mgr.DegradedStep()
		default:
			err = fmt.Errorf("fleet: node %d in unexpected phase %v", node, mgr.Phase())
		}
		if timed {
			st.lat.push(fleetClock() - start)
		} else {
			st.lat.skip()
		}
		res.Periods++
		if err != nil {
			if !mgr.Resilience.Enabled {
				return NodeResult{}, nil, err
			}
			// A hardened node absorbs the failed period: the watchdog
			// counts it and trips the EQ fallback at the degrade
			// threshold, exactly as Manager.Run does.
			mgr.NotePeriod(err)
			continue
		}
		mgr.NotePeriod(nil)
		if mgr.Phase() == core.PhaseProfile {
			// A change detection sends the manager back to profiling;
			// re-profile outside the latency measurement (it spans many
			// probe periods, not one control period).
			res.Reprofiles++
			if err := mgr.Profile(); err != nil {
				if !mgr.Resilience.Enabled {
					return NodeResult{}, nil, err
				}
				mgr.NotePeriod(err)
			}
		}
	}
	res.Unfairness = mgr.LastUnfairness()
	st2 := core.AllocState{Ways: ways, MBA: mba}
	mgr.StateInto(&st2)
	res.Ways, res.MBA = st2.Ways, st2.MBA
	res.Phase = mgr.Phase().String()
	res.FailStreak = mgr.FailStreak()
	if poolable {
		return res, rt, nil
	}
	return res, nil, nil
}

// runScratch carries the in-flight run's parameters to blockRun, which
// must be a package-level function (not a closure) so the sequential
// dispatch path allocates nothing. Owned by the single in-flight
// Run/RunChurn (see stripe.go on serialization).
var runScratch struct {
	cfg   Config
	churn bool
	res   *Result
	block int
}

// blockRun executes one dispatch block: its nodes in index order, a
// single runtime carried node to node, every outcome folded into the
// block's stripe. It is the unit parallel.ForEachBlock schedules.
//
//copart:noalloc steady-state dispatch path; pool misses amortize (BenchmarkFleet65536 pins 0 allocs/op)
func blockRun(lo, hi int) error {
	sc := &runScratch
	cfg, res := sc.cfg, sc.res
	st := &stripes[lo/sc.block]
	var carry *nodeRuntime
	for i := lo; i < hi; i++ {
		periods := cfg.Periods
		if sc.churn {
			periods = churnScratch.life[i]
		}
		off := i * 2 * maxMixApps
		//copart:allocok runNode's construction/profiling allocations amortize across the runtime pool; warm blocks run allocation-free
		nr, rt, err := runNode(cfg, i, periods,
			res.arena[off:off:off+maxMixApps],
			res.arena[off+maxMixApps:off+maxMixApps:off+2*maxMixApps],
			carry, st)
		carry = rt
		if err != nil {
			if sc.churn {
				return fmt.Errorf("fleet: churn node %d: %w", i, err)
			}
			return fmt.Errorf("fleet: node %d: %w", i, err)
		}
		if sc.churn {
			nr.Arrival = churnScratch.arrival[i]
		}
		res.Nodes[i] = nr
		st.accumulate(&nr)
	}
	if carry != nil {
		putRuntime(carry)
	}
	return nil
}

// reset prepares a Result for reuse: the backing slices keep their
// capacity (grown as needed), everything else zeroes.
func (res *Result) reset(nodes, nb, block int) {
	ns, arena, blocks := res.Nodes, res.arena, res.Blocks
	if cap(ns) < nodes {
		ns = make([]NodeResult, nodes) //copart:allocok amortized result growth; RunInto steady state reuses capacity
	}
	need := nodes * 2 * maxMixApps
	if cap(arena) < need {
		arena = make([]int, need) //copart:allocok amortized arena growth; RunInto steady state reuses capacity
	}
	if cap(blocks) < nb {
		blocks = make([]BlockStats, nb) //copart:allocok amortized block-stats growth; RunInto steady state reuses capacity
	}
	*res = Result{
		Nodes:  ns[:nodes],
		Blocks: blocks[:nb],
		Block:  block,
		arena:  arena[:need],
	}
}

// runFleet is the engine behind Run and RunChurn: block-batched
// dispatch over a validated fixed-fleet Config (churn synthesizes one
// and supplies per-node periods from the drawn schedule).
func runFleet(cfg Config, churn bool, res *Result) error {
	block := cfg.blockSize()
	nb := (cfg.Nodes + block - 1) / block
	perCap := perStripeCap(nb)
	res.reset(cfg.Nodes, nb, block)
	growStripes(nb)
	for b := 0; b < nb; b++ {
		lo := b * block
		hi := lo + block
		if hi > cfg.Nodes {
			hi = cfg.Nodes
		}
		pushes := (hi - lo) * cfg.Periods
		if churn {
			pushes = 0
			for _, life := range churnScratch.life[lo:hi] {
				pushes += life
			}
		}
		stripes[b].reset(lo, hi, perCap, pushes)
	}
	runScratch.cfg = cfg
	runScratch.churn = churn
	runScratch.res = res
	runScratch.block = block
	sharedBefore := machine.SharedSolveCacheStats()
	poolBefore := poolSnapshot()
	start := fleetClock()
	err := parallel.ForEachBlock(cfg.Nodes, block, blockRun)
	res.Elapsed = fleetClock() - start
	runScratch.res = nil
	if err != nil {
		return err
	}
	res.Pool = poolDelta(poolBefore)
	res.aggregate(sharedBefore, nb)
	return nil
}

// RunInto executes the fleet, fanning node blocks across the parallel
// worker pool and writing the outcome into res. A Result passed back
// in is reused in place — its node, block, and arena storage keep
// their capacity — which is what makes a steady-state driver loop
// allocation-free; pass a zero Result to start. On error res holds
// partial state and should not be read.
func RunInto(cfg Config, res *Result) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	return runFleet(cfg, false, res)
}

// Run executes the fleet into a fresh Result. Callers that re-run
// fleets (benchmark loops, long-lived drivers) should hold a Result
// and use RunInto instead to skip the per-run allocations.
func Run(cfg Config) (Result, error) {
	var res Result
	if err := RunInto(cfg, &res); err != nil {
		return Result{}, err
	}
	return res, nil
}

// aggregate folds the stripes — counters, health, latency samples —
// and the shared-cache delta into the run totals, in deterministic
// block order; common to Run and RunChurn. The integer aggregates are
// sums and maxes of per-block values that are themselves worker-count
// invariant, so they are bit-identical at any worker count (pinned by
// TestShardedAggregationMatchesUnsharded); the latency figures are
// wall-clock. The merge itself is timed into Result.StripeMerge.
//
//copart:noalloc telemetry merge runs once per fleet run over every stripe, in place
func (res *Result) aggregate(sharedBefore machine.SharedCacheStats, nb int) {
	sharedAfter := machine.SharedSolveCacheStats()
	res.Shared = machine.SharedCacheStats{
		Hits:      sharedAfter.Hits - sharedBefore.Hits,
		Misses:    sharedAfter.Misses - sharedBefore.Misses,
		Evictions: sharedAfter.Evictions - sharedBefore.Evictions,
		Entries:   sharedAfter.Entries,
	}
	mergeStart := fleetClock()
	for b := 0; b < nb; b++ {
		st := &stripes[b]
		res.TotalPeriods += st.periods
		res.Health.Healthy += st.healthy
		res.Health.Degraded += st.degraded
		if st.maxFailStreak > res.Health.MaxFailStreak {
			res.Health.MaxFailStreak = st.maxFailStreak
		}
		res.Pool.Carries += st.poolCarries
		// The sampler is done pushing; sorting its buffer in place gives the
		// per-block percentiles directly and the fleet-wide ones below.
		buf := st.lat.buf
		sortDurations(buf)
		res.Blocks[b] = BlockStats{
			Lo:      st.lo,
			Hi:      st.hi,
			Periods: int(st.lat.seen),
			Samples: len(buf),
			Stride:  int(st.lat.stride),
			P50:     percentile(buf, 50),
			P99:     percentile(buf, 99),
		}
	}
	res.P50 = stripesPercentile(stripes[:nb], 50)
	res.P99 = stripesPercentile(stripes[:nb], 99)
	res.StripeMerge = fleetClock() - mergeStart
	if secs := res.Elapsed.Seconds(); secs > 0 {
		res.PeriodsPerSec = float64(res.TotalPeriods) / secs
	}
}

// percentile reads the p-th percentile from sorted latencies: the
// nearest-rank definition, sorted[⌈p/100·n⌉−1] (1-indexed rank rounded
// up), so p50 of [a,b] is a and p100 of any sample is the maximum.
//
//copart:noalloc
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := (p*len(sorted)+99)/100 - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
