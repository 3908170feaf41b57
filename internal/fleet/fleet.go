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
// deterministically in block order at run end. Batching is what makes
// the steady-state run allocation-free end to end: the sequential
// dispatch path invokes a package-level function (no closure), the
// stripes and result slices are reused via RunInto, and the per-node
// period loop was already allocation-free.
//
// What nodes do share lives in one substrate per machine configuration,
// kept process-wide across runs: an immutable workloads.MixCache of
// precomputed mixes and STREAM reference rates, the memoized profiling
// outcome of each (mix kind, app count), and a free list of idle node
// runtimes. A block takes one runtime when it starts, runs every node of
// the block on it — machine.Reset, core.Manager.Reuse and Source.Seed
// reinitialize it in place between nodes — and gives it back when it
// ends. The process-wide solve cache is shared too; its entries are
// exact, so sharing shifts timing but never values.
//
// A fleet node is controlled exactly like a stand-alone one: the
// default core.Features, every period measured, Equation 2 through
// fairness.Unfairness. Reinitialization and profile restore are exact:
// TestFleetPoolGolden pins reused runtimes against fresh ones, and
// TestFleetNodeMatchesStandalone rebuilds nodes by hand and requires
// bit-equal outcomes, so the substrate and the solve cache change speed,
// never values.
package fleet

import (
	"fmt"
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
	// Pool is the runtime free list's activity over this run (see
	// PoolStats).
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

// PoolStats reports the runtime free list's activity over one run. Each
// block takes one runtime when it starts: Hits counts takes the free
// list served, Misses takes that built a fresh runtime, so Hits+Misses
// is the number of blocks. Carries counts the nodes that ran on their
// block's runtime after an earlier node of the block, so Hits+Carries
// nodes reused a warm runtime. Free is the free-list size after the
// run. The hit/miss split is timing-dependent under parallel execution
// (which blocks overlap decides how many runtimes exist), so it lives on
// Result, not in the deterministic NodeResults; Carries follows the
// fixed block structure and is deterministic. A fresh-runtime run
// (testNodeTarget) takes, carries and gives nothing.
type PoolStats struct {
	Hits    uint64
	Misses  uint64
	Carries uint64
	Free    int
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
// for its manager. A non-nil hook gives every node a fresh runtime —
// fresh machine, manager and RNG, live profiling — and leaves the
// substrate's free list and profile table alone: wrapped targets carry
// per-node fault state a reused runtime cannot reinitialize. A hook that
// returns the machine itself is therefore the reference arm of the
// reused-vs-fresh goldens (freshSubstrates in pool_test.go).
var testNodeTarget func(node int, m *machine.Machine) (core.Target, core.Resilience)

// nodeRuntime is one node's reusable state: the seeded RNG, the
// simulated machine and the resource manager. runNode builds each piece
// on first use and reinitializes it in place after that, which is exact
// (see the package comment) and allocation-free at steady state.
type nodeRuntime struct {
	src splitmix.Source
	rng *rand.Rand // over &src
	m   *machine.Machine
	mgr *core.Manager
}

// profileEntry pairs the machine checkpoint with the manager memo; the
// two restore together or not at all.
type profileEntry struct {
	hot machine.HotState
	pm  *core.ProfileMemo
}

// substrate is what every node of one machine configuration shares.
//
// Profiling is the most expensive phase of a node's life — 3 probe
// periods per application, each a full solve-and-sample pass — and a
// fleet draws the same few dozen (kind, nApps) combinations thousands of
// times. On a noise-free machine profiling is a pure function of the
// configuration, the mix kind and the app count (it consumes no RNG, and
// every fleet manager is configured identically), so the first node to
// profile a combination runs it live and stores the outcome in
// profiles[kind][nApps]; every later node restores it, bit-identically
// (see core.ProfileMemo). The table is fixed-size and read with one
// atomic load; entries are immutable once stored, and a concurrent
// double-compute stores identical values twice.
//
// free holds idle runtimes, guarded by the registry lock. A block takes
// one when it starts and gives it back when it ends, and a take builds a
// runtime only when the list is empty, so the list never holds more
// runtimes than blocks that ran at the same time — at most
// parallel.Workers().
type substrate struct {
	mcfg     machine.Config
	maxApps  int // largest mix a node draws: min(LLCWays, Cores, maxMixApps)
	mix      *workloads.MixCache
	profiles [workloads.IS + 1][maxMixApps + 1]atomic.Pointer[profileEntry]
	free     []*nodeRuntime
}

// substrates is the process-wide registry, one substrate per machine
// configuration. It survives across runs on purpose: a warm benchmark
// iteration reuses the previous iteration's runtimes, which is what
// makes the steady-state fleet period allocation-free. The lock guards
// the map and every substrate's free list.
var substrates struct {
	sync.Mutex
	byConfig map[machine.Config]*substrate
}

// substrateFor returns the substrate of a configuration, building it on
// first sight. Construction holds the registry lock, so concurrent first
// runs serialize instead of racing duplicate builds.
func substrateFor(mcfg machine.Config) (*substrate, error) {
	maxApps := min(mcfg.LLCWays, mcfg.Cores, maxMixApps)
	if maxApps < 3 {
		return nil, fmt.Errorf("fleet: machine too small for a mix (max %d apps)", maxApps)
	}
	// A NaN field makes the key unequal to itself: the registry would
	// never find its substrate again and build one per run.
	if mcfg != mcfg {
		return nil, fmt.Errorf("fleet: machine configuration has a NaN field")
	}
	r := &substrates
	r.Lock()
	defer r.Unlock()
	if s, ok := r.byConfig[mcfg]; ok {
		return s, nil
	}
	mix, err := workloads.NewMixCache(mcfg)
	if err != nil {
		return nil, err
	}
	s := &substrate{mcfg: mcfg, maxApps: maxApps, mix: mix}
	if r.byConfig == nil {
		r.byConfig = make(map[machine.Config]*substrate)
	}
	r.byConfig[mcfg] = s
	return s, nil
}

// take pops an idle runtime, or returns an empty one for runNode to
// build, counting the hit or miss on the block's stripe.
//
//copart:noalloc
func (s *substrate) take(st *blockStripe) *nodeRuntime {
	substrates.Lock()
	defer substrates.Unlock()
	n := len(s.free)
	if n == 0 {
		st.poolMisses++
		return &nodeRuntime{} //copart:allocok a miss builds a runtime; the free list holds one per concurrent block after the first run
	}
	rt := s.free[n-1]
	s.free[n-1] = nil
	s.free = s.free[:n-1]
	st.poolHits++
	return rt
}

// give returns a runtime whose block finished cleanly; a failed block
// drops its runtime, so one wedged by a failure never reaches a later
// node.
//
//copart:noalloc
func (s *substrate) give(rt *nodeRuntime) {
	substrates.Lock()
	s.free = append(s.free, rt) //copart:allocok free-list growth is bounded by the concurrent blocks; steady state reuses capacity
	substrates.Unlock()
}

// runNode executes one node end to end on rt — periods control periods
// after profiling (cfg.Periods for a fixed fleet, the node's drawn
// lifetime under churn) — pushing its per-period wall-clock latencies
// into the block's stripe and writing its final allocation into the
// caller-provided ways/mba storage (cap ≥ maxMixApps slices of the
// caller's arena).
func runNode(cfg Config, sub *substrate, rt *nodeRuntime, node, periods int, ways, mba []int, st *blockStripe) (NodeResult, error) {
	if rt.rng == nil {
		rt.rng = rand.New(&rt.src)
	}
	// Reseeding the retained source reproduces exactly the stream a
	// freshly constructed one would emit: its whole state is the one
	// word Seed stores (see internal/splitmix).
	rt.src.Seed(cfg.nodeSeed(node))
	kind := mixKinds[rt.rng.Intn(len(mixKinds))]
	nApps := 3 + rt.rng.Intn(sub.maxApps-2) // 3..maxApps

	var err error
	if rt.m == nil {
		if rt.m, err = machine.New(sub.mcfg, machine.WithSolveCache()); err != nil {
			return NodeResult{}, err
		}
	} else {
		rt.m.Reset()
	}
	models, err := sub.mix.Mix(kind, nApps)
	if err != nil {
		return NodeResult{}, err
	}
	for _, model := range models {
		if err := rt.m.AddApp(model); err != nil {
			return NodeResult{}, err
		}
	}
	if rt.mgr == nil {
		target := core.Target(rt.m)
		var resil core.Resilience
		if testNodeTarget != nil {
			target, resil = testNodeTarget(node, rt.m)
		}
		if rt.mgr, err = core.NewManager(target, core.DefaultParams(), sub.mix.StreamRef(),
			core.Envelope{LoWay: 0, Ways: sub.mcfg.LLCWays}, rt.rng); err != nil {
			return NodeResult{}, err
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
		return NodeResult{}, err
	}
	mgr := rt.mgr

	res := NodeResult{Node: node, Mix: kind.String(), Apps: nApps, Lifetime: periods}
	// Memoized profiling (see substrate): bit-identical to the live path,
	// which the goldens' fresh reference arm runs, and orders of magnitude
	// cheaper than the 3·apps probe periods. Noisy and fault-injected
	// nodes always profile live.
	var memo *atomic.Pointer[profileEntry]
	var pe *profileEntry
	if testNodeTarget == nil && sub.mcfg.MeasurementNoise == 0 {
		memo = &sub.profiles[kind][nApps]
		pe = memo.Load()
	}
	if pe != nil {
		if err := rt.m.RestoreHotState(pe.hot); err != nil {
			return NodeResult{}, err
		}
		if err := mgr.RestoreProfileMemo(pe.pm); err != nil {
			return NodeResult{}, err
		}
	} else {
		if err := mgr.Profile(); err != nil {
			return NodeResult{}, err
		}
		if memo != nil {
			if hot, err := rt.m.CaptureHotState(); err == nil {
				if pm := mgr.ExportProfileMemo(); pm != nil {
					memo.Store(&profileEntry{hot: hot, pm: pm})
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
					return NodeResult{}, err
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
				return NodeResult{}, err
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
					return NodeResult{}, err
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
	return res, nil
}

// runScratch carries the in-flight run's parameters to blockRun, which
// must be a package-level function (not a closure) so the sequential
// dispatch path allocates nothing. Owned by the single in-flight
// Run/RunChurn (see stripe.go on serialization).
var runScratch struct {
	cfg   Config
	sub   *substrate
	churn bool
	res   *Result
	block int
}

// blockRun executes one dispatch block: its nodes in index order on one
// runtime taken from the substrate, every outcome folded into the
// block's stripe. It is the unit parallel.ForEachBlock schedules.
//
//copart:noalloc steady-state dispatch path; runtime misses amortize (BenchmarkFleet65536 pins 0 allocs/op)
func blockRun(lo, hi int) error {
	sc := &runScratch
	cfg, sub, res := sc.cfg, sc.sub, sc.res
	st := &stripes[lo/sc.block]
	reuse := testNodeTarget == nil
	var rt *nodeRuntime
	if reuse {
		rt = sub.take(st)
	}
	for i := lo; i < hi; i++ {
		if !reuse {
			rt = &nodeRuntime{} //copart:allocok the fresh reference arm builds every node anew
		} else if i > lo {
			st.poolCarries++
		}
		periods := cfg.Periods
		if sc.churn {
			periods = churnScratch.life[i]
		}
		off := i * 2 * maxMixApps
		//copart:allocok runNode's construction/profiling allocations amortize across reused runtimes; warm blocks run allocation-free
		nr, err := runNode(cfg, sub, rt, i, periods,
			res.arena[off:off:off+maxMixApps],
			res.arena[off+maxMixApps:off+maxMixApps:off+2*maxMixApps],
			st)
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
	if reuse {
		sub.give(rt)
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
	mcfg := cfg.Machine
	if mcfg.LLCWays == 0 {
		mcfg = machine.DefaultConfig()
	}
	sub, err := substrateFor(mcfg)
	if err != nil {
		return err
	}
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
	runScratch.sub = sub
	runScratch.churn = churn
	runScratch.res = res
	runScratch.block = block
	sharedBefore := machine.SharedSolveCacheStats()
	start := fleetClock()
	err = parallel.ForEachBlock(cfg.Nodes, block, blockRun)
	res.Elapsed = fleetClock() - start
	runScratch.res = nil
	if err != nil {
		return err
	}
	substrates.Lock()
	res.Pool.Free = len(sub.free)
	substrates.Unlock()
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
		res.Pool.Hits += st.poolHits
		res.Pool.Misses += st.poolMisses
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
