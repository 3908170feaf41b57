// Package policies implements the resource-allocation policies compared
// in the paper's evaluation (§6.1): equal allocation (EQ), static oracle
// allocation (ST), dynamic-LLC-only (CAT-only), dynamic-bandwidth-only
// (MBA-only), the full coordinated controller (CoPart), and the
// unpartitioned baseline (None) used to normalize the §4.2 fairness
// characterization.
package policies

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fairness"
	"repro/internal/machine"
	"repro/internal/membw"
	"repro/internal/workloads"
)

// Result is the outcome of running a policy on a workload mix.
type Result struct {
	// Names lists the applications, in mix order.
	Names []string
	// Allocs holds the final per-application allocations.
	Allocs []machine.Alloc
	// Slowdowns are Equation 1 slowdowns at the final state.
	Slowdowns []float64
	// Unfairness is Equation 2 at the final state (lower is better).
	Unfairness float64
	// Throughput is the geometric-mean IPS across applications
	// (Figure 17's metric).
	Throughput float64
}

// Policy allocates resources for a workload mix on a fresh machine.
type Policy interface {
	// Name is the paper's label for the policy.
	Name() string
	// Run consolidates the models on a fresh machine built from cfg,
	// applies the policy, and reports the steady-state outcome.
	Run(cfg machine.Config, models []machine.AppModel) (Result, error)
}

// evaluate computes a Result for fixed allocations: it solves the
// consolidated steady state and divides each application's solo
// full-resource IPS by its consolidated IPS.
func evaluate(cfg machine.Config, models []machine.AppModel, allocs []machine.Alloc) (Result, error) {
	// Cache-enabled: the solo solves repeat verbatim across the policies
	// evaluating one mix (and across grid cells), so the shared L2
	// deduplicates them process-wide.
	m, err := machine.New(cfg, machine.WithSolveCache())
	if err != nil {
		return Result{}, err
	}
	perfs, err := m.SolveFor(models, allocs)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Names:     make([]string, len(models)),
		Allocs:    allocs,
		Slowdowns: make([]float64, len(models)),
	}
	ips := make([]float64, len(models))
	for i, model := range models {
		solo, err := m.SoloPerf(model)
		if err != nil {
			return Result{}, err
		}
		res.Names[i] = model.Name
		res.Slowdowns[i], err = fairness.Slowdown(solo.IPS, perfs[i].IPS)
		if err != nil {
			return Result{}, err
		}
		ips[i] = perfs[i].IPS
	}
	res.Unfairness, err = fairness.Unfairness(res.Slowdowns)
	if err != nil {
		return Result{}, err
	}
	res.Throughput, err = fairness.Throughput(ips)
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

// EQ is the equal-allocation policy: LLC ways split evenly and every
// application at the equal MBA share.
type EQ struct{}

// Name implements Policy.
func (EQ) Name() string { return "EQ" }

// Run implements Policy.
func (EQ) Run(cfg machine.Config, models []machine.AppModel) (Result, error) {
	counts, err := machine.EqualSplit(cfg.LLCWays, len(models))
	if err != nil {
		return Result{}, err
	}
	masks, err := machine.AssignContiguousWays(counts, 0, cfg.LLCWays)
	if err != nil {
		return Result{}, err
	}
	level := core.EqualMBAShare(len(models))
	allocs := make([]machine.Alloc, len(models))
	for i := range models {
		allocs[i] = machine.Alloc{CBM: masks[i], MBALevel: level}
	}
	return evaluate(cfg, models, allocs)
}

// None is the unpartitioned baseline: every application shares all ways
// unthrottled, contending through the occupancy and bandwidth models.
// Figures 4–6 normalize to it.
type None struct{}

// Name implements Policy.
func (None) Name() string { return "None" }

// Run implements Policy.
func (None) Run(cfg machine.Config, models []machine.AppModel) (Result, error) {
	allocs := make([]machine.Alloc, len(models))
	for i := range models {
		allocs[i] = machine.Alloc{CBM: cfg.FullMask(), MBALevel: membw.MaxLevel}
	}
	return evaluate(cfg, models, allocs)
}

// ST is the static-oracle policy (§6.1): it exhaustively searches way
// compositions crossed with a coarse MBA grid — the offline-profiled
// "best static state" the paper compares against — and keeps the state
// with the lowest unfairness.
type ST struct {
	// MBAGrid is the set of MBA levels searched per application. Empty
	// selects a default that keeps the search tractable at six apps.
	MBAGrid []int
}

// Name implements Policy.
func (ST) Name() string { return "ST" }

// stStates counts, process-wide, the states ST runs enumerated and the
// ones they had to solve; each Run adds its totals once, on return.
var stStates struct{ enumerated, solved atomic.Uint64 }

// STStates reports how many states all ST runs so far enumerated and how
// many of those they solved rather than skipped on a bound.
func STStates() (enumerated, solved uint64) {
	return stStates.enumerated.Load(), stStates.solved.Load()
}

// grid is the MBA grid searched for an n-app mix.
func (s ST) grid(n int) []int {
	switch {
	case len(s.MBAGrid) != 0:
		return s.MBAGrid
	case n <= 4:
		return []int{10, 30, 60, 100}
	default:
		return []int{10, 50, 100}
	}
}

// Run implements Policy.
func (s ST) Run(cfg machine.Config, models []machine.AppModel) (Result, error) {
	n := len(models)
	if n == 0 {
		return Result{}, fmt.Errorf("policies: empty mix")
	}
	grid := s.grid(n)
	for _, l := range grid {
		if err := membw.ValidateLevel(l); err != nil {
			return Result{}, err
		}
	}
	// The solve cache serves only the solo solves, which repeat verbatim
	// across the policies evaluating one mix. The search runs through a
	// SolveSession: table-backed and uncached, because no state recurs.
	m, err := machine.New(cfg, machine.WithSolveCache())
	if err != nil {
		return Result{}, err
	}
	solo := make([]float64, n)
	for i, model := range models {
		p, err := m.SoloPerf(model)
		if err != nil {
			return Result{}, err
		}
		solo[i] = p.IPS
	}

	// The best state's slices are allocated once and overwritten in place,
	// so a run's allocation count does not depend on how many improvements
	// the enumeration order produces.
	best := Result{
		Names:      make([]string, n),
		Allocs:     make([]machine.Alloc, n),
		Slowdowns:  make([]float64, n),
		Unfairness: -1,
	}
	for i, model := range models {
		best.Names[i] = model.Name
	}
	counts := make([]int, n)
	mbaIdx := make([]int, n)
	// Scratch reused across the tens of thousands of scored states.
	allocs := make([]machine.Alloc, n)
	slowdowns := make([]float64, n)
	ips := make([]float64, n)
	masks := make([]uint64, n)
	perfs := make([]machine.Perf, n)
	session := m.NewSolveSession(models)
	// Enumeration is exhaustive, solving is not: a state whose slowdown
	// intervals already force an unfairness above the incumbent's is
	// skipped, since it could never pass the strict u < best below
	// (DESIGN.md §9.1).
	spans := slowdownSpans(session, solo, cfg.LLCWays, grid)
	// Population σ of n numbers is at least range/√(2n); over the mean,
	// range·√(n/2)/sum.
	sigmaPerRange := math.Sqrt(float64(n) / 2)
	var enumerated, solved uint64
	defer func() { stStates.enumerated.Add(enumerated); stStates.solved.Add(solved) }()
	var search func(app, remaining int) error
	scoreState := func() error {
		enumerated++
		if spans != nil && best.Unfairness >= 0 {
			// The range is at least max lo − min hi, the mean at most mean hi.
			maxLo, minHi, sumHi := 0.0, math.Inf(1), 0.0
			for i, w := range counts {
				sp := spans[(i*(cfg.LLCWays+1)+w)*len(grid)+mbaIdx[i]]
				maxLo, minHi, sumHi = max(maxLo, sp.lo), min(minHi, sp.hi), sumHi+sp.hi
			}
			if (maxLo-minHi)*sigmaPerRange/sumHi*(1-boundSlack) > best.Unfairness {
				return nil
			}
		}
		solved++
		masks, err := machine.AssignContiguousWaysInto(masks, counts, 0, cfg.LLCWays)
		if err != nil {
			return err
		}
		for i := range allocs {
			allocs[i] = machine.Alloc{CBM: masks[i], MBALevel: grid[mbaIdx[i]]}
		}
		if err := session.SolveInto(perfs, allocs); err != nil {
			return err
		}
		for i := range perfs {
			slowdowns[i] = solo[i] / perfs[i].IPS
			ips[i] = perfs[i].IPS
		}
		u, err := fairness.Unfairness(slowdowns)
		if err != nil {
			return err
		}
		if best.Unfairness < 0 || u < best.Unfairness {
			tp, err := fairness.Throughput(ips)
			if err != nil {
				return err
			}
			copy(best.Allocs, allocs)
			copy(best.Slowdowns, slowdowns)
			best.Unfairness, best.Throughput = u, tp
		}
		return nil
	}
	var sweepMBA func(app int) error
	sweepMBA = func(app int) error {
		if app == n {
			return scoreState()
		}
		for j := range grid {
			mbaIdx[app] = j
			if err := sweepMBA(app + 1); err != nil {
				return err
			}
		}
		return nil
	}
	search = func(app, remaining int) error {
		if app == n-1 {
			counts[app] = remaining
			return sweepMBA(0)
		}
		// Leave at least one way per remaining application.
		for w := 1; w <= remaining-(n-1-app); w++ {
			counts[app] = w
			if err := search(app+1, remaining-w); err != nil {
				return err
			}
		}
		return nil
	}
	if err := search(0, cfg.LLCWays); err != nil {
		return Result{}, err
	}
	if best.Unfairness < 0 {
		return Result{}, fmt.Errorf("policies: ST search found no state")
	}
	return best, nil
}

// boundSlack is the relative margin on every bound the ST search prunes
// with: far above the few-ulp float error of the bounds' own arithmetic,
// far below any unfairness gap worth a solve.
const boundSlack = 1e-9

// span is an interval a slowdown is known to lie in.
type span struct{ lo, hi float64 }

// slowdownSpans brackets, at index (app*(ways+1)+w)*len(grid)+j, app's
// slowdown when it holds w ways at grid[j] in any exclusive state,
// widened by boundSlack each side. It returns nil when the session has
// no bounds to offer, and the search then prunes nothing.
func slowdownSpans(session *machine.SolveSession, solo []float64, ways int, grid []int) []span {
	spans := make([]span, len(solo)*(ways+1)*len(grid))
	for i, full := range solo {
		for w := 1; w <= ways; w++ {
			for j, level := range grid {
				lo, hi, ok := session.IPSBounds(i, w, level)
				if !ok {
					return nil
				}
				spans[(i*(ways+1)+w)*len(grid)+j] = span{full / hi * (1 - boundSlack), full / lo * (1 + boundSlack)}
			}
		}
	}
	return spans
}

// Dynamic runs the CoPart manager (optionally with one axis frozen) and
// evaluates the state it converges to. It implements the paper's CoPart,
// CAT-only, and MBA-only policies.
type Dynamic struct {
	// Label is the policy name: "CoPart", "CAT-only", or "MBA-only".
	Label string
	// FreezeLLC / FreezeMBA pin the corresponding axis at the equal
	// split, as the respective baselines require.
	FreezeLLC bool
	FreezeMBA bool
	// Params override; zero value selects the paper defaults.
	Params core.Params
	// Features override; nil selects core.DefaultFeatures (ablations
	// pass explicit sets).
	Features *core.Features
	// Seed makes the run deterministic.
	Seed int64
	// MaxPeriods caps the exploration length; 0 selects a default.
	MaxPeriods int
}

// CoPart returns the full coordinated policy.
func CoPart(seed int64) *Dynamic { return &Dynamic{Label: "CoPart", Seed: seed} }

// CATOnly returns the dynamic-LLC / equal-bandwidth baseline.
func CATOnly(seed int64) *Dynamic {
	return &Dynamic{Label: "CAT-only", FreezeMBA: true, Seed: seed}
}

// MBAOnly returns the dynamic-bandwidth / equal-LLC baseline.
func MBAOnly(seed int64) *Dynamic {
	return &Dynamic{Label: "MBA-only", FreezeLLC: true, Seed: seed}
}

// Name implements Policy.
func (d *Dynamic) Name() string {
	if d.Label == "" {
		return "CoPart"
	}
	return d.Label
}

// explore builds a fresh machine from cfg and opts, consolidates models
// on it and runs d's manager — profile, then exploration until it settles
// or MaxPeriods (default 300) elapse. Run and ExploreTime differ only in
// what they read off the result.
func (d *Dynamic) explore(cfg machine.Config, models []machine.AppModel, opts ...machine.Option) (*machine.Machine, *core.Manager, error) {
	m, err := machine.New(cfg, opts...)
	if err != nil {
		return nil, nil, err
	}
	for _, model := range models {
		if err := m.AddApp(model); err != nil {
			return nil, nil, err
		}
	}
	ref, err := workloads.StreamMissRates(m)
	if err != nil {
		return nil, nil, err
	}
	params := d.Params
	if params.IsZero() {
		params = core.DefaultParams()
	}
	mgr, err := core.NewManager(m, params, ref, core.Envelope{LoWay: 0, Ways: cfg.LLCWays},
		rand.New(rand.NewSource(d.Seed)))
	if err != nil {
		return nil, nil, err
	}
	mgr.FreezeLLC = d.FreezeLLC
	mgr.FreezeMBA = d.FreezeMBA
	if d.Features != nil {
		mgr.Features = *d.Features
	}
	if err := mgr.Profile(); err != nil {
		return nil, nil, err
	}
	maxPeriods := d.MaxPeriods
	if maxPeriods == 0 {
		maxPeriods = 300
	}
	for i := 0; i < maxPeriods; i++ {
		done, err := mgr.ExploreStep()
		if err != nil {
			return nil, nil, err
		}
		if done {
			break
		}
	}
	return m, mgr, nil
}

// Run implements Policy. It is safe for concurrent use: every call
// builds its own machine (with the solve cache — exploration revisits
// allocation states constantly, and each revisit skips a whole
// fixed-point solve) and seeds its own RNG from d.Seed.
func (d *Dynamic) Run(cfg machine.Config, models []machine.AppModel) (Result, error) {
	m, _, err := d.explore(cfg, models, machine.WithSolveCache())
	if err != nil {
		return Result{}, err
	}
	allocs := make([]machine.Alloc, len(models))
	for i, model := range models {
		a, err := m.Allocation(model.Name)
		if err != nil {
			return Result{}, err
		}
		allocs[i] = a
	}
	return evaluate(cfg, models, allocs)
}

// ExploreTime runs the dynamic policy on an uncached machine and reports
// the mean wall-clock getNextSystemState duration (the Figure 16 overhead
// metric).
func (d *Dynamic) ExploreTime(cfg machine.Config, models []machine.AppModel) (time.Duration, error) {
	_, mgr, err := d.explore(cfg, models)
	if err != nil {
		return 0, err
	}
	if len(mgr.ExploreTimes) == 0 {
		return 0, fmt.Errorf("policies: no exploration steps executed")
	}
	var total time.Duration
	for _, t := range mgr.ExploreTimes {
		total += t
	}
	return total / time.Duration(len(mgr.ExploreTimes)), nil
}
