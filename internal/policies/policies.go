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
	"slices"
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
// consolidated steady state on a plain machine and divides each
// application's solo full-resource IPS by its consolidated IPS.
func evaluate(cfg machine.Config, models []machine.AppModel, allocs []machine.Alloc) (Result, error) {
	m, err := machine.New(cfg)
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
	allocs, err := core.EqualAllocs(core.Envelope{Ways: cfg.LLCWays}, len(models))
	if err != nil {
		return Result{}, err
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

// ST is the static-oracle policy (§6.1): it searches way compositions
// crossed with a coarse MBA grid — the offline-profiled "best static
// state" the paper compares against — and returns the state with the
// lowest unfairness, the one an exhaustive search would, solving only the
// states its bounds cannot rule out.
type ST struct {
	// MBAGrid is the set of MBA levels searched per application. Empty
	// selects a default that keeps the search tractable at six apps.
	MBAGrid []int
}

// Name implements Policy.
func (ST) Name() string { return "ST" }

// stStates counts, process-wide, the states ST runs searched over and the
// ones they had to solve; each Run adds its totals once, on return.
var stStates struct{ enumerated, solved atomic.Uint64 }

// STStates reports the size of the search spaces of all ST runs so far
// (way compositions × |grid|ⁿ each) and how many states those runs solved,
// seeds included, rather than cut on a bound.
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
	// The search runs through a SolveSession: table-backed and uncached.
	m, err := machine.New(cfg)
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

	search := newSTSearch(cfg.LLCWays, grid, solo, m.NewSolveSession(models))
	for i, model := range models {
		search.best.Names[i] = model.Name
	}
	defer func() {
		stStates.enumerated.Add(compositions(cfg.LLCWays, n) * intPow(len(grid), n))
		stStates.solved.Add(search.solved)
	}()
	if err := search.seed(); err != nil {
		return Result{}, err
	}
	if err := search.splitWays(0, cfg.LLCWays, noSpans); err != nil {
		return Result{}, err
	}
	if search.best.Unfairness < 0 {
		return Result{}, fmt.Errorf("policies: ST search found no state")
	}
	return search.best, nil
}

// compositions counts the ways to split ways LLC ways among n apps, at
// least one each: C(ways−1, n−1).
func compositions(ways, n int) uint64 {
	if ways < n {
		return 0
	}
	c := uint64(1)
	for k := 1; k < n; k++ {
		c = c * uint64(ways-n+k) / uint64(k)
	}
	return c
}

// intPow is baseⁿ.
func intPow(base, n int) uint64 {
	p := uint64(1)
	for ; n > 0; n-- {
		p *= uint64(base)
	}
	return p
}

// stSearch is one ST.Run in flight: a depth-first branch and bound over
// the way compositions (app 0 outermost) and, under each, the MBA levels
// (app 0 slowest) — the order the exhaustive search walks, so the first
// state to reach the minimum is the same one (DESIGN.md §9.1).
type stSearch struct {
	ways    int
	grid    []int
	solo    []float64
	session *machine.SolveSession
	// bounds is nil when the session brackets nothing; limit then stays
	// +Inf and every state is solved.
	bounds *stBounds
	// limit is the lowest unfairness solved so far, the seed's included. A
	// subtree whose bound is strictly above it holds no state that could
	// pass the strict u < best, so none that could end up the argmin.
	limit float64
	// ratioLimit is limit as the box bound compares it: limit²+1, the value
	// of n·Σx²/(Σx)² at that unfairness, widened by ratioSlack.
	ratioLimit float64
	best       Result
	solved     uint64
	// done is set once best reaches 0, below which Eq. 2 cannot go.
	done bool

	// The state under the cursor, and the seed scan's pick with its score.
	counts, mbaIdx      []int
	seedCounts, seedIdx []int
	seedScore           float64
	// seedKids holds the children of the seed scan's nodes on the path
	// under the cursor, per depth, in the order they are visited (kidsAt).
	seedKids []seedKid
	// tails[k] summarises apps k… of the composition under the cursor at
	// any grid level; tails[n] is empty.
	tails []agg
	// box holds the span of every app at the node under the cursor: its
	// own where the app is fixed, an envelope where it is open. breaks is
	// scratch for boxRatio.
	box    []span
	breaks []float64

	allocs    []machine.Alloc
	slowdowns []float64
	ips       []float64
	masks     []uint64
	perfs     []machine.Perf
}

// newSTSearch sets up a search over the apps of session, whose solo IPS
// are in solo, with no state solved yet.
func newSTSearch(ways int, grid []int, solo []float64, session *machine.SolveSession) stSearch {
	n := len(solo)
	return stSearch{
		ways: ways, grid: grid, solo: solo, session: session,
		bounds: newSTBounds(session, solo, ways, grid),
		limit:  math.Inf(1), ratioLimit: math.Inf(1),
		// The best state's slices are allocated once and overwritten in
		// place, so a run's allocation count does not depend on how many
		// improvements the enumeration order produces.
		best: Result{
			Names:      make([]string, n),
			Allocs:     make([]machine.Alloc, n),
			Slowdowns:  make([]float64, n),
			Unfairness: -1,
		},
		counts: make([]int, n), mbaIdx: make([]int, n), seedCounts: make([]int, n), seedIdx: make([]int, n),
		seedKids: make([]seedKid, max(2*n-3, 0)*max(ways, len(grid))),
		// Scratch reused across the thousands of solved states.
		allocs: make([]machine.Alloc, n), slowdowns: make([]float64, n), ips: make([]float64, n),
		masks: make([]uint64, n), perfs: make([]machine.Perf, n),
		tails: make([]agg, n+1), box: make([]span, n), breaks: make([]float64, 2*n+2),
	}
}

// solve solves the state under the cursor into the scratch slices and
// returns its unfairness.
func (s *stSearch) solve() (float64, error) {
	s.solved++
	masks, err := machine.AssignContiguousWaysInto(s.masks, s.counts, 0, s.ways)
	if err != nil {
		return 0, err
	}
	for i := range s.allocs {
		s.allocs[i] = machine.Alloc{CBM: masks[i], MBALevel: s.grid[s.mbaIdx[i]]}
	}
	if err := s.session.SolveInto(s.perfs, s.allocs); err != nil {
		return 0, err
	}
	for i := range s.perfs {
		s.slowdowns[i] = s.solo[i] / s.perfs[i].IPS
		s.ips[i] = s.perfs[i].IPS
	}
	return fairness.Unfairness(s.slowdowns)
}

// seed solves one promising state before the search starts, so that the
// search prunes against its unfairness from the first node on instead of
// waiting for the enumeration order to come by a good incumbent. The
// pick is the state fairest under the contention-free estimate: every
// app at the low end of its span. Any solved state's unfairness is an
// upper bound on the minimum, hence a valid limit; it is deliberately
// not recorded as best, which stays the first state in enumeration order
// to reach the minimum.
func (s *stSearch) seed() error {
	if s.bounds == nil {
		return nil
	}
	s.seedScore = math.Inf(1)
	s.seedWays(0, s.ways)
	if math.IsInf(s.seedScore, 1) {
		return nil
	}
	copy(s.counts, s.seedCounts)
	copy(s.mbaIdx, s.seedIdx)
	u, err := s.solve()
	if err != nil {
		return err
	}
	s.lowerLimit(u)
	return nil
}

// lowerLimit makes u, the unfairness of a solved state, the pruning limit.
func (s *stSearch) lowerLimit(u float64) {
	s.limit, s.ratioLimit = u, (u*u+1)*(1+ratioSlack)
}

// seedWays and seedMBA look for the state with the lowest seedScore, and
// among equal scores for the first in the search's order — the one a walk
// of every state in that order would keep under a strict <. They visit a
// node's children fairest box first (seedKids), so that a good pick is
// found early, and skip a child whose box of low ends scores above the
// pick so far (seedBound): a score, summed in app order, does not depend
// on the order the states are visited in, and the first-in-order rule is
// kept by comparing positions on ties (seedKeep). s.box holds each app's
// low ends at the node being bounded: their envelope over 1…most ways
// where the app's count is open, over the grid where only its level is,
// a point where both are fixed.
func (s *stSearch) seedWays(app, remaining int) {
	n, b := len(s.counts), s.bounds
	if app == n-1 {
		s.counts[app] = remaining
		s.box[app] = b.loOverGrid[app*(s.ways+1)+remaining]
		if !s.seedCut(s.seedBound()) {
			s.seedMBA(0, 0, 0)
		}
		return
	}
	// From loBlindFrom on, every count gives the apps the same low ends,
	// so the states below w > 1 score as states below w = 1 do, which come
	// first.
	last := remaining - (n - 1 - app)
	if app >= b.loBlindFrom {
		last = 1
	}
	kids := s.kidsAt(app)[:last]
	for w := 1; w <= last; w++ {
		s.setSeedWays(app, remaining, w)
		kids[w-1] = seedKid{s.seedBound(), w}
	}
	sortSeedKids(kids)
	for _, k := range kids {
		if s.seedCut(k.bound) {
			return // the rest bound no lower
		}
		s.setSeedWays(app, remaining, k.at)
		s.seedWays(app+1, remaining-k.at)
	}
}

// setSeedWays gives app w of the remaining ways in counts and s.box, and
// the apps after it their envelopes over what is left.
func (s *stSearch) setSeedWays(app, remaining, w int) {
	b := s.bounds
	s.counts[app] = w
	s.box[app] = b.loOverGrid[app*(s.ways+1)+w]
	most := remaining - w - (len(s.counts) - 2 - app)
	for i := app + 1; i < len(s.counts); i++ {
		s.box[i] = b.loOverWays[i*(s.ways+1)+most]
	}
}

// seedMBA carries Σx and Σx² of the estimates down the sweep: Eq. 2
// squared is n·Σx²/(Σx)² − 1, so the state with the least Σx²/(Σx)², its
// score, is the fairest. Below two open apps a node has too few states to
// be worth a bound: they are scored in order.
func (s *stSearch) seedMBA(app int, sum, sumSq float64) {
	n := len(s.counts)
	row := s.bounds.row(app, s.counts[app])
	if app >= n-2 {
		for j, sp := range row {
			s.mbaIdx[app] = j
			sum, sumSq := sum+sp.lo, sumSq+sp.lo*sp.lo
			if app < n-1 {
				s.seedMBA(app+1, sum, sumSq)
			} else {
				s.seedKeep(sumSq / (sum * sum))
			}
		}
		return
	}
	kids := s.kidsAt(n - 1 + app)[:len(row)]
	for j, sp := range row {
		s.box[app] = span{sp.lo, sp.lo}
		kids[j] = seedKid{s.seedBound(), j}
	}
	sortSeedKids(kids)
	for _, k := range kids {
		if s.seedCut(k.bound) {
			break
		}
		lo := row[k.at].lo
		s.mbaIdx[app], s.box[app] = k.at, span{lo, lo}
		s.seedMBA(app+1, sum+lo, sumSq+lo*lo)
	}
	s.box[app] = s.bounds.loOverGrid[app*(s.ways+1)+s.counts[app]]
}

// seedKeep makes the state under the cursor the pick if it scores lower,
// or the same and comes first in the search's order: counts, then levels,
// compared from app 0. A NaN score is never kept.
func (s *stSearch) seedKeep(score float64) {
	if !(score <= s.seedScore) {
		return
	}
	if score == s.seedScore { //copart:floateq a tie, which the full walk settles by order
		later := slices.Compare(s.counts, s.seedCounts)
		if later == 0 {
			later = slices.Compare(s.mbaIdx, s.seedIdx)
		}
		if later > 0 {
			return
		}
	}
	s.seedScore = score
	copy(s.seedCounts, s.counts)
	copy(s.seedIdx, s.mbaIdx)
}

// seedKid is a child of a seed-scan node: its box's least n·Σx²/(Σx)² and
// its way count or grid index.
type seedKid struct {
	bound float64
	at    int
}

// kidsAt is the seed scan's scratch for the children of a node at a
// depth: app for seedWays (app < n−1), n−1+app for seedMBA (app < n−2).
func (s *stSearch) kidsAt(depth int) []seedKid {
	per := max(s.ways, len(s.grid))
	return s.seedKids[depth*per:][:per]
}

// sortSeedKids orders kids, filled in position order, by bound: a stable
// insertion sort, for the handful a node has.
func sortSeedKids(kids []seedKid) {
	for i := 1; i < len(kids); i++ {
		for j := i; j > 0 && kids[j].bound < kids[j-1].bound; j-- {
			kids[j], kids[j-1] = kids[j-1], kids[j]
		}
	}
}

// seedBound is the least n·Σx²/(Σx)² on the box s.box (boxRatio): every
// state whose low ends lie in it scores at least that over n. Where the
// spans share a point, or an end is NaN or infinite, it is 1, the least
// of any vector, which cuts nothing.
func (s *stSearch) seedBound() float64 {
	a := noSpans
	for _, sp := range s.box {
		a = a.with(sp)
	}
	if !(a.maxLo > a.minHi && a.sumHi < math.Inf(1)) {
		return 1
	}
	num, den := s.boxRatio(a)
	if bound := num / den; bound > 1 {
		return bound
	}
	return 1
}

// seedCut reports whether a box of that bound holds no state that scores
// at most the pick, shaved by ratioSlack: neither a lower score nor a tie.
func (s *stSearch) seedCut(bound float64) bool {
	return bound*(1-ratioSlack) > float64(len(s.counts))*s.seedScore
}

// splitWays fixes the way counts of apps app… out of remaining ways;
// fixed summarises the apps before them at any grid level.
func (s *stSearch) splitWays(app, remaining int, fixed agg) error {
	n, b := len(s.counts), s.bounds
	if app == n-1 {
		s.counts[app] = remaining
		if b != nil {
			b.tailsInto(s.tails, s.box, s.counts)
			if s.cut(s.tails[0], b.atLeast(s.tails[0])) {
				return nil
			}
		}
		return s.sweepMBA(0, noSpans)
	}
	// Leave at least one way per remaining application.
	for w := 1; w <= remaining-(n-1-app); w++ {
		s.counts[app] = w
		next := fixed
		if b != nil {
			s.box[app] = b.overGrid[app*(s.ways+1)+w]
			next = fixed.with(s.box[app])
			if a := b.waysNode(s.box, next, app+1, remaining-w); s.cut(a, b.atLeast(a)) {
				continue
			}
		}
		if err := s.splitWays(app+1, remaining-w, next); err != nil || s.done {
			return err
		}
	}
	return nil
}

// sweepMBA fixes the MBA levels of apps app… under the composition in
// counts; fixed summarises the apps before them at their levels. Below
// the last app the node is a state, its bound the state's own. It finds
// box[app:] at the apps' envelopes over the grid and leaves it so.
func (s *stSearch) sweepMBA(app int, fixed agg) error {
	n, b := len(s.counts), s.bounds
	var row []span
	if b != nil {
		row = b.row(app, s.counts[app])
	}
	for j := range s.grid {
		s.mbaIdx[app] = j
		next := fixed
		if b != nil {
			s.box[app] = row[j]
			next = fixed.with(row[j])
			if a := next.join(s.tails[app+1]); s.cut(a, b.atLeast(a)) {
				continue
			}
		}
		if app < n-1 {
			if err := s.sweepMBA(app+1, next); err != nil || s.done {
				return err
			}
			continue
		}
		u, err := s.solve()
		if err != nil {
			return err
		}
		if s.best.Unfairness < 0 || u < s.best.Unfairness {
			tp, err := fairness.Throughput(s.ips)
			if err != nil {
				return err
			}
			copy(s.best.Allocs, s.allocs)
			copy(s.best.Slowdowns, s.slowdowns)
			s.best.Unfairness, s.best.Throughput = u, tp
			if u < s.limit {
				s.lowerLimit(u)
			}
			if u == 0 { // Eq. 2 is σ/μ ≥ 0: no later state passes u < 0
				s.done = true
				return nil
			}
		}
	}
	if b != nil {
		s.box[app] = b.overGrid[app*(s.ways+1)+s.counts[app]]
	}
	return nil
}

// boundSlack is the relative margin on every bound the ST search prunes
// with: far above the few-ulp float error of the bounds' own arithmetic,
// far below any unfairness gap worth a solve.
const boundSlack = 1e-9

// ratioSlack is the relative margin on the box bound, taken on the ratio
// n·Σx²/(Σx)² = u²+1 it is compared on: a relative 1e-9 on a u of 1e-3
// would be 1e-15 there, the ratio's own rounding.
const ratioSlack = 1e-12

// cut reports whether the node whose spans are in box, summarised by a,
// holds no state that could pass the strict u < best: the range bound
// says so, or failing that the exact one. The exact one is not asked
// where it cannot say so: with every app clamped to the middle of the gap
// from min hi to max lo none is further from it than half the gap or
// below min hi, a point of unfairness at most gap/2/min hi — and 0 where
// the spans share a point. rangeBound is atLeast(a), taken by the caller
// to keep cut inside the inliner's budget: the mixes neither bound prunes
// pay no call for being asked.
func (s *stSearch) cut(a agg, rangeBound float64) bool {
	return rangeBound > s.limit || (a.maxLo-a.minHi > 2*s.limit*a.minHi && s.boxAbove(a))
}

// boxAbove reports whether Eq. 2 is above the limit on the whole box
// ∏[lo, hi] of s.box. The ratio at the point cut argues with comes first:
// at or below the limit it spares the sweep. A NaN fails every comparison
// that cuts, and so does an infinite end through the summed widths: such
// a box is solved.
func (s *stSearch) boxAbove(a agg) bool {
	mid := (a.maxLo + a.minHi) / 2
	var sum, sumSq, width float64
	for _, sp := range s.box {
		x := max(sp.lo, min(mid, sp.hi))
		sum, sumSq, width = sum+x, sumSq+x*x, width+(sp.hi-sp.lo)
	}
	if float64(len(s.box))*sumSq <= s.ratioLimit*sum*sum || !(width < math.Inf(1)) {
		return false
	}
	num, den := s.boxRatio(a)
	return num > s.ratioLimit*den
}

// boxRatio returns n·Σx² and (Σx)² where their quotient is least on the
// box: at x_i = clamp(c, lo_i, hi_i) for one c, since with Σx held Σx² is
// least there. As c rises an app sits at its lo, then moves with c, then
// sits at its hi. With S1 = Σx and S2 = Σx² over the apps that sit and m
// apps moving, the quotient falls while c·S1 < S2 and rises after, and
// c·S1 − S2 is continuous and increasing across the breakpoints: one
// sweep up them finds the segment holding c = S2/S1, where the quotient
// is n·S2/(S1² + m·S2). That c lies in [min hi, max lo], so only the
// breakpoints there are sorted; breaks has room for them and two +Inf.
func (s *stSearch) boxRatio(a agg) (num, den float64) {
	n := len(s.box)
	los, his := s.breaks[:0:n+1], s.breaks[n+1:n+1]
	var s1, s2 float64
	for _, sp := range s.box {
		if sp.lo > a.minHi {
			s1, s2 = s1+sp.lo, s2+sp.lo*sp.lo
			los = append(los, sp.lo)
		}
		if sp.hi < a.maxLo {
			his = append(his, sp.hi)
		}
	}
	moving := float64(n - len(los))
	slices.Sort(los)
	slices.Sort(his)
	los, his = append(los, math.Inf(1)), append(his, math.Inf(1))
	for len(los) > 0 && len(his) > 0 {
		c, d := los[0], -1.0 // the next breakpoint, and what passing it adds to the sitting apps
		if his[0] <= c {
			c, d, his = his[0], 1, his[1:]
		} else {
			los = los[1:]
		}
		if !(c*s1 < s2) {
			break
		}
		s1, s2, moving = s1+d*c, s2+d*c*c, moving-d
	}
	return float64(n) * s2, s1*s1 + moving*s2
}

// span is an interval a slowdown is known to lie in.
type span struct{ lo, hi float64 }

// agg is what the unfairness bound reads off a set of spans: the largest
// lo, the smallest hi and the sum of the his.
type agg struct{ maxLo, minHi, sumHi float64 }

// noSpans is the agg of no spans.
var noSpans = agg{minHi: math.Inf(1)}

func (a agg) with(sp span) agg {
	return agg{max(a.maxLo, sp.lo), min(a.minHi, sp.hi), a.sumHi + sp.hi}
}

func (a agg) join(b agg) agg {
	return agg{max(a.maxLo, b.maxLo), min(a.minHi, b.minHi), a.sumHi + b.sumHi}
}

// stBounds tabulates, once per run, the slowdown spans the search prunes
// on and their envelopes over the axes a subtree leaves open. An
// envelope keeps the smallest lo and the largest hi: under max lo, min hi
// and Σhi it can only lower the bound, so a subtree's bound never exceeds
// that of any state in it.
type stBounds struct {
	ways, levels int
	// Population σ of n numbers is at least range/√(2n); over the mean,
	// range·√(n/2)/sum.
	sigmaPerRange float64
	// leaf[(app*(ways+1)+w)*levels+j] brackets app's slowdown when it
	// holds w ways at grid[j] in any exclusive state, widened by
	// boundSlack each side.
	leaf []span
	// overGrid[app*(ways+1)+w] envelopes leaf over the grid, and
	// overWays[app*(ways+1)+k] overGrid over 1…k ways. loOverGrid and
	// loOverWays are the same envelopes of the leaves' lo ends alone,
	// which the seed scan scores.
	overGrid, overWays     []span
	loOverGrid, loOverWays []span
	// loBlindFrom is the first app from which on every app's lo ends are
	// the same at any way count.
	loBlindFrom int
}

// newSTBounds returns nil when the session has no bounds to offer.
func newSTBounds(session *machine.SolveSession, solo []float64, ways int, grid []int) *stBounds {
	n := len(solo)
	b := &stBounds{
		ways: ways, levels: len(grid),
		sigmaPerRange: math.Sqrt(float64(n) / 2),
		leaf:          make([]span, n*(ways+1)*len(grid)),
		overGrid:      make([]span, 4*n*(ways+1)),
	}
	envelopes := n * (ways + 1)
	b.overGrid, b.overWays = b.overGrid[:envelopes], b.overGrid[envelopes:]
	b.overWays, b.loOverGrid = b.overWays[:envelopes], b.overWays[envelopes:]
	b.loOverGrid, b.loOverWays = b.loOverGrid[:envelopes], b.loOverGrid[envelopes:]
	for i, full := range solo {
		anyWays, loAnyWays := span{lo: math.Inf(1)}, span{lo: math.Inf(1)}
		for w := 1; w <= ways; w++ {
			anyLevel, loAnyLevel := span{lo: math.Inf(1)}, span{lo: math.Inf(1)}
			for j, level := range grid {
				lo, hi, ok := session.IPSBounds(i, w, level)
				if !ok {
					return nil
				}
				sp := span{full / hi * (1 - boundSlack), full / lo * (1 + boundSlack)}
				b.row(i, w)[j] = sp
				anyLevel = span{min(anyLevel.lo, sp.lo), max(anyLevel.hi, sp.hi)}
				loAnyLevel = span{min(loAnyLevel.lo, sp.lo), max(loAnyLevel.hi, sp.lo)}
			}
			anyWays = span{min(anyWays.lo, anyLevel.lo), max(anyWays.hi, anyLevel.hi)}
			loAnyWays = span{min(loAnyWays.lo, loAnyLevel.lo), max(loAnyWays.hi, loAnyLevel.hi)}
			k := i*(ways+1) + w
			b.overGrid[k], b.overWays[k] = anyLevel, anyWays
			b.loOverGrid[k], b.loOverWays[k] = loAnyLevel, loAnyWays
		}
	}
	b.loBlindFrom = n
	for b.loBlindFrom > 0 && b.loBlind(b.loBlindFrom-1) {
		b.loBlindFrom--
	}
	return b
}

// loBlind reports whether app's lo ends are the same at every way count.
func (b *stBounds) loBlind(app int) bool {
	for w := 2; w <= b.ways; w++ {
		for j, sp := range b.row(app, w) {
			if sp.lo != b.row(app, 1)[j].lo { //copart:floateq the same bits score the same
				return false
			}
		}
	}
	return true
}

// row is app's spans at w ways, one per grid level.
func (b *stBounds) row(app, w int) []span {
	return b.leaf[(app*(b.ways+1)+w)*b.levels:][:b.levels]
}

// atLeast is a lower bound on the unfairness of any state whose slowdown
// spans a summarises: the range is at least max lo − min hi, the mean at
// most mean hi.
func (b *stBounds) atLeast(a agg) float64 {
	return (a.maxLo - a.minHi) * b.sigmaPerRange / a.sumHi * (1 - boundSlack)
}

// waysNode summarises the states below a node of the ways recursion: the
// apps before app are summarised in fixed, the others share remaining
// ways, so each holds at most remaining less one for every other. Their
// envelopes go into box[app:].
func (b *stBounds) waysNode(box []span, fixed agg, app, remaining int) agg {
	most := remaining - (len(box) - 1 - app)
	for i := app; i < len(box); i++ {
		box[i] = b.overWays[i*(b.ways+1)+most]
		fixed = fixed.with(box[i])
	}
	return fixed
}

// tailsInto sets box[k] to app k's envelope at its way count and any grid
// level, and tails[k] to the summary of apps k….
func (b *stBounds) tailsInto(tails []agg, box []span, counts []int) {
	tails[len(counts)] = noSpans
	for i := len(counts) - 1; i >= 0; i-- {
		box[i] = b.overGrid[i*(b.ways+1)+counts[i]]
		tails[i] = tails[i+1].with(box[i])
	}
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

// explore builds a fresh machine from cfg, consolidates models on it and
// runs d's manager — profile, then exploration until it settles or
// MaxPeriods (default 300) elapse. The machine memoizes its solves:
// exploration revisits allocation states constantly, and each revisit
// skips a whole fixed-point solve. Run and ExploreTime differ only in what
// they read off the result.
func (d *Dynamic) explore(cfg machine.Config, models []machine.AppModel) (*machine.Machine, *core.Manager, error) {
	m, err := machine.New(cfg, machine.WithSolveCache())
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
// builds its own machine and seeds its own RNG from d.Seed.
func (d *Dynamic) Run(cfg machine.Config, models []machine.AppModel) (Result, error) {
	m, _, err := d.explore(cfg, models)
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

// ExploreTime runs the dynamic policy as Run does and reports the mean
// wall-clock getNextSystemState duration (the Figure 16 overhead metric),
// which the machine's memo does not touch: choosing the next state solves
// nothing.
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
