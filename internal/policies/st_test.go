package policies

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fairness"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// exhaustiveST is the reference arm for ST.Run: the same enumeration
// order (walkStates), the same session solve and the same strict
// u < best — but every state solved. It lives only here; production has
// no second search.
func exhaustiveST(t *testing.T, cfg machine.Config, models []machine.AppModel, grid []int) Result {
	t.Helper()
	n := len(models)
	session, solo := soloSession(t, cfg, models)
	best := Result{Names: make([]string, n), Unfairness: -1}
	for i, model := range models {
		best.Names[i] = model.Name
	}
	allocs, perfs := make([]machine.Alloc, n), make([]machine.Perf, n)
	slowdowns, ips := make([]float64, n), make([]float64, n)
	walkStates(n, cfg.LLCWays, len(grid), func(counts, mbaIdx []int) {
		masks, err := machine.AssignContiguousWays(counts, 0, cfg.LLCWays)
		if err != nil {
			t.Fatal(err)
		}
		for i := range allocs {
			allocs[i] = machine.Alloc{CBM: masks[i], MBALevel: grid[mbaIdx[i]]}
		}
		if err := session.SolveInto(perfs, allocs); err != nil {
			t.Fatal(err)
		}
		for i := range perfs {
			slowdowns[i], ips[i] = solo[i]/perfs[i].IPS, perfs[i].IPS
		}
		u, err := fairness.Unfairness(slowdowns)
		if err != nil {
			t.Fatal(err)
		}
		if best.Unfairness < 0 || u < best.Unfairness {
			best.Allocs = append(best.Allocs[:0], allocs...)
			best.Slowdowns = append(best.Slowdowns[:0], slowdowns...)
			best.Unfairness = u
			if best.Throughput, err = fairness.Throughput(ips); err != nil {
				t.Fatal(err)
			}
		}
	})
	return best
}

// sameResult reports the first difference between two Results, comparing
// every float by its bits.
func sameResult(got, want Result) error {
	bits := math.Float64bits
	if bits(got.Unfairness) != bits(want.Unfairness) {
		return fmt.Errorf("unfairness %v (%#x), want %v (%#x)",
			got.Unfairness, bits(got.Unfairness), want.Unfairness, bits(want.Unfairness))
	}
	if bits(got.Throughput) != bits(want.Throughput) {
		return fmt.Errorf("throughput %v, want %v", got.Throughput, want.Throughput)
	}
	if len(got.Allocs) != len(want.Allocs) || len(got.Slowdowns) != len(want.Slowdowns) || len(got.Names) != len(want.Names) {
		return fmt.Errorf("shape %d/%d/%d, want %d/%d/%d", len(got.Names), len(got.Allocs), len(got.Slowdowns),
			len(want.Names), len(want.Allocs), len(want.Slowdowns))
	}
	for i := range want.Allocs {
		if got.Allocs[i] != want.Allocs[i] {
			return fmt.Errorf("chose %+v, want %+v", got.Allocs, want.Allocs)
		}
		if bits(got.Slowdowns[i]) != bits(want.Slowdowns[i]) {
			return fmt.Errorf("slowdown %d is %v, want %v", i, got.Slowdowns[i], want.Slowdowns[i])
		}
		if got.Names[i] != want.Names[i] {
			return fmt.Errorf("name %d is %q, want %q", i, got.Names[i], want.Names[i])
		}
	}
	return nil
}

// soloSession opens a solve session on a fresh machine, as ST.Run does,
// and returns it with each app's solo full-resource IPS.
func soloSession(t *testing.T, cfg machine.Config, models []machine.AppModel) (*machine.SolveSession, []float64) {
	t.Helper()
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	solo := make([]float64, len(models))
	for i, model := range models {
		p, err := m.SoloPerf(model)
		if err != nil {
			t.Fatal(err)
		}
		solo[i] = p.IPS
	}
	return m.NewSolveSession(models), solo
}

// stTables builds, for a mix, the bound tables ST.Run searches with.
func stTables(t *testing.T, cfg machine.Config, models []machine.AppModel, grid []int) *stBounds {
	t.Helper()
	session, solo := soloSession(t, cfg, models)
	b := newSTBounds(session, solo, cfg.LLCWays, grid)
	if b == nil {
		t.Fatal("no bounds on a single-socket machine")
	}
	return b
}

// boxSearch is the part of an stSearch that cut reads, over the spans in
// box, with the limit at limit.
func boxSearch(b *stBounds, box []span, limit float64) *stSearch {
	s := &stSearch{bounds: b, box: box, breaks: make([]float64, 2*len(box)+2)}
	s.lowerLimit(limit)
	return s
}

// summary is the agg of the spans in box.
func summary(box []span) agg {
	a := noSpans
	for _, sp := range box {
		a = a.with(sp)
	}
	return a
}

// cutBox is how stSearch tests a node whose spans are in s.box.
func cutBox(s *stSearch) bool {
	a := summary(s.box)
	return s.cut(a, s.bounds.atLeast(a))
}

// stFloors counts the states a search cannot skip once its limit is the
// optimum: floor those stSearch.cut lets through (the box bound decides:
// it dominates the range bound), rangeFloor those the range bound alone
// would.
func stFloors(b *stBounds, n int, optimum float64) (floor, rangeFloor uint64) {
	s := boxSearch(b, make([]span, n), optimum)
	walkStates(n, b.ways, b.levels, func(counts, mbaIdx []int) {
		a := mbaPrefix(b, s.box, counts, mbaIdx)
		if !cutBox(s) {
			floor++
		}
		if !(b.atLeast(a) > optimum) {
			rangeFloor++
		}
	})
	return floor, rangeFloor
}

// walkStates visits every state in ST's enumeration order: way
// compositions outermost, app 0 first; then MBA levels, app 0 slowest.
func walkStates(n, ways, levels int, visit func(counts, mbaIdx []int)) {
	counts, mbaIdx := make([]int, n), make([]int, n)
	var sweep func(app int)
	sweep = func(app int) {
		if app == n {
			visit(counts, mbaIdx)
			return
		}
		for j := 0; j < levels; j++ {
			mbaIdx[app] = j
			sweep(app + 1)
		}
	}
	var split func(app, remaining int)
	split = func(app, remaining int) {
		if app == n-1 {
			counts[app] = remaining
			sweep(0)
			return
		}
		for w := 1; w <= remaining-(n-1-app); w++ {
			counts[app] = w
			split(app+1, remaining-w)
		}
	}
	split(0, ways)
}

// randomMix draws 3–6 catalog apps with perturbed intensity and locality
// on 8–11 ways, searched on the default grid or a random 2–3-level one.
func randomMix(t *testing.T, rng *rand.Rand) (machine.Config, []machine.AppModel, ST) {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.LLCWays = 8 + rng.Intn(4)
	catalog, err := workloads.Catalog(cfg)
	if err != nil {
		t.Fatal(err)
	}
	models := make([]machine.AppModel, 3+rng.Intn(4))
	for i := range models {
		models[i] = randomModel(rng, catalog, i)
	}
	return cfg, models, randomGrid(rng)
}

// randomModel draws the i-th app of a mix from catalog, with perturbed
// intensity and locality.
func randomModel(rng *rand.Rand, catalog []workloads.Spec, i int) machine.AppModel {
	model := catalog[rng.Intn(len(catalog))].Model
	model.Name = fmt.Sprintf("%s#%d", model.Name, i)
	model.AccPerInstr *= 0.25 + 2*rng.Float64()
	model.CPIBase *= 0.5 + rng.Float64()
	model.Hot = append([]machine.WSComponent(nil), model.Hot...)
	for c := range model.Hot {
		model.Hot[c].Bytes *= 0.25 + 2*rng.Float64()
	}
	return model
}

// randomGrid is the default grid, or one time in three a random 2–3-level
// one.
func randomGrid(rng *rand.Rand) ST {
	var st ST
	if rng.Intn(3) == 0 {
		for _, l := range rng.Perm(10)[:2+rng.Intn(2)] {
			st.MBAGrid = append(st.MBAGrid, 10*(l+1))
		}
	}
	return st
}

// randomWideMix draws 2–8 apps on 8–11 ways (8–9 from seven apps on, to
// keep the exhaustive arm cheap): catalog apps as randomModel perturbs
// them, searched on a randomGrid. With insensitive set they are drawn from
// the insensitive class alone, perturbed in intensity and CPI only and
// searched on the default grid, which keeps an optimum of exactly 0 in
// reach.
func randomWideMix(t *testing.T, rng *rand.Rand, insensitive bool) (machine.Config, []machine.AppModel, ST) {
	t.Helper()
	n := 2 + rng.Intn(7)
	cfg := machine.DefaultConfig()
	if cfg.LLCWays = 8 + rng.Intn(4); n >= 7 {
		cfg.LLCWays = 8 + rng.Intn(2)
	}
	catalog, err := workloads.Catalog(cfg)
	if err != nil {
		t.Fatal(err)
	}
	models := make([]machine.AppModel, n)
	if !insensitive {
		for i := range models {
			models[i] = randomModel(rng, catalog, i)
		}
		return cfg, models, randomGrid(rng)
	}
	catalog = slices.DeleteFunc(catalog, func(s workloads.Spec) bool { return s.Category != workloads.Insensitive })
	for i := range models {
		model := catalog[rng.Intn(len(catalog))].Model
		model.Name = fmt.Sprintf("%s#%d", model.Name, i)
		model.AccPerInstr *= 0.25 + 2*rng.Float64()
		model.CPIBase *= 0.5 + rng.Float64()
		models[i] = model
	}
	return cfg, models, ST{}
}

// TestSTBoundedMatchesExhaustive pins that pruning is invisible: on every
// mix ST.Run returns, bit for bit, what solving every state returns — the
// same argmin and the same first-in-enumeration-order winner among equal
// minima — while solving, on each Fig 12 mix, no state beyond the seed
// and the ones whose own box bound does not exceed the optimum: under
// 3.5 % of the matrix, and a share that falls as the mix grows.
func TestSTBoundedMatchesExhaustive(t *testing.T) {
	// run compares the two arms on one mix and returns the optimum, the
	// size of the search space and how many states the bounded arm solved.
	run := func(name string, cfg machine.Config, st ST, models []machine.AppModel) (optimum float64, enumerated, solved uint64) {
		t.Helper()
		want := exhaustiveST(t, cfg, models, st.grid(len(models)))
		e0, s0 := STStates()
		got, err := st.Run(cfg, models)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		e1, s1 := STStates()
		if err := sameResult(got, want); err != nil {
			t.Errorf("%s: bounded search differs from exhaustive: %v", name, err)
		}
		return want.Unfairness, e1 - e0, s1 - s0
	}
	cfg := machine.DefaultConfig()

	var enumerated, solved uint64
	for _, kind := range workloads.MixKinds() {
		models := mix(t, kind, 4)
		optimum, e, s := run(kind.String()+"/4", cfg, ST{}, models)
		enumerated, solved = enumerated+e, solved+s
		floor, rangeFloor := stFloors(stTables(t, cfg, models, ST{}.grid(4)), 4, optimum)
		t.Logf("%v: solved %d of %d states, floor %d (range bound alone %d)", kind, s, e, floor, rangeFloor)
		if s > floor+1 {
			t.Errorf("%v: solved %d states, want at most the floor of %d and the seed", kind, s, floor)
		}
	}
	if enumerated != 215040 || 1000*solved > 35*enumerated {
		t.Errorf("Fig 12 matrix: solved %d of %d states, want at most 3.5%% of 215040", solved, enumerated)
	}
	if _, _, s := run("H-Both/6", cfg, ST{}, mix(t, workloads.HBoth, 6)); s > 100 {
		t.Errorf("H-Both/6: solved %d states, want at most 100", s)
	}
	if !testing.Short() { // the exhaustive arm solves 787 320 states, ~0.5 s
		if _, e, s := run("H-Both/8", cfg, ST{}, mix(t, workloads.HBoth, 8)); e != 787320 || 100*s > 2*e {
			t.Errorf("H-Both/8: solved %d of %d states, want at most 2%% of 787320", s, e)
		}
	}

	// Two identical apps: swapping their allocations ties, so the first
	// state in enumeration order must win in both arms.
	twins := mix(t, workloads.HBW, 4)
	twins[2] = twins[0]
	twins[2].Name += "-twin"
	run("twins", cfg, ST{}, twins)

	// Four near-twins, parameters apart by 1e-7…1e-3: the optimum is tiny
	// but not 0, where a margin taken on u instead of on the ratio u²+1
	// would sit below the ratio's own rounding.
	near := mix(t, workloads.HBW, 4)
	for i := range near {
		near[i] = near[0]
		near[i].Name = fmt.Sprintf("near#%d", i)
	}
	near[1].AccPerInstr *= 1 + 1e-7
	near[2].CPIBase *= 1 + 1e-5
	near[3].AccPerInstr *= 1 - 1e-3
	if u, _, _ := run("near-twins", cfg, ST{}, near); !(u > 0 && u < 1e-3) {
		t.Errorf("near-twins: optimum %v, want tiny but non-zero", u)
	}

	// Eq. 2 reaches 0 on all-insensitive mixes, where the search ends at
	// the first state in order that does: IS at 4, 6 and 8 apps, and random
	// mixes of 2–8 insensitive apps, most of which reach exactly 0 — the
	// others stop at a rounding residue near 1e-16, which must not end the
	// search.
	for _, n := range []int{4, 6, 8} {
		if n == 8 && testing.Short() { // the exhaustive arm solves 787 320 states
			continue
		}
		if u, e, s := run(fmt.Sprintf("IS/%d", n), cfg, ST{}, mix(t, workloads.IS, n)); u != 0 || s >= e {
			t.Errorf("IS/%d: optimum %v after %d of %d states, want 0 and an early exit", n, u, s, e)
		}
	}
	trials, zeros := 20, 0
	if testing.Short() {
		trials = 8
	}
	zeroRng := rand.New(rand.NewSource(51))
	for trial := 0; trial < trials; trial++ {
		rcfg, models, st := randomWideMix(t, zeroRng, true)
		if u, _, _ := run(fmt.Sprintf("insensitive %d (%d apps, %d ways)", trial, len(models), rcfg.LLCWays), rcfg, st, models); u == 0 {
			zeros++
		}
	}
	t.Logf("%d of %d insensitive mixes reach 0", zeros, trials)
	if 2*zeros < trials {
		t.Errorf("%d of %d insensitive mixes reach 0, want at least half: the exit is hardly tried", zeros, trials)
	}

	// A 2-socket machine leaves the session's table path: no bounds, no
	// seed, nothing skipped.
	dual := cfg
	dual.Sockets = 2
	split := mix(t, workloads.HBoth, 4)
	split[1].Socket, split[3].Socket = 1, 1
	if _, e, s := run("2-socket", dual, ST{}, split); s != e || e != 30720 {
		t.Errorf("2-socket: solved %d of %d states, want all 30720", s, e)
	}

	trials = 200
	if testing.Short() {
		trials = 50
	}
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < trials; trial++ {
		rcfg, models, st := randomMix(t, rng)
		run(fmt.Sprintf("random %d (%d apps, %d ways, grid %v)", trial, len(models), rcfg.LLCWays, st.MBAGrid), rcfg, st, models)
	}
}

// fullSeedScan is the seed scan as it was before it pruned: a walk of
// every state in the search's order, keeping the first with the lowest
// Σx²/(Σx)² of its slowdowns' low ends, the sums taken in app order. It
// is the reference the pruned scan is held to.
func fullSeedScan(b *stBounds, n int) (score float64, counts, mbaIdx []int) {
	score = math.Inf(1)
	walkStates(n, b.ways, b.levels, func(c, j []int) {
		var sum, sumSq float64
		for i := range c {
			lo := b.row(i, c[i])[j[i]].lo
			sum, sumSq = sum+lo, sumSq+lo*lo
		}
		if x := sumSq / (sum * sum); x < score {
			score, counts, mbaIdx = x, slices.Clone(c), slices.Clone(j)
		}
	})
	return score, counts, mbaIdx
}

// TestSeedScanMatchesFullWalk pins that the seed scan's pruning, its
// fairest-first visiting order and its skipping of way counts that leave
// the low ends alone are invisible: on the Fig 12 mixes at 4, 6 and 8
// apps and on 240 random 2–8-app mixes it picks, bit for bit, the state a
// walk of every state picks. A third of the random mixes repeat apps,
// exactly (swapped states tie, and the first in order must win) or as
// near-twins 1e-7…1e-3 apart (scores that differ in their last bits).
func TestSeedScanMatchesFullWalk(t *testing.T) {
	check := func(name string, cfg machine.Config, st ST, models []machine.AppModel) {
		t.Helper()
		n := len(models)
		session, solo := soloSession(t, cfg, models)
		s := newSTSearch(cfg.LLCWays, st.grid(n), solo, session)
		s.seedScore = math.Inf(1)
		s.seedWays(0, s.ways)
		score, counts, mbaIdx := fullSeedScan(s.bounds, n)
		if math.Float64bits(s.seedScore) != math.Float64bits(score) ||
			!slices.Equal(s.seedCounts, counts) || !slices.Equal(s.seedIdx, mbaIdx) {
			t.Errorf("%s: picked %v %v scoring %v, the full walk %v %v scoring %v",
				name, s.seedCounts, s.seedIdx, s.seedScore, counts, mbaIdx, score)
		}
	}
	cfg := machine.DefaultConfig()
	for _, n := range []int{4, 6, 8} {
		for _, kind := range workloads.MixKinds() {
			check(fmt.Sprintf("%v/%d", kind, n), cfg, ST{}, mix(t, kind, n))
		}
	}
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 240; trial++ {
		rcfg, models, st := randomWideMix(t, rng, false)
		shape := "random"
		switch trial % 6 {
		case 1: // exact duplicates
			for i := 1; i < len(models); i += 2 {
				models[i] = models[i-1]
				models[i].Name += "-twin"
			}
			shape = "duplicates"
		case 3: // near-twins of the first app
			for i := 1; i < len(models); i++ {
				name := models[i].Name
				models[i] = models[0]
				models[i].Name = name
				models[i].AccPerInstr *= 1 + math.Pow(10, -3-4*rng.Float64())
				models[i].CPIBase *= 1 + math.Pow(10, -3-4*rng.Float64())
			}
			shape = "near-twins"
		}
		check(fmt.Sprintf("%s %d (%d apps, %d ways, grid %v)", shape, trial, len(models), rcfg.LLCWays, st.MBAGrid), rcfg, st, models)
	}
}

// nodeBounds describes an internal node of the search tree from explicit
// state — its spans into box, their summary returned: ways for a node of
// the ways recursion (apps before k hold counts[:k], the others share
// remaining ways), mba for a node of the MBA sweep (every count fixed,
// apps before k at mbaIdx[:k]).
type nodeBounds struct {
	ways func(b *stBounds, box []span, counts []int, k, remaining int) agg
	mba  func(b *stBounds, box []span, counts, mbaIdx []int, k int) agg
}

// waysPrefix puts into box and summarises apps holding counts at any grid
// level, mbaPrefix the first len(mbaIdx) apps at their counts and levels:
// what stSearch hands down its two recursions as fixed.
func waysPrefix(b *stBounds, box []span, counts []int) agg {
	fixed := noSpans
	for i, w := range counts {
		box[i] = b.overGrid[i*(b.ways+1)+w]
		fixed = fixed.with(box[i])
	}
	return fixed
}

func mbaPrefix(b *stBounds, box []span, counts, mbaIdx []int) agg {
	fixed := noSpans
	for i, j := range mbaIdx {
		box[i] = b.row(i, counts[i])[j]
		fixed = fixed.with(box[i])
	}
	return fixed
}

// mbaTail puts every app into box at its count and any grid level, and
// summarises apps k….
func mbaTail(b *stBounds, box []span, counts []int, k int) agg {
	tails := make([]agg, len(counts)+1)
	b.tailsInto(tails, box, counts)
	return tails[k]
}

// searchBounds is how stSearch describes its nodes.
var searchBounds = nodeBounds{
	ways: func(b *stBounds, box []span, counts []int, k, remaining int) agg {
		return b.waysNode(box, waysPrefix(b, box, counts[:k]), k, remaining)
	},
	mba: func(b *stBounds, box []span, counts, mbaIdx []int, k int) agg {
		tail := mbaTail(b, box, counts, k)
		return mbaPrefix(b, box, counts, mbaIdx[:k]).join(tail)
	},
}

// bothBounds evaluates the two bounds stSearch.cut tests on a node: the
// range bound as an unfairness, the box bound as the ratio u²+1 it is
// compared on.
func bothBounds(b *stBounds, box []span, a agg) (rangeBound, boxBound float64) {
	if !(a.maxLo > a.minHi) {
		return b.atLeast(a), 1 // the spans share a point: cut does not ask
	}
	num, den := boxSearch(b, box, 0).boxRatio(a)
	return b.atLeast(a), num / den
}

// prefixViolations walks the whole search tree of a mix and counts the
// internal nodes whose range bound, and those whose box bound, exceeds the
// smallest such bound of a leaf beneath them by more than 1e-12 relative.
// Only the positive part of a range bound can prune, so both sides are
// clamped at 0.
func prefixViolations(b *stBounds, n int, nb nodeBounds) (nodes, rangeBad, boxBad int) {
	counts, mbaIdx, box := make([]int, n), make([]int, n), make([]span, n)
	check := func(a agg, leastRange, leastBox float64) {
		nodes++
		rangeBound, boxBound := bothBounds(b, box, a)
		if !(max(rangeBound, 0) <= max(leastRange, 0)*(1+1e-12)) {
			rangeBad++
		}
		if !(boxBound <= leastBox*(1+1e-12)) {
			boxBad++
		}
	}
	// Each walker returns the smallest leaf bounds in its subtree.
	var sweep func(app int) (float64, float64)
	sweep = func(app int) (float64, float64) {
		if app == n {
			return bothBounds(b, box, mbaPrefix(b, box, counts, mbaIdx))
		}
		leastRange, leastBox := math.Inf(1), math.Inf(1)
		for j := 0; j < b.levels; j++ {
			mbaIdx[app] = j
			r, x := sweep(app + 1)
			leastRange, leastBox = min(leastRange, r), min(leastBox, x)
		}
		check(nb.mba(b, box, counts, mbaIdx, app), leastRange, leastBox)
		return leastRange, leastBox
	}
	var split func(app, remaining int) (float64, float64)
	split = func(app, remaining int) (float64, float64) {
		if app == n-1 {
			counts[app] = remaining
			return sweep(0)
		}
		leastRange, leastBox := math.Inf(1), math.Inf(1)
		for w := 1; w <= remaining-(n-1-app); w++ {
			counts[app] = w
			r, x := split(app+1, remaining-w)
			leastRange, leastBox = min(leastRange, r), min(leastBox, x)
		}
		if app > 0 {
			check(nb.ways(b, box, counts, app, remaining), leastRange, leastBox)
		}
		return leastRange, leastBox
	}
	split(0, b.ways)
	return nodes, rangeBad, boxBad
}

// TestSTPrefixBoundBelowLeaves pins the inequality subtree pruning rests
// on: both bounds of every internal node — of the ways recursion and of
// the MBA sweep — are at most those of every state beneath it. Two broken
// descriptions show the walk would notice: an envelope taken over the
// grid only where the ways are open too, which breaks both bounds, and a
// Σhi that forgets the open apps, which the box bound does not read.
func TestSTPrefixBoundBelowLeaves(t *testing.T) {
	wrongAxis := searchBounds
	wrongAxis.ways = func(b *stBounds, box []span, counts []int, k, remaining int) agg {
		most := remaining - (len(counts) - 1 - k)
		a := waysPrefix(b, box, counts[:k])
		for i := k; i < len(counts); i++ {
			box[i] = b.overGrid[i*(b.ways+1)+most]
			a = a.with(box[i])
		}
		return a
	}
	noSuffixSum := searchBounds
	noSuffixSum.mba = func(b *stBounds, box []span, counts, mbaIdx []int, k int) agg {
		tail := mbaTail(b, box, counts, k)
		fixed := mbaPrefix(b, box, counts, mbaIdx[:k])
		a := fixed.join(tail)
		a.sumHi = fixed.sumHi
		return a
	}

	rng := rand.New(rand.NewSource(16))
	var axisRange, axisBox, sumRange int
	for trial := 0; trial < 20; trial++ {
		cfg, models, st := randomMix(t, rng)
		n := len(models)
		b := stTables(t, cfg, models, st.grid(n))
		nodes, rangeBad, boxBad := prefixViolations(b, n, searchBounds)
		if rangeBad != 0 || boxBad != 0 {
			t.Errorf("trial %d (%d apps, %d ways, grid %v): of %d internal nodes %d have a range bound and %d a box bound above a state beneath them",
				trial, n, cfg.LLCWays, st.MBAGrid, nodes, rangeBad, boxBad)
		}
		_, rangeBad, boxBad = prefixViolations(b, n, wrongAxis)
		axisRange, axisBox = axisRange+rangeBad, axisBox+boxBad
		_, rangeBad, _ = prefixViolations(b, n, noSuffixSum)
		sumRange += rangeBad
	}
	t.Logf("broken bounds: wrong-axis envelope %d range and %d box violations, missing suffix sum %d", axisRange, axisBox, sumRange)
	if axisRange == 0 || axisBox == 0 || sumRange == 0 {
		t.Errorf("broken bounds went unnoticed: wrong-axis envelope %d range and %d box violations, missing suffix sum %d", axisRange, axisBox, sumRange)
	}
}

// ratioOf is n·Σx²/(Σx)² of a point: Eq. 2 squared plus one, the form the
// box bound is computed and compared in.
func ratioOf(x []float64) float64 {
	var sum, sumSq float64
	for _, v := range x {
		sum, sumSq = sum+v, sumSq+v*v
	}
	return float64(len(x)) * sumSq / (sum * sum)
}

// clampInto sets x to the box's point at c.
func clampInto(x []float64, box []span, c float64) []float64 {
	for i, sp := range box {
		x[i] = max(sp.lo, min(c, sp.hi))
	}
	return x
}

// randomBox draws n spans of slowdown size in one of seven shapes, the
// degenerate ones included.
func randomBox(rng *rand.Rand, n, shape int) []span {
	box := make([]span, n)
	for i := range box {
		lo := 0.5 + 4*rng.Float64()
		box[i] = span{lo, lo + []float64{0.01, 0.3, 2}[rng.Intn(3)]*rng.Float64()}
	}
	switch shape % 7 {
	case 1: // points
		for i := range box {
			box[i].hi = box[i].lo
		}
	case 2: // every span holds 2.5
		for i := range box {
			box[i] = span{min(box[i].lo, 2.5), max(box[i].hi, 2.5)}
		}
	case 3: // the spans touch in one point and no more
		for i := range box {
			box[i] = span{min(box[i].lo, 2.5), max(box[i].hi, 2.5)}
		}
		box[0].hi, box[1].lo = 2.5, 2.5
	case 4: // copies of two spans
		for i := 2; i < n; i++ {
			box[i] = box[i%2]
		}
	case 5: // near-twins: ends 1e-7…1e-3 apart
		for i := range box {
			lo := 2 * (1 + math.Pow(10, -3-4*rng.Float64()))
			box[i] = span{lo, lo * (1 + math.Pow(10, -3-4*rng.Float64()))}
		}
	case 6: // one app whose low IPS bound is 0
		box[rng.Intn(n)].hi = math.Inf(1)
	}
	return box
}

// TestBoxBoundIsBoxMinimum pins boxRatio as the least of n·Σx²/(Σx)² on
// the box, to the 1e-12 relative it is shaved by: no point of the box is
// below it, a scan along the clamp path finds nothing above it, the range
// bound never exceeds it — stage 1 of cut is a speed filter, not needed
// for soundness — and spans that share a point are never cut.
func TestBoxBoundIsBoxMinimum(t *testing.T) {
	const tol = 1e-12
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 350; trial++ {
		n := 2 + trial%10
		s := boxSearch(&stBounds{sigmaPerRange: math.Sqrt(float64(n) / 2)}, randomBox(rng, n, trial/10), 0)
		a := summary(s.box)
		fail := func(format string, args ...any) {
			t.Helper()
			t.Errorf("trial %d, box %v: %s", trial, s.box, fmt.Sprintf(format, args...))
		}
		if !(a.maxLo > a.minHi) {
			if cutBox(s) {
				fail("cut at limit 0 though the spans share a point")
			}
			continue
		}
		num, den := s.boxRatio(a)
		bound := num / den
		if !(bound > 1) {
			fail("bound %v, want above 1: the spans share no point", bound)
		}

		// Below every point: 1 000 random ones and, to six apps, the corners.
		x := make([]float64, n)
		for k := 0; k < 1000; k++ {
			for i, sp := range s.box {
				x[i] = sp.lo + rng.Float64()*(min(sp.hi, sp.lo+10)-sp.lo)
			}
			if r := ratioOf(x); !(bound <= r*(1+tol)) {
				fail("bound %v above %v at %v", bound, r, x)
			}
		}
		for corner := 0; n <= 6 && corner < 1<<n; corner++ {
			for i, sp := range s.box {
				if x[i] = sp.lo; corner>>i&1 == 1 && !math.IsInf(sp.hi, 1) {
					x[i] = sp.hi
				}
			}
			if r := ratioOf(x); !(bound <= r*(1+tol)) {
				fail("bound %v above %v at corner %v", bound, r, x)
			}
		}

		// Not below the clamp path's least: a scan of 4 000 values of c over
		// the gap, where the path is unimodal, then a ternary search between
		// the neighbours of the best one.
		step := (a.maxLo - a.minHi) / 4000
		best, bestC := math.Inf(1), 0.0
		for k := 0; k <= 4000; k++ {
			if r := ratioOf(clampInto(x, s.box, a.minHi+float64(k)*step)); r < best {
				best, bestC = r, a.minHi+float64(k)*step
			}
		}
		for lo, hi, k := bestC-step, bestC+step, 0; k < 100; k++ {
			m1, m2 := lo+(hi-lo)/3, hi-(hi-lo)/3
			r1, r2 := ratioOf(clampInto(x, s.box, m1)), ratioOf(clampInto(x, s.box, m2))
			if best = min(best, r1, r2); r1 < r2 {
				hi = m2
			} else {
				lo = m1
			}
		}
		if !(bound >= best*(1-tol)) {
			fail("bound %v below the scan's %v", bound, best)
		}
		u, scanU := math.Sqrt(bound-1), math.Sqrt(best-1)
		if scanU >= 1e-2 && !(u >= (1-1e-9)*scanU) {
			fail("bound %v below the scan's %v as unfairness", u, scanU)
		}

		if !math.IsInf(a.sumHi, 1) {
			if r := s.bounds.atLeast(a); !(bound >= (1+r*r)*(1-tol)) {
				fail("bound %v below the range bound's %v", bound, 1+r*r)
			}
		}

		// cut is that bound against the limit, whichever stage answers — for
		// a bound the shave leaves something of; a box with an infinite end
		// is solved whatever the limit.
		s.lowerLimit(u * (1 + 1e-3))
		if cutBox(s) {
			fail("cut at a limit above its bound %v", u)
		}
		s.lowerLimit(u * (1 - 1e-3))
		if finite := !math.IsInf(a.sumHi, 1); u >= 1e-3 && cutBox(s) != finite {
			fail("cut at a limit below its bound %v is %v, want %v", u, !finite, finite)
		}
	}
}

// TestBoxBoundSolvesWhatItCannotRead pins the float hygiene of the new
// stage: a span with a NaN or an infinite end fails its comparison, so the
// state is solved.
func TestBoxBoundSolvesWhatItCannotRead(t *testing.T) {
	// The range bound is PR 14's and reads only the summary; at a σ per
	// range of 0 it cuts nothing and leaves the box bound alone to answer.
	s := boxSearch(&stBounds{}, make([]span, 4), 1e-3)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for at := 0; at < 2*len(s.box); at++ {
			copy(s.box, []span{{1, 1.1}, {2, 2.1}, {3, 3.1}, {4, 4.1}})
			if !cutBox(s) {
				t.Fatalf("the finite box %v is not cut", s.box)
			}
			if at%2 == 0 {
				s.box[at/2].lo = v
			} else {
				s.box[at/2].hi = v
			}
			if cutBox(s) {
				t.Errorf("box %v is cut", s.box)
			}
		}
	}
}
