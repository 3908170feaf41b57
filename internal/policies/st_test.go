package policies

import (
	"fmt"
	"math"
	"math/rand"
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
	m, err := machine.New(cfg, machine.WithSolveCache())
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

// leafBound is the bound of the single state (counts, mbaIdx).
func leafBound(b *stBounds, counts, mbaIdx []int) float64 {
	a := noSpans
	for i, w := range counts {
		a = a.with(b.row(i, w)[mbaIdx[i]])
	}
	return b.atLeast(a)
}

// stFloor counts the states no search on these bounds can skip: those
// whose own bound is at or below the optimum.
func stFloor(b *stBounds, n int, optimum float64) (floor uint64) {
	walkStates(n, b.ways, b.levels, func(counts, mbaIdx []int) {
		if !(leafBound(b, counts, mbaIdx) > optimum) {
			floor++
		}
	})
	return floor
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
		model := catalog[rng.Intn(len(catalog))].Model
		model.Name = fmt.Sprintf("%s#%d", model.Name, i)
		model.AccPerInstr *= 0.25 + 2*rng.Float64()
		model.CPIBase *= 0.5 + rng.Float64()
		model.Hot = append([]machine.WSComponent(nil), model.Hot...)
		for c := range model.Hot {
			model.Hot[c].Bytes *= 0.25 + 2*rng.Float64()
		}
		models[i] = model
	}
	var st ST
	if rng.Intn(3) == 0 {
		for _, l := range rng.Perm(10)[:2+rng.Intn(2)] {
			st.MBAGrid = append(st.MBAGrid, 10*(l+1))
		}
	}
	return cfg, models, st
}

// TestSTBoundedMatchesExhaustive pins that pruning is invisible: on every
// mix ST.Run returns, bit for bit, what solving every state returns — the
// same argmin and the same first-in-enumeration-order winner among equal
// minima — while solving, on each Fig 12 mix, no state beyond the seed
// and the ones whose own bound does not exceed the optimum: under 8 % of
// the matrix.
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
		floor := stFloor(stTables(t, cfg, models, ST{}.grid(4)), 4, optimum)
		t.Logf("%v: solved %d of %d states, floor %d", kind, s, e, floor)
		if s > floor+1 {
			t.Errorf("%v: solved %d states, want at most the floor of %d and the seed", kind, s, floor)
		}
	}
	if enumerated != 215040 || 100*solved > 8*enumerated {
		t.Errorf("Fig 12 matrix: solved %d of %d states, want at most 8%% of 215040", solved, enumerated)
	}
	run("H-Both/6", cfg, ST{}, mix(t, workloads.HBoth, 6))

	// Two identical apps: swapping their allocations ties, so the first
	// state in enumeration order must win in both arms.
	twins := mix(t, workloads.HBW, 4)
	twins[2] = twins[0]
	twins[2].Name += "-twin"
	run("twins", cfg, ST{}, twins)

	// A 2-socket machine leaves the session's table path: no bounds, no
	// seed, nothing skipped.
	dual := cfg
	dual.Sockets = 2
	split := mix(t, workloads.HBoth, 4)
	split[1].Socket, split[3].Socket = 1, 1
	if _, e, s := run("2-socket", dual, ST{}, split); s != e || e != 30720 {
		t.Errorf("2-socket: solved %d of %d states, want all 30720", s, e)
	}

	trials := 200
	if testing.Short() {
		trials = 50
	}
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < trials; trial++ {
		rcfg, models, st := randomMix(t, rng)
		run(fmt.Sprintf("random %d (%d apps, %d ways, grid %v)", trial, len(models), rcfg.LLCWays, st.MBAGrid), rcfg, st, models)
	}
}

// nodeBounds computes the bound of an internal node of the search tree
// from explicit state: ways for a node of the ways recursion (apps before
// k hold counts[:k], the others share remaining ways), mba for a node of
// the MBA sweep (every count fixed, apps before k at mbaIdx[:k]).
type nodeBounds struct {
	ways func(b *stBounds, counts []int, k, remaining int) float64
	mba  func(b *stBounds, counts, mbaIdx []int, k int) float64
}

// waysPrefix summarises apps holding counts at any grid level, mbaPrefix
// the first len(mbaIdx) apps at their counts and levels: what stSearch
// hands down its two recursions as fixed.
func waysPrefix(b *stBounds, counts []int) agg {
	fixed := noSpans
	for i, w := range counts {
		fixed = fixed.with(b.overGrid[i*(b.ways+1)+w])
	}
	return fixed
}

func mbaPrefix(b *stBounds, counts, mbaIdx []int) agg {
	fixed := noSpans
	for i, j := range mbaIdx {
		fixed = fixed.with(b.row(i, counts[i])[j])
	}
	return fixed
}

// mbaTail summarises apps k… at their counts and any grid level.
func mbaTail(b *stBounds, counts []int, k int) agg {
	tails := make([]agg, len(counts)+1)
	b.tailsInto(tails, counts)
	return tails[k]
}

// searchBounds is how stSearch bounds its nodes.
var searchBounds = nodeBounds{
	ways: func(b *stBounds, counts []int, k, remaining int) float64 {
		return b.waysNode(waysPrefix(b, counts[:k]), k, remaining)
	},
	mba: func(b *stBounds, counts, mbaIdx []int, k int) float64 {
		return b.atLeast(mbaPrefix(b, counts, mbaIdx[:k]).join(mbaTail(b, counts, k)))
	},
}

// prefixViolations walks the whole search tree of a mix and counts the
// internal nodes whose bound exceeds the smallest leaf bound beneath them
// by more than 1e-12 relative. Only the positive part of a bound can
// prune, so both sides are clamped at 0.
func prefixViolations(b *stBounds, n int, nb nodeBounds) (nodes, violations int) {
	counts, mbaIdx := make([]int, n), make([]int, n)
	check := func(node, least float64) {
		nodes++
		if !(max(node, 0) <= max(least, 0)*(1+1e-12)) {
			violations++
		}
	}
	// Each walker returns the smallest leaf bound in its subtree.
	var sweep func(app int) float64
	sweep = func(app int) float64 {
		if app == n {
			return leafBound(b, counts, mbaIdx)
		}
		least := math.Inf(1)
		for j := 0; j < b.levels; j++ {
			mbaIdx[app] = j
			least = min(least, sweep(app+1))
		}
		check(nb.mba(b, counts, mbaIdx, app), least)
		return least
	}
	var split func(app, remaining int) float64
	split = func(app, remaining int) float64 {
		if app == n-1 {
			counts[app] = remaining
			return sweep(0)
		}
		least := math.Inf(1)
		for w := 1; w <= remaining-(n-1-app); w++ {
			counts[app] = w
			least = min(least, split(app+1, remaining-w))
		}
		if app > 0 {
			check(nb.ways(b, counts, app, remaining), least)
		}
		return least
	}
	split(0, b.ways)
	return nodes, violations
}

// TestSTPrefixBoundBelowLeaves pins the inequality subtree pruning rests
// on: the bound of every internal node — of the ways recursion and of the
// MBA sweep — is at most the bound of every state beneath it. Two broken
// bounds show the walk would notice: an envelope taken over the grid only
// where the ways are open too, and a Σhi that forgets the open apps.
func TestSTPrefixBoundBelowLeaves(t *testing.T) {
	wrongAxis := searchBounds
	wrongAxis.ways = func(b *stBounds, counts []int, k, remaining int) float64 {
		most := remaining - (len(counts) - 1 - k)
		a := waysPrefix(b, counts[:k])
		for i := k; i < len(counts); i++ {
			a = a.with(b.overGrid[i*(b.ways+1)+most])
		}
		return b.atLeast(a)
	}
	noSuffixSum := searchBounds
	noSuffixSum.mba = func(b *stBounds, counts, mbaIdx []int, k int) float64 {
		fixed := mbaPrefix(b, counts, mbaIdx[:k])
		a := fixed.join(mbaTail(b, counts, k))
		a.sumHi = fixed.sumHi
		return b.atLeast(a)
	}

	rng := rand.New(rand.NewSource(16))
	var caughtAxis, caughtSum int
	for trial := 0; trial < 20; trial++ {
		cfg, models, st := randomMix(t, rng)
		n := len(models)
		b := stTables(t, cfg, models, st.grid(n))
		nodes, bad := prefixViolations(b, n, searchBounds)
		if bad != 0 {
			t.Errorf("trial %d (%d apps, %d ways, grid %v): %d of %d internal nodes bound above a state beneath them",
				trial, n, cfg.LLCWays, st.MBAGrid, bad, nodes)
		}
		_, bad = prefixViolations(b, n, wrongAxis)
		caughtAxis += bad
		_, bad = prefixViolations(b, n, noSuffixSum)
		caughtSum += bad
	}
	t.Logf("broken bounds: wrong-axis envelope %d violations, missing suffix sum %d", caughtAxis, caughtSum)
	if caughtAxis == 0 || caughtSum == 0 {
		t.Errorf("broken bounds went unnoticed: wrong-axis envelope %d violations, missing suffix sum %d", caughtAxis, caughtSum)
	}
}
