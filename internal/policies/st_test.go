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
// order (way compositions outermost, app 0 first; then MBA levels, app 0
// slowest), the same session solve and the same strict u < best — but
// every state solved. It lives only here; production has no second search.
func exhaustiveST(t *testing.T, cfg machine.Config, models []machine.AppModel, grid []int) Result {
	t.Helper()
	n := len(models)
	m, err := machine.New(cfg, machine.WithSolveCache())
	if err != nil {
		t.Fatal(err)
	}
	solo := make([]float64, n)
	best := Result{Names: make([]string, n), Unfairness: -1}
	for i, model := range models {
		p, err := m.SoloPerf(model)
		if err != nil {
			t.Fatal(err)
		}
		solo[i], best.Names[i] = p.IPS, model.Name
	}
	session := m.NewSolveSession(models)
	counts, mbaIdx := make([]int, n), make([]int, n)
	allocs, perfs := make([]machine.Alloc, n), make([]machine.Perf, n)
	slowdowns, ips := make([]float64, n), make([]float64, n)
	score := func() {
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
	}
	var sweep func(app int)
	sweep = func(app int) {
		if app == n {
			score()
			return
		}
		for j := range grid {
			mbaIdx[app] = j
			sweep(app + 1)
		}
	}
	var search func(app, remaining int)
	search = func(app, remaining int) {
		if app == n-1 {
			counts[app] = remaining
			sweep(0)
			return
		}
		for w := 1; w <= remaining-(n-1-app); w++ {
			counts[app] = w
			search(app+1, remaining-w)
		}
	}
	search(0, cfg.LLCWays)
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

// TestSTBoundedMatchesExhaustive pins that pruning is invisible: on every
// mix ST.Run returns, bit for bit, what solving every state returns — the
// same argmin and the same first-in-enumeration-order winner among equal
// minima — while solving at most half the states of the Fig 12 matrix.
func TestSTBoundedMatchesExhaustive(t *testing.T) {
	// run compares the two arms on one mix and returns how many states the
	// bounded one enumerated and solved.
	run := func(name string, cfg machine.Config, st ST, models []machine.AppModel) (enumerated, solved uint64) {
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
		return e1 - e0, s1 - s0
	}
	cfg := machine.DefaultConfig()

	var enumerated, solved uint64
	for _, kind := range workloads.MixKinds() {
		e, s := run(kind.String()+"/4", cfg, ST{}, mix(t, kind, 4))
		enumerated, solved = enumerated+e, solved+s
		if kind == workloads.IS && s == e {
			t.Errorf("%v: the oracle reaches exactly 0 here and still nothing was skipped", kind)
		}
	}
	if enumerated != 215040 || 2*solved > enumerated {
		t.Errorf("Fig 12 matrix: solved %d of %d enumerated states, want at most half of 215040", solved, enumerated)
	}
	run("H-Both/6", cfg, ST{}, mix(t, workloads.HBoth, 6))

	// Two identical apps: swapping their allocations ties, so the first
	// state in enumeration order must win in both arms.
	twins := mix(t, workloads.HBW, 4)
	twins[2] = twins[0]
	twins[2].Name += "-twin"
	run("twins", cfg, ST{}, twins)

	// A 2-socket machine leaves the session's table path: no bounds,
	// nothing skipped.
	dual := cfg
	dual.Sockets = 2
	split := mix(t, workloads.HBoth, 4)
	split[1].Socket, split[3].Socket = 1, 1
	if e, s := run("2-socket", dual, ST{}, split); s != e || e != 30720 {
		t.Errorf("2-socket: solved %d of %d states, want all 30720", s, e)
	}

	// Random mixes: 3–6 catalog apps with perturbed intensity and locality
	// on 8–11 ways, the default grid or a random one.
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 50; trial++ {
		rcfg := cfg
		rcfg.LLCWays = 8 + rng.Intn(4)
		catalog, err := workloads.Catalog(rcfg)
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
		run(fmt.Sprintf("random %d (%d apps, %d ways, grid %v)", trial, len(models), rcfg.LLCWays, st.MBAGrid), rcfg, st, models)
	}
}
