package machine

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/membw"
)

// randomSessionModel draws a valid model covering the solver's corner
// cases: pure streamers (StreamFrac 1, no hot set), pure cache-resident
// apps (StreamFrac 0), zero-valued MLPs (meaning 1), and zero memory
// intensity.
func randomSessionModel(rng *rand.Rand, cfg Config, i int) AppModel {
	m := AppModel{
		Name:        string(rune('a' + i)),
		Cores:       1 + rng.Intn(2),
		CPIBase:     0.4 + 1.6*rng.Float64(),
		AccPerInstr: 0.001 + 0.05*rng.Float64(),
		Socket:      rng.Intn(cfg.SocketCount()),
	}
	if rng.Intn(8) == 0 {
		m.AccPerInstr = 0
	}
	if rng.Intn(2) == 0 {
		m.MLP = 1 + 7*rng.Float64()
	}
	switch rng.Intn(4) {
	case 0:
		m.StreamFrac = 1
		return m
	case 1:
		m.StreamFrac = 0
	default:
		m.StreamFrac = rng.Float64()
	}
	comps := 1 + rng.Intn(3)
	left := 1 - m.StreamFrac
	for c := 0; c < comps; c++ {
		w := left
		if c < comps-1 {
			w = left * rng.Float64()
		}
		left -= w
		comp := WSComponent{
			Bytes:  cfg.WayBytes * (0.1 + 6*rng.Float64()),
			Weight: w,
		}
		if rng.Intn(2) == 0 {
			comp.MLP = 1 + 5*rng.Float64()
		}
		m.Hot = append(m.Hot, comp)
	}
	return m
}

// randomSessionAllocs draws one state for n apps: exclusive contiguous
// runs at random offsets and widths, exclusive scattered (non-contiguous)
// masks, or independent random ranges that may overlap.
func randomSessionAllocs(rng *rand.Rand, cfg Config, n int) []Alloc {
	allocs := make([]Alloc, n)
	for i := range allocs {
		allocs[i].MBALevel = membw.MinLevel + membw.Granularity*rng.Intn(mbaLevels-1)
	}
	switch rng.Intn(3) {
	case 0: // contiguous, exclusive, with gaps
		slack := cfg.LLCWays - n
		lo := 0
		for i := range allocs {
			gap := rng.Intn(slack/2 + 1)
			slack -= gap
			extra := rng.Intn(slack + 1)
			slack -= extra
			lo += gap
			allocs[i].CBM = ((uint64(1) << uint(1+extra)) - 1) << uint(lo)
			lo += 1 + extra
		}
	case 1: // scattered, exclusive
		ways := rng.Perm(cfg.LLCWays)
		for i := range allocs {
			allocs[i].CBM = uint64(1) << uint(ways[i])
		}
		for _, w := range ways[n:] {
			if owner := rng.Intn(n + 1); owner < n {
				allocs[owner].CBM |= uint64(1) << uint(w)
			}
		}
	default: // independent ranges, usually overlapping
		for i := range allocs {
			lo := rng.Intn(cfg.LLCWays)
			width := 1 + rng.Intn(cfg.LLCWays-lo)
			allocs[i].CBM = ((uint64(1) << uint(width)) - 1) << uint(lo)
		}
	}
	return allocs
}

func perfBits(p Perf) [7]uint64 {
	return [7]uint64{
		math.Float64bits(p.IPS), math.Float64bits(p.MissRatio),
		math.Float64bits(p.AccessRate), math.Float64bits(p.MissRate),
		math.Float64bits(p.CapBytes), math.Float64bits(p.DemandBW),
		math.Float64bits(p.GrantBW),
	}
}

// TestSolveSessionMatchesSolveFor pins the session's contract: a
// table-backed session solve is bit-identical, on every Perf field, to
// SolveFor on a fresh plain machine, which recomputes every query — for
// exclusive states (the kernel fed from tables), overlapping CBMs and
// multi-socket machines (the general path) alike — and rejects exactly
// the inputs SolveFor rejects while staying usable afterwards.
func TestSolveSessionMatchesSolveFor(t *testing.T) {
	t.Run("states", testSessionStates)
	t.Run("errors", testSessionErrors)
}

func testSessionStates(t *testing.T) {
	oddWays := DefaultConfig()
	oddWays.LLCWays = 15
	oddWays.WayBytes = 1.1 * (1 << 20) // inexact in binary: k·WayBytes ≠ the way-by-way sum
	dual := DefaultConfig()
	dual.Sockets = 2
	configs := []Config{DefaultConfig(), oddWays, dual}

	// One long-lived host machine per (config, cached?) serves every
	// trial's session, so its scratch carries stale contents from other
	// app counts; the reference machine is fresh per trial.
	hosts := make([]*Machine, 2*len(configs))
	for i := range hosts {
		var opts []Option
		if i%2 == 0 {
			opts = append(opts, WithSolveCache())
		}
		var err error
		if hosts[i], err = New(configs[i/2], opts...); err != nil {
			t.Fatal(err)
		}
	}

	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 150; trial++ {
		cfg := configs[trial%len(configs)]
		n := 1 + rng.Intn(6)
		models := make([]AppModel, n)
		for i := range models {
			models[i] = randomSessionModel(rng, cfg, i)
			if err := models[i].Validate(); err != nil {
				t.Fatalf("trial %d: generated an invalid model: %v", trial, err)
			}
		}
		host := hosts[2*(trial%len(configs))+trial/len(configs)%2]
		ref, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		session := host.NewSolveSession(models)
		got := make([]Perf, n)
		for state := 0; state < 25; state++ {
			allocs := randomSessionAllocs(rng, cfg, n)
			want, err := ref.SolveFor(models, allocs)
			if err != nil {
				t.Fatalf("trial %d state %d: SolveFor(%+v): %v", trial, state, allocs, err)
			}
			if err := session.SolveInto(got, allocs); err != nil {
				t.Fatalf("trial %d state %d: session(%+v): %v", trial, state, allocs, err)
			}
			for i := range want {
				if perfBits(got[i]) != perfBits(want[i]) {
					t.Fatalf("trial %d state %d app %d at %+v:\nsession  %+v\nSolveFor %+v",
						trial, state, i, allocs, got[i], want[i])
				}
			}
		}
	}
}

func testSessionErrors(t *testing.T) {
	cfg := DefaultConfig()
	models := sharedTestModels(3)
	good := []Alloc{{CBM: 0x00f, MBALevel: 100}, {CBM: 0x070, MBALevel: 50}, {CBM: 0x780, MBALevel: 10}}
	with := func(i int, a Alloc) []Alloc {
		allocs := append([]Alloc(nil), good...)
		allocs[i] = a
		return allocs
	}
	offSocket := sharedTestModels(3)
	offSocket[1].Socket = 1
	noCores := sharedTestModels(3)
	noCores[2].Cores = 0

	cases := []struct {
		name   string
		models []AppModel
		allocs []Alloc
		perfs  int
	}{
		{"zero CBM", models, with(0, Alloc{CBM: 0, MBALevel: 100}), 3},
		{"CBM outside the mask", models, with(1, Alloc{CBM: 1 << 11, MBALevel: 100}), 3},
		{"level 5", models, with(2, Alloc{CBM: 0x780, MBALevel: 5}), 3},
		{"level 110", models, with(0, Alloc{CBM: 0x00f, MBALevel: 110}), 3},
		{"level off the grid", models, with(0, Alloc{CBM: 0x00f, MBALevel: 55}), 3},
		{"socket the machine lacks", offSocket, good, 3},
		{"zero cores", noCores, good, 3},
		{"fewer allocs than models", models, good[:2], 3},
		{"fewer perfs than models", models, good, 2},
	}
	for _, tc := range cases {
		host, err := New(cfg, WithSolveCache())
		if err != nil {
			t.Fatal(err)
		}
		ref, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		session := host.NewSolveSession(tc.models)
		perfs := make([]Perf, tc.perfs)
		if err := session.SolveInto(perfs, tc.allocs); err == nil {
			t.Errorf("%s: session accepted the state", tc.name)
		}
		if err := ref.SolveForInto(perfs, tc.models, tc.allocs); err == nil {
			t.Errorf("%s: SolveForInto accepted the state", tc.name)
		}
		if len(tc.models) != len(good) || &tc.models[0] != &models[0] {
			continue
		}
		// The rejected call must leave the session usable and exact.
		got := make([]Perf, len(models))
		if err := session.SolveInto(got, good); err != nil {
			t.Fatalf("%s: session unusable after the rejected state: %v", tc.name, err)
		}
		want, err := ref.SolveFor(models, good)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if perfBits(got[i]) != perfBits(want[i]) {
				t.Errorf("%s: app %d differs after the rejected state", tc.name, i)
			}
		}
	}
}

// TestIPSBoundsBracketSolve pins the certificate the ST search prunes on:
// in random exclusive states — 1–6 apps, every MBA level, inexact
// WayBytes, congestion off, pure streamers, apps that stop missing —
// the IPS SolveInto computes lies inside IPSBounds, to
// 1e-12 relative (three orders inside the 1e-9 slack ST adds). A
// multi-socket machine, which leaves the table path, offers no bounds.
func TestIPSBoundsBracketSolve(t *testing.T) {
	oddWays := DefaultConfig()
	oddWays.LLCWays = 15
	oddWays.WayBytes = 1.1 * (1 << 20)
	calm := DefaultConfig()
	calm.BW.CongestionK = 0
	configs := []Config{DefaultConfig(), oddWays, calm}

	const tol = 1e-12
	rng := rand.New(rand.NewSource(14))
	var states, zeroMiss, roofed, atLo int
	levels := map[int]bool{}
	for trial := 0; trial < 200; trial++ {
		cfg := configs[trial%len(configs)]
		host, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := 1 + rng.Intn(6)
		models := make([]AppModel, n)
		for i := range models {
			models[i] = randomSessionModel(rng, cfg, i)
			if rng.Intn(6) == 0 { // fits in one way: never misses
				models[i].StreamFrac = 0
				models[i].Hot = []WSComponent{{Bytes: cfg.WayBytes / 2, Weight: 1}}
			}
		}
		// Every fifth trial saturates the bus with unthrottled streamers,
		// so both clauses of the lower bound are met with equality: next
		// to a random app 0 the stretch reaches 1+K, and when every app
		// streams (every tenth) each is granted exactly the fair share.
		saturate := trial%5 == 4 && n > 1
		for i := trial / 5 % 2; saturate && i < n; i++ {
			models[i].StreamFrac, models[i].Hot = 1, nil
			models[i].Cores, models[i].AccPerInstr, models[i].MLP = 2, 0.05, 8
		}
		session := host.NewSolveSession(models)
		perfs := make([]Perf, n)
		for state := 0; state < 20; state++ {
			allocs := randomSessionAllocs(rng, cfg, n)
			if host.anySharedWay(allocs) {
				continue
			}
			for i := range allocs {
				if saturate {
					allocs[i].MBALevel = membw.MaxLevel
				}
			}
			if err := session.SolveInto(perfs, allocs); err != nil {
				t.Fatal(err)
			}
			states++
			for i, p := range perfs {
				lo, hi, ok := session.IPSBounds(i, allocs[i].Ways(), allocs[i].MBALevel)
				if !ok || !(lo > 0) || math.IsInf(hi, 0) {
					t.Fatalf("trial %d app %d at %+v: bounds (%v, %v, %v)", trial, i, allocs[i], lo, hi, ok)
				}
				if p.IPS < lo*(1-tol) || p.IPS > hi*(1+tol) {
					t.Fatalf("trial %d app %d of %d at %+v: IPS %v outside [%v, %v]\nmodel %+v\nallocs %+v",
						trial, i, n, allocs[i], p.IPS, lo, hi, models[i], allocs)
				}
				levels[allocs[i].MBALevel] = true
				if p.MissRatio == 0 {
					zeroMiss++
				}
				if p.GrantBW < p.DemandBW {
					roofed++
				}
				if p.IPS <= lo*(1+tol) && lo < hi*(1-1e-6) {
					atLo++
				}
			}
		}
	}
	// The draw must actually reach the cases the bounds argue about.
	if states < 1000 || zeroMiss == 0 || roofed == 0 || atLo == 0 || len(levels) != mbaLevels-1 {
		t.Errorf("thin coverage: %d states, %d zero-miss, %d bandwidth-bound, %d at the lower bound, %d levels",
			states, zeroMiss, roofed, atLo, len(levels))
	}

	dual := DefaultConfig()
	dual.Sockets = 2
	host, err := New(dual)
	if err != nil {
		t.Fatal(err)
	}
	session := host.NewSolveSession(sharedTestModels(3))
	if _, _, ok := session.IPSBounds(0, 4, 100); ok {
		t.Error("2-socket session offered bounds")
	}
	single, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	session = single.NewSolveSession(sharedTestModels(3))
	for _, bad := range [][3]int{{-1, 4, 100}, {3, 4, 100}, {0, 0, 100}, {0, 12, 100}, {0, 4, 55}, {0, 4, 0}} {
		if _, _, ok := session.IPSBounds(bad[0], bad[1], bad[2]); ok {
			t.Errorf("IPSBounds(%d, %d, %d) offered bounds", bad[0], bad[1], bad[2])
		}
	}
}
