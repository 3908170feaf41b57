// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index), plus
// microbenchmarks of the core mechanisms. Run with:
//
//	go test -bench=. -benchmem
//
// Each BenchmarkTableN / BenchmarkFigN target executes the corresponding
// harness end to end; the cmd/ tools print the same rows.
package repro_test

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/machine"
	"repro/internal/matching"
	"repro/internal/parallel"
	"repro/internal/pmc"
	"repro/internal/policies"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// sequential pins the experiment engine to one worker for the benchmark,
// restoring the all-cores default afterwards. The Seq variants give the
// single-thread baseline the parallel figures are compared against.
func sequential(b *testing.B) {
	parallel.SetWorkers(1)
	b.Cleanup(func() { parallel.SetWorkers(0) })
}

func cfg() machine.Config { return machine.DefaultConfig() }

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Table2(cfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func benchPerfFigure(b *testing.B, fig int) {
	names, err := experiments.FigureBenches(fig)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, n := range names {
			if _, _, err := experiments.PerfHeatmap(cfg(), n); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFig1(b *testing.B) { benchPerfFigure(b, 1) }
func BenchmarkFig2(b *testing.B) { benchPerfFigure(b, 2) }
func BenchmarkFig3(b *testing.B) { benchPerfFigure(b, 3) }

func BenchmarkFig1Seq(b *testing.B) {
	sequential(b)
	benchPerfFigure(b, 1)
}

func benchFairFigure(b *testing.B, fig int) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.FairnessHeatmap(cfg(), fig); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4(b *testing.B) { benchFairFigure(b, 4) }
func BenchmarkFig5(b *testing.B) { benchFairFigure(b, 5) }
func BenchmarkFig6(b *testing.B) { benchFairFigure(b, 6) }

func BenchmarkFig11a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Figure11(cfg(), experiments.SensPerf, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Figure11(cfg(), experiments.SensMissRatio, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Figure11(cfg(), experiments.SensTraffic, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// reportShared attaches the process-wide solve-cache deltas of the
// benchmark loop as custom metrics. The names keep their "L2" prefix
// from the two-tier days.
func reportShared(b *testing.B, before machine.SharedCacheStats) {
	after := machine.SharedSolveCacheStats()
	n := float64(b.N)
	b.ReportMetric(float64(after.Hits-before.Hits)/n, "L2hits/op")
	b.ReportMetric(float64(after.Misses-before.Misses)/n, "L2misses/op")
	b.ReportMetric(float64(after.Evictions-before.Evictions)/n, "L2evict/op")
}

func BenchmarkFig12(b *testing.B) {
	before := machine.SharedSolveCacheStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Figure12(cfg(), 1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportShared(b, before)
}

func BenchmarkFig12Seq(b *testing.B) {
	sequential(b)
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Figure12(cfg(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Figure13(cfg(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Figure14(cfg(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CaseStudy(cfg(), experiments.DefaultLoadTrace(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Figure16(cfg(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig17(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Figure17(cfg(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Microbenchmarks of the core mechanisms ---

// benchAllocatorState builds an n-application allocation problem with a
// mixture of supplier and demander states.
func benchAllocatorState(n int) (core.AllocState, []core.AppInfo) {
	ways := make([]int, n)
	mba := make([]int, n)
	infos := make([]core.AppInfo, n)
	remaining := 11 - n
	for i := range ways {
		ways[i] = 1
		if remaining > 0 {
			ways[i]++
			remaining--
		}
		mba[i] = 50
		infos[i] = core.AppInfo{
			LLCState: core.State(i % 3),
			MBAState: core.State((i + 1) % 3),
			Slowdown: 1 + float64(i)*0.3,
		}
	}
	return core.AllocState{Ways: ways, MBA: mba}, infos
}

// BenchmarkGetNextSystemState measures the paper's Figure 16 primitive:
// one instability-chaining allocation step (paper: 10.6–14.4 µs for 3–6
// applications, on their hardware, including bookkeeping).
func benchGetNext(b *testing.B, n int) {
	st, infos := benchAllocatorState(n)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GetNextSystemState(st, infos, 11, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetNextSystemState3(b *testing.B) { benchGetNext(b, 3) }
func BenchmarkGetNextSystemState4(b *testing.B) { benchGetNext(b, 4) }
func BenchmarkGetNextSystemState5(b *testing.B) { benchGetNext(b, 5) }
func BenchmarkGetNextSystemState6(b *testing.B) { benchGetNext(b, 6) }

// BenchmarkManagerPeriod measures one steady-state exploration control
// period — sample, step, classify, match, actuate — the per-second work
// of a deployed controller. An effectively infinite θ keeps the manager
// exploring (repeated states perturb instead of parking), so every
// iteration exercises the same path; the allocation budget this loop
// runs under is pinned by TestManagerPeriodAllocationGuard.
func BenchmarkManagerPeriod(b *testing.B) {
	c := cfg()
	m, err := machine.New(c, machine.WithSolveCache())
	if err != nil {
		b.Fatal(err)
	}
	models, err := workloads.Mix(c, workloads.HBoth, 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, model := range models {
		if err := m.AddApp(model); err != nil {
			b.Fatal(err)
		}
	}
	ref, err := workloads.StreamMissRates(m)
	if err != nil {
		b.Fatal(err)
	}
	params := core.DefaultParams()
	params.Theta = 1 << 30
	mgr, err := core.NewManager(m, params, ref, core.Envelope{LoWay: 0, Ways: c.LLCWays},
		rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	if err := mgr.Profile(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mgr.ExploreStep(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkManagerObservedPeriod measures one idle control period with a
// retaining observer attached, as copartd runs: the report reuses the
// slices the last one carried while slowdowns and state hold (DESIGN.md
// §8.1), so the observed period allocates nothing, like the unobserved
// one. The observer keeps the last 64 reports in a ring.
func BenchmarkManagerObservedPeriod(b *testing.B) {
	c := cfg()
	m, err := machine.New(c)
	if err != nil {
		b.Fatal(err)
	}
	models, err := workloads.Mix(c, workloads.HBoth, 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, model := range models {
		if err := m.AddApp(model); err != nil {
			b.Fatal(err)
		}
	}
	ref, err := workloads.StreamMissRates(m)
	if err != nil {
		b.Fatal(err)
	}
	mgr, err := core.NewManager(m, core.DefaultParams(), ref, core.Envelope{LoWay: 0, Ways: c.LLCWays},
		rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	var ring [64]core.PeriodReport
	seen := 0
	mgr.OnPeriod = func(r core.PeriodReport) { ring[seen%len(ring)] = r; seen++ }
	if err := mgr.Profile(); err != nil {
		b.Fatal(err)
	}
	for done := false; !done; {
		if done, err = mgr.ExploreStep(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mgr.IdleStep(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if mgr.Phase() != core.PhaseIdle {
		b.Fatalf("the manager left the idle phase: %v", mgr.Phase())
	}
}

// BenchmarkMachineStepRetired measures one Step of a daemon's machine
// (no solve cache, three H-Both apps) after 10 000 admit → evict cycles
// of a one-core guest. Removal deletes the app's slot, so the Step walks
// the three live apps only and costs what a fresh machine's does.
func BenchmarkMachineStepRetired(b *testing.B) {
	c := cfg()
	m, err := machine.New(c)
	if err != nil {
		b.Fatal(err)
	}
	models, err := workloads.Mix(c, workloads.HBoth, 3)
	if err != nil {
		b.Fatal(err)
	}
	for _, model := range models {
		if err := m.AddApp(model); err != nil {
			b.Fatal(err)
		}
	}
	ep, err := workloads.ByName(c, "EP")
	if err != nil {
		b.Fatal(err)
	}
	guest := ep.Model
	guest.Cores = 1
	for i := 0; i < 10_000; i++ {
		guest.Name = "g" + strconv.Itoa(i)
		if err := m.AddApp(guest); err != nil {
			b.Fatal(err)
		}
		if err := m.RemoveApp(guest.Name); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Step(time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// sweepSource is a counter source that costs next to nothing, so
// BenchmarkSamplerSweep times the sampler: every read advances one
// shared, ever-growing counter set.
type sweepSource struct{ c machine.Counters }

func (s *sweepSource) ReadCounters(string) (machine.Counters, error) {
	s.c.Instructions += 4e6
	s.c.LLCAccesses += 4e4
	s.c.LLCMisses += 4e3
	return s.c, nil
}

// BenchmarkSamplerSweep measures the sampling step of one control
// period on its own: a measuring pmc.Sampler.SampleAll over the tracked
// set at the paper's consolidation sizes, one control period per sweep.
func BenchmarkSamplerSweep(b *testing.B) {
	for _, n := range []int{4, 6} {
		b.Run(fmt.Sprintf("%dapps", n), func(b *testing.B) {
			apps := make([]string, n)
			for i := range apps {
				apps[i] = fmt.Sprintf("app%d", i)
			}
			s := pmc.NewSampler(&sweepSource{})
			if _, err := s.SampleAll(apps, 0, nil); err != nil {
				b.Fatal(err)
			}
			out := make([]pmc.Rates, n)
			period := core.DefaultParams().Period
			b.ReportAllocs()
			b.ResetTimer()
			for i := 1; i <= b.N; i++ {
				if k, err := s.SampleAll(apps, time.Duration(i)*period, out); k >= 0 || err != nil {
					b.Fatalf("sweep %d stopped at app %d: %v", i, k, err)
				}
			}
		})
	}
}

// BenchmarkFleet65536 is the 100k-scale proof: 65536 independent nodes,
// each profiling and then running 10 control periods, blocks dispatched
// across the pool, telemetry striped per block, zero allocations per
// run at steady state. CI runs it at a tiny node count
// (FLEET_SMOKE_NODES) as a smoke test; run it without the variable for
// the full-size figure.
func BenchmarkFleet65536(b *testing.B) {
	nodes := 65536
	if s := os.Getenv("FLEET_SMOKE_NODES"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			b.Fatalf("FLEET_SMOKE_NODES=%q", s)
		}
		nodes = n
	}
	benchFleetConfig(b, fleet.Config{Nodes: nodes, Periods: 10, Seed: 1})
}

// BenchmarkFleetNoisy1024 is the benchmark's fleet_noisy workload as a
// go test benchmark: 1024 nodes × 50 periods with 2 % PMC jitter, which
// keeps every node off the profile memo. Nothing in
// cmd/ runs a noisy fleet, so this is also how that path is profiled
// (go test -bench FleetNoisy1024 -cpuprofile). Steady state is
// allocation-free: relaunching a node reseeds the machine's jitter
// stream in one store.
func BenchmarkFleetNoisy1024(b *testing.B) {
	c := fleet.Config{Nodes: 1024, Periods: 50, Seed: 1, Machine: machine.DefaultConfig()}
	c.Machine.MeasurementNoise, c.Machine.NoiseSeed = 0.02, 1
	benchFleetConfig(b, c)
}

// BenchmarkFleetSteady1024 is the benchmark's fleet_steady workload as a
// go test benchmark (1024 noise-free nodes × 50 periods, seed 1), so the
// shape its iter_ms_p10 is claimed on can be profiled the same way.
func BenchmarkFleetSteady1024(b *testing.B) {
	benchFleetConfig(b, fleet.Config{Nodes: 1024, Periods: 50, Seed: 1})
}

// BenchmarkFleetChurn2048 is the benchmark's fleet_churn workload (2048
// arrivals on a Poisson schedule, exponential lifetimes of mean 10
// periods, seed 1) as a go test benchmark, for profiling. Every arrival
// reinitializes a departed node's pooled runtime across differing mix
// shapes; its steady state is allocation-free, pinned by
// TestChurnSteadyStateAllocs.
func BenchmarkFleetChurn2048(b *testing.B) {
	cfg := fleet.ChurnConfig{Arrivals: 2048, Rate: 4, MeanLife: 10, MaxLife: 40, Seed: 1}
	var res fleet.Result
	if err := fleet.RunChurnInto(cfg, &res); err != nil { // warm pool + memos
		b.Fatal(err)
	}
	before := machine.SharedSolveCacheStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fleet.RunChurnInto(cfg, &res); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportShared(b, before)
	b.ReportMetric(float64(res.P99.Nanoseconds()), "p99ns")
	b.ReportMetric(float64(res.Pool.Hits+res.Pool.Carries), "poolhits/run")
}

// benchFleetConfig runs the fleet driver on cfg. One untimed warm-up run
// populates the node-runtime pool, the profile memo, and the reused
// Result so the timed iterations measure the steady state a long-lived
// fleet driver lives in — with RunInto, that steady state is
// allocation-free. The last run's p99 per-period latency is attached as
// a custom metric.
func benchFleetConfig(b *testing.B, cfg fleet.Config) {
	var res fleet.Result
	if err := fleet.RunInto(cfg, &res); err != nil {
		b.Fatal(err)
	}
	before := machine.SharedSolveCacheStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fleet.RunInto(cfg, &res); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportShared(b, before)
	b.ReportMetric(float64(res.P99.Nanoseconds()), "p99ns")
}

// BenchmarkMachineSolve measures one steady-state solve of a consolidated
// 4-application system — the inner loop of every experiment.
func BenchmarkMachineSolve(b *testing.B) {
	m, err := machine.New(cfg())
	if err != nil {
		b.Fatal(err)
	}
	models, err := workloads.Mix(cfg(), workloads.HBoth, 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, model := range models {
		if err := m.AddApp(model); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMachineSolveCached measures the same solve with memoization
// enabled and the allocation unchanged — the Dynamic controller's case of
// revisiting an already-solved state.
func BenchmarkMachineSolveCached(b *testing.B) {
	m, err := machine.New(cfg(), machine.WithSolveCache())
	if err != nil {
		b.Fatal(err)
	}
	models, err := workloads.Mix(cfg(), workloads.HBoth, 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, model := range models {
		if err := m.AddApp(model); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := m.Solve(); err != nil { // warm the cache
		b.Fatal(err)
	}
	m.FlushShared() // publish, so the loop times hits from its first iteration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMachineSolveSession measures the ST oracle's per-state cost: a
// SolveSession sweeping distinct exclusive states (all 120 four-part way
// compositions, MBA levels varying with the state), every solve cold,
// table-fed and uncached. 0 allocs/op, pinned by
// TestCachedSolveAllocationGuard.
func BenchmarkMachineSolveSession(b *testing.B) {
	c := cfg()
	m, err := machine.New(c, machine.WithSolveCache())
	if err != nil {
		b.Fatal(err)
	}
	models, err := workloads.Mix(c, workloads.HBoth, 4)
	if err != nil {
		b.Fatal(err)
	}
	var states [][]machine.Alloc
	for w0 := 1; w0 <= c.LLCWays-3; w0++ {
		for w1 := 1; w0+w1 <= c.LLCWays-2; w1++ {
			for w2 := 1; w0+w1+w2 <= c.LLCWays-1; w2++ {
				counts := []int{w0, w1, w2, c.LLCWays - w0 - w1 - w2}
				masks, err := machine.AssignContiguousWays(counts, 0, c.LLCWays)
				if err != nil {
					b.Fatal(err)
				}
				allocs := make([]machine.Alloc, len(models))
				for i := range allocs {
					allocs[i] = machine.Alloc{CBM: masks[i], MBALevel: 10 * (1 + (len(states)+3*i)%10)}
				}
				states = append(states, allocs)
			}
		}
	}
	session := m.NewSolveSession(models)
	perfs := make([]machine.Perf, len(models))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := session.SolveInto(perfs, states[i%len(states)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSTOracle times one ST run per mix size, on a mix the box bound
// prunes hard (H-Both) and two it barely can (M-BW, IS), and reports the
// states the run solved: the only per-layer count for more than the four
// apps of the benchmark's policies.st_ms rung.
func BenchmarkSTOracle(b *testing.B) {
	c := cfg()
	for _, n := range []int{4, 6, 8} {
		for _, kind := range []workloads.MixKind{workloads.HBoth, workloads.MBW, workloads.IS} {
			models, err := workloads.Mix(c, kind, n)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%dapps/%v", n, kind), func(b *testing.B) {
				b.ReportAllocs()
				_, before := policies.STStates()
				for i := 0; i < b.N; i++ {
					if _, err := (policies.ST{}).Run(c, models); err != nil {
						b.Fatal(err)
					}
				}
				_, after := policies.STStates()
				b.ReportMetric(float64(after-before)/float64(b.N), "solved/op")
			})
		}
	}
}

// BenchmarkMachineSolveExclusive measures the solver's fast path: every
// application on a private contiguous LLC partition, which converges in
// the short fixed-point schedule and is the allocation-guard target.
func BenchmarkMachineSolveExclusive(b *testing.B) {
	c := cfg()
	m, err := machine.New(c)
	if err != nil {
		b.Fatal(err)
	}
	models, err := workloads.Mix(c, workloads.HBoth, 4)
	if err != nil {
		b.Fatal(err)
	}
	masks, err := machine.AssignContiguousWays([]int{3, 3, 3, 2}, 0, c.LLCWays)
	if err != nil {
		b.Fatal(err)
	}
	for i, model := range models {
		if err := m.AddApp(model); err != nil {
			b.Fatal(err)
		}
		if err := m.SetAllocation(model.Name, machine.Alloc{CBM: masks[i], MBALevel: 100}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheSimAccess measures the trace-driven simulator's access
// path.
func BenchmarkCacheSimAccess(b *testing.B) {
	c, err := cachesim.New(cachesim.Config{SizeBytes: 1 << 20, Ways: 8, LineBytes: 64}, nil)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := trace.NewZipf(0, 4<<20, 64, 1.3, 1)
	if err != nil {
		b.Fatal(err)
	}
	mask := c.FullMask()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Access(0, gen.Next(), mask); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatchingSolve measures the generic HR solver at a size typical
// of the controller's rounds.
func BenchmarkMatchingSolve(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := matching.Instance{
		Capacity:      []int{2, 2, 2},
		HospitalPrefs: make([][]int, 3),
		ResidentPrefs: make([][]int, 6),
	}
	for h := range in.HospitalPrefs {
		in.HospitalPrefs[h] = rng.Perm(6)
	}
	for r := range in.ResidentPrefs {
		in.ResidentPrefs[r] = rng.Perm(3)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := matching.Solve(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMRCAblation compares deriving a miss-ratio curve by
// trace-driven simulation against evaluating the analytic working-set
// model — the design choice DESIGN.md calls out (analytic models keep the
// solver fast; the trace-driven curve grounds them).
func BenchmarkMRCAblation(b *testing.B) {
	simCfg := cachesim.Config{SizeBytes: 2 << 20, Ways: 8, LineBytes: 64}
	b.Run("trace-driven", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gen, err := trace.NewLoop(0, 1<<20, 64)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := cachesim.ProfileMRC(simCfg, gen, nil, 4096, 8192); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("analytic", func(b *testing.B) {
		model := machine.AppModel{
			Name: "a", Cores: 1, CPIBase: 1, AccPerInstr: 0.01,
			Hot: []machine.WSComponent{{Bytes: 1 << 20, Weight: 1}},
		}
		for i := 0; i < b.N; i++ {
			for w := 1; w <= 8; w++ {
				_ = model.MissRatio(float64(w) * (256 << 10))
			}
		}
	})
}
