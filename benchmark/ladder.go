package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fairness"
	"repro/internal/machine"
	"repro/internal/matching"
	"repro/internal/membw"
	"repro/internal/parallel"
	"repro/internal/pmc"
	"repro/internal/resctrl"
	"repro/internal/workloads"
)

// The ladder times each layer's public functions in a tight loop, outside
// any workload: median over 20 batches of (calls/20) back-to-back calls
// for nanosecond-scale functions, median of single timed calls for the
// microsecond-scale ones that need their input rebuilt. One rung per
// layer named in the ROADMAP's decomposition, so a change to one layer
// shows on its rung and the end-to-end move can be attributed.

// node is one machine under one manager on the H-Both × 4 mix — the unit
// the single-node rungs share.
type node struct {
	m      *machine.Machine
	mgr    *core.Manager
	models []machine.AppModel
}

func newNode(cfg machine.Config, params core.Params, seed int64, wrap func(*machine.Machine) core.Target, opts ...machine.Option) (*node, error) {
	m, err := machine.New(cfg, opts...)
	if err != nil {
		return nil, err
	}
	models, err := workloads.Mix(cfg, workloads.HBoth, 4)
	if err != nil {
		return nil, err
	}
	for _, model := range models {
		if err := m.AddApp(model); err != nil {
			return nil, err
		}
	}
	ref, err := workloads.StreamMissRates(m)
	if err != nil {
		return nil, err
	}
	var target core.Target = m
	if wrap != nil {
		target = wrap(m)
	}
	rng, src := core.NewSeededRand(seed)
	mgr, err := core.NewManager(target, params, ref, core.Envelope{LoWay: 0, Ways: cfg.LLCWays}, rng)
	if err != nil {
		return nil, err
	}
	mgr.SnapshotSource = src
	return &node{m: m, mgr: mgr, models: models}, nil
}

// relaunch returns the node to its just-launched state the way the fleet
// pool does: machine.Reset, the same apps, Manager.Reuse.
func (n *node) relaunch() error {
	n.m.Reset()
	for _, model := range n.models {
		if err := n.m.AddApp(model); err != nil {
			return err
		}
	}
	return n.mgr.Reuse()
}

// step runs one control period in whatever phase the manager is in, as
// the fleet's period loop does.
func (n *node) step() error {
	var err error
	switch phase := n.mgr.Phase(); phase {
	case core.PhaseExplore:
		_, err = n.mgr.ExploreStep()
	case core.PhaseIdle:
		_, err = n.mgr.IdleStep()
	default:
		err = fmt.Errorf("ladder: node in unexpected phase %v", phase)
	}
	return err
}

// exclusiveAllocs is the 3/3/3/2 private-partition state at MBA 100.
func exclusiveAllocs(cfg machine.Config) ([]machine.Alloc, error) {
	masks, err := machine.AssignContiguousWays([]int{3, 3, 3, 2}, 0, cfg.LLCWays)
	if err != nil {
		return nil, err
	}
	allocs := make([]machine.Alloc, len(masks))
	for i := range allocs {
		allocs[i] = machine.Alloc{CBM: masks[i], MBALevel: membw.MaxLevel}
	}
	return allocs, nil
}

// counterSource is a pmc.Source whose counters advance on every read, so
// the sampler rung measures the sampler and nothing below it.
type counterSource struct{ c machine.Counters }

func (s *counterSource) ReadCounters(string) (machine.Counters, error) {
	s.c.Instructions += 1e9
	s.c.LLCAccesses += 1e7
	s.c.LLCMisses += 1e6
	return s.c, nil
}

// rungs runs one ladder pass. The first error any rung's callee returns
// is kept and reported after the pass; a rung never fails silently.
type rungs struct {
	out  map[string]float64
	div  int
	fail error
}

func (r *rungs) keep(err error) {
	if err != nil && r.fail == nil {
		r.fail = err
	}
}

func (r *rungs) calls(n int) int {
	n /= r.div
	if n < 20 {
		n = 20
	}
	return n
}

// ns records a batched nanosecond-scale rung of about n calls.
func (r *rungs) ns(name string, n int, fn func() error) {
	n = r.calls(n)
	r.out[name] = timeBatched(20, n/20, func() { r.keep(fn()) })
}

// each records a rung of n single timed calls, scaled to the unit.
func (r *rungs) each(name string, n int, perUnit float64, prep, fn func() error) {
	var p func()
	if prep != nil {
		p = func() { r.keep(prep()) }
	}
	r.out[name] = timeEach(r.calls(n), p, func() { r.keep(fn()) }) / perUnit
}

func ladder(out map[string]float64, o options, tr *tracer) error {
	r := &rungs{out: out, div: o.size.ladderDiv}
	cfg := machine.DefaultConfig()
	steps := []func(*rungs, machine.Config) error{
		ladderMembw, ladderSolve, ladderMachine, ladderSampler, ladderCore,
		ladderLeaves, ladderWorkloads, ladderExperiments, ladderControlplane,
	}
	for _, step := range steps {
		if err := step(r, cfg); err != nil {
			return err
		}
	}
	if err := ladderResctrl(r, cfg, o.scratch); err != nil {
		return err
	}
	if err := ladderTracedNode(r, cfg, o.seed, tr); err != nil {
		return err
	}
	return r.fail
}

func ladderMembw(r *rungs, cfg machine.Config) error {
	arb, err := membw.New(cfg.BW)
	if err != nil {
		return err
	}
	demands := []membw.Demand{
		{Bytes: 14e9, MBALevel: 100, Cores: 4}, {Bytes: 9e9, MBALevel: 60, Cores: 4},
		{Bytes: 6e9, MBALevel: 30, Cores: 4}, {Bytes: 1e9, MBALevel: 10, Cores: 4},
	}
	caps := make([]float64, len(demands))
	for i, d := range demands {
		if caps[i], err = arb.Cap(d.MBALevel, d.Cores); err != nil {
			return err
		}
	}
	var res membw.Result
	r.ns("membw.allocate_ns", 200_000, func() error { return arb.AllocateInto(&res, demands) })
	r.ns("membw.allocate_capped_ns", 200_000, func() error { return arb.AllocateCapped(&res, demands, caps) })
	return nil
}

func ladderSolve(r *rungs, cfg machine.Config) error {
	params := core.DefaultParams()
	// Cold, shared ways: every app on the full mask, the long fixed-point
	// schedule. This is the path BenchmarkMachineSolve times.
	cold, err := newNode(cfg, params, 1, nil)
	if err != nil {
		return err
	}
	r.ns("machine.solve_cold_ns", 20_000, func() error { _, err := cold.m.Solve(); return err })
	r.ns("machine.solo_perf_ns", 20_000, func() error { _, err := cold.m.SoloPerf(cold.models[0]); return err })

	// Cold, private partitions: the short schedule (the ST oracle's and
	// the controller's states are of this kind).
	allocs, err := exclusiveAllocs(cfg)
	if err != nil {
		return err
	}
	excl, err := newNode(cfg, params, 1, nil)
	if err != nil {
		return err
	}
	for i, model := range excl.models {
		if err := excl.m.SetAllocation(model.Name, allocs[i]); err != nil {
			return err
		}
	}
	r.ns("machine.solve_exclusive_ns", 40_000, func() error { _, err := excl.m.Solve(); return err })

	// L1 hit: the same state re-solved on a machine with the solve cache.
	l1, err := newNode(cfg, params, 1, nil, machine.WithSolveCache())
	if err != nil {
		return err
	}
	if _, err := l1.m.Solve(); err != nil {
		return err
	}
	r.ns("machine.solve_l1_hit_ns", 200_000, func() error { _, err := l1.m.Solve(); return err })

	// L2 hit: one machine solves a set of states and publishes them to
	// the process-wide cache; a second machine, its L1 emptied by Reset
	// before every pass, looks each of them up.
	const states = 64
	set := make([][]machine.Alloc, 0, states)
	for s := 0; s < states; s++ {
		a := append([]machine.Alloc(nil), allocs...)
		for i := range a {
			a[i].MBALevel = membw.MinLevel + membw.Granularity*((s>>(2*i))&3)
		}
		set = append(set, a)
	}
	perfs := make([]machine.Perf, len(allocs))
	for _, a := range set {
		if err := l1.m.SolveForInto(perfs, l1.models, a); err != nil {
			return err
		}
	}
	l1.m.FlushShared()
	l2, err := machine.New(cfg, machine.WithSolveCache())
	if err != nil {
		return err
	}
	passes := r.calls(20_000) / states
	if passes < 3 {
		passes = 3
	}
	samples := make([]float64, passes)
	before := machine.SharedSolveCacheStats()
	for p := range samples {
		l2.Reset()
		t0 := time.Now()
		for _, a := range set {
			r.keep(l2.SolveForInto(perfs, l1.models, a))
		}
		samples[p] = float64(time.Since(t0).Nanoseconds()) / states
	}
	after := machine.SharedSolveCacheStats()
	if got := after.Hits - before.Hits; got != uint64(passes*states) {
		return fmt.Errorf("ladder: the L2 rung hit the shared cache %d times in %d lookups", got, passes*states)
	}
	r.out["machine.solve_l2_hit_ns"] = median(samples)
	return nil
}

func ladderMachine(r *rungs, cfg machine.Config) error {
	params := core.DefaultParams()
	period := params.Period
	n, err := newNode(cfg, params, 1, nil, machine.WithSolveCache())
	if err != nil {
		return err
	}
	name := n.models[0].Name
	r.ns("machine.step_ns", 100_000, func() error { return n.m.Step(period) })
	r.ns("machine.read_counters_ns", 400_000, func() error { _, err := n.m.ReadCounters(name); return err })
	allocs, err := exclusiveAllocs(cfg)
	if err != nil {
		return err
	}
	flip := 0
	r.ns("machine.set_allocation_ns", 200_000, func() error {
		a := allocs[0]
		a.MBALevel = membw.MaxLevel - membw.Granularity*(flip&1)
		flip++
		return n.m.SetAllocation(name, a)
	})

	noisyCfg := cfg
	noisyCfg.MeasurementNoise, noisyCfg.NoiseSeed = 0.02, 1
	noisy, err := newNode(noisyCfg, params, 1, nil, machine.WithSolveCache())
	if err != nil {
		return err
	}
	r.ns("machine.step_noisy_ns", 100_000, func() error { return noisy.m.Step(period) })

	// The daemon's machine (no solve cache) after 10k admit → evict
	// cycles: retired apps stay in machine.apps and every Step walks them.
	guest := n.models[len(n.models)-1]
	guest.Cores = 1
	d, err := newNode(cfg, params, 1, nil)
	if err != nil {
		return err
	}
	if err := d.m.RemoveApp(guest.Name); err != nil {
		return err
	}
	serial := 0
	addRemove := func() error {
		g := guest
		g.Name = fmt.Sprintf("g%d", serial)
		serial++
		if err := d.m.AddApp(g); err != nil {
			return err
		}
		return d.m.RemoveApp(g.Name)
	}
	r.each("machine.add_remove_app_us", 2_000, 1e3, nil, addRemove)
	for serial < 10_000/r.div {
		if err := addRemove(); err != nil {
			return err
		}
	}
	r.ns("machine.step_ns_retired10k", 2_000, func() error { return d.m.Step(period) })

	// Reset of a machine that ran a node's life (profile plus 50 periods).
	r.each("machine.reset_us", 400, 1e3, func() error {
		if err := n.relaunch(); err != nil {
			return err
		}
		if err := n.mgr.Profile(); err != nil {
			return err
		}
		for i := 0; i < fleetPeriods; i++ {
			if err := n.step(); err != nil {
				return err
			}
		}
		return nil
	}, func() error { n.m.Reset(); return nil })
	return nil
}

func ladderSampler(r *rungs, _ machine.Config) error {
	s := pmc.NewSampler(&counterSource{})
	now := time.Duration(0)
	r.ns("pmc.sample_ns", 400_000, func() error {
		now += time.Second
		_, _, err := s.Sample("app", now)
		return err
	})
	return nil
}

// exploring is DefaultParams with an effectively infinite θ: repeated
// states perturb instead of parking, so every period is an exploration
// period (BenchmarkManagerPeriod's configuration).
func exploring() core.Params {
	p := core.DefaultParams()
	p.Theta = 1 << 30
	return p
}

func ladderCore(r *rungs, cfg machine.Config) error {
	params := core.DefaultParams()
	llc := core.NewLLCClassifier(params, core.Maintain, false)
	mba := core.NewMBAClassifier(params, core.Maintain, false)
	obs := []core.Observation{
		{AccessRate: 4e7, MissRatio: 0.20, TrafficRatio: 0.45, IPS: 3.1e9, PerfDelta: 0.08, LastChange: core.NoChange, Ways: 3, MBALevel: 60},
		{AccessRate: 9e5, MissRatio: 0.004, TrafficRatio: 0.04, IPS: 3.0e9, PerfDelta: -0.01, LastChange: core.NoChange, Ways: 3, MBALevel: 60},
		{AccessRate: 2e7, MissRatio: 0.02, TrafficRatio: 0.18, IPS: 2.9e9, PerfDelta: -0.07, LastChange: core.NoChange, Ways: 2, MBALevel: 50},
	}
	k := 0
	r.ns("core.classify_ns", 400_000, func() error {
		llc.Update(obs[k%len(obs)])
		mba.Update(obs[k%len(obs)])
		k++
		return nil
	})

	for _, apps := range []int{4, 6} {
		ways, levels := make([]int, apps), make([]int, apps)
		infos := make([]core.AppInfo, apps)
		spare := cfg.LLCWays - apps
		for i := range ways {
			ways[i] = 1
			if spare > 0 {
				ways[i]++
				spare--
			}
			levels[i] = 50
			infos[i] = core.AppInfo{LLCState: core.State(i % 3), MBAState: core.State((i + 1) % 3),
				Slowdown: 1 + float64(i)*0.3}
		}
		cur := core.AllocState{Ways: ways, MBA: levels}
		var next core.AllocState
		var sc core.AllocatorScratch
		rng := rand.New(rand.NewSource(1))
		r.ns(fmt.Sprintf("core.match_ns_%dapps", apps), 100_000, func() error {
			return core.GetNextSystemStateInto(&next, cur, infos, cfg.LLCWays, rng, &sc)
		})
	}

	// One exploration period on a machine without the solve cache (every
	// period a cold solve: the daemon's and Fig 16's path), and with it
	// (the path BenchmarkManagerPeriod and the policies' Dynamic.Run take).
	for _, rung := range []struct {
		name string
		opts []machine.Option
	}{
		{"core.explore_period_ns", nil},
		{"core.explore_period_cached_ns", []machine.Option{machine.WithSolveCache()}},
	} {
		n, err := newNode(cfg, exploring(), 1, nil, rung.opts...)
		if err != nil {
			return err
		}
		if err := n.mgr.Profile(); err != nil {
			return err
		}
		r.ns(rung.name, 40_000, func() error { _, err := n.mgr.ExploreStep(); return err })
	}

	// One idle period: a fleet node's steady state (solve cache on, the
	// fleet's frozen journal clock), which the fleet's period p50/p99 are
	// made of once the nodes have settled.
	idle, err := newNode(cfg, params, 1, nil, machine.WithSolveCache())
	if err != nil {
		return err
	}
	idle.mgr.SetClock(func() time.Time { return time.Time{} })
	if err := idle.mgr.Profile(); err != nil {
		return err
	}
	for i := 0; i < 300 && idle.mgr.Phase() == core.PhaseExplore; i++ {
		if _, err := idle.mgr.ExploreStep(); err != nil {
			return err
		}
	}
	if idle.mgr.Phase() != core.PhaseIdle {
		return fmt.Errorf("ladder: the node did not reach the idle phase in 300 periods")
	}
	r.ns("core.idle_period_ns", 100_000, func() error { _, err := idle.mgr.IdleStep(); return err })

	// Profile live, restore a profile from the memo, and Reuse — the
	// three ways a fleet node starts.
	n, err := newNode(cfg, params, 1, nil, machine.WithSolveCache())
	if err != nil {
		return err
	}
	if err := n.mgr.Profile(); err != nil {
		return err
	}
	hot, err := n.m.CaptureHotState()
	if err != nil {
		return err
	}
	memo := n.mgr.ExportProfileMemo()
	if memo == nil {
		return fmt.Errorf("ladder: no profile memo to export")
	}
	r.each("core.profile_us", 400, 1e3, n.relaunch, n.mgr.Profile)
	r.each("core.profile_restore_us", 2_000, 1e3, n.relaunch, func() error {
		if err := n.m.RestoreHotState(hot); err != nil {
			return err
		}
		return n.mgr.RestoreProfileMemo(memo)
	})
	r.each("core.reuse_us", 2_000, 1e3, func() error {
		if err := n.mgr.Profile(); err != nil {
			return err
		}
		n.m.Reset()
		for _, model := range n.models {
			if err := n.m.AddApp(model); err != nil {
				return err
			}
		}
		return nil
	}, n.mgr.Reuse)

	// Snapshot and restore of the daemon's state at a period boundary.
	s, err := newNode(cfg, params, 1, nil)
	if err != nil {
		return err
	}
	if err := s.mgr.Run(20 * params.Period); err != nil {
		return err
	}
	var snap *core.Snapshot
	r.each("core.snapshot_us", 400, 1e3, nil, func() error {
		var err error
		snap, err = s.mgr.Snapshot()
		return err
	})
	r.each("core.restore_us", 400, 1e3, nil, func() error {
		_, _, err := core.RestoreSnapshot(snap)
		return err
	})
	return nil
}

func ladderLeaves(r *rungs, _ machine.Config) error {
	rng := rand.New(rand.NewSource(1))
	in := matching.Instance{Capacity: []int{2, 2, 2}, HospitalPrefs: make([][]int, 3), ResidentPrefs: make([][]int, 6)}
	for h := range in.HospitalPrefs {
		in.HospitalPrefs[h] = rng.Perm(6)
	}
	for res := range in.ResidentPrefs {
		in.ResidentPrefs[res] = rng.Perm(3)
	}
	r.ns("matching.solve_ns", 100_000, func() error { _, err := matching.Solve(in); return err })

	slow := []float64{1.12, 1.48, 1.07, 2.31, 1.25, 1.9}
	r.ns("fairness.unfairness_ns", 400_000, func() error { _, err := fairness.Unfairness(slow); return err })
	var tk fairness.Tracker
	for _, x := range slow {
		if err := tk.Add(x); err != nil {
			return err
		}
	}
	k := 0
	r.ns("fairness.tracker_update_ns", 400_000, func() error {
		i := k % len(slow)
		next := 1 + float64((k*7)%13)/10
		k++
		if err := tk.Update(slow[i], next); err != nil {
			return err
		}
		slow[i] = next
		_, err := tk.Unfairness()
		return err
	})
	return nil
}

func ladderWorkloads(r *rungs, cfg machine.Config) error {
	m, err := machine.New(cfg)
	if err != nil {
		return err
	}
	r.each("workloads.stream_ref_us", 400, 1e3, nil, func() error { _, err := workloads.StreamMissRates(m); return err })
	mc, err := workloads.NewMixCache(cfg)
	if err != nil {
		return err
	}
	r.ns("workloads.mixcache_hit_ns", 400_000, func() error { _, err := mc.Mix(workloads.HBoth, 4); return err })
	return nil
}

// ladderExperiments keeps four more of the paper's figures visible; no
// end-to-end metric depends on them.
func ladderExperiments(r *rungs, cfg machine.Config) error {
	benches, err := experiments.FigureBenches(1)
	if err != nil {
		return err
	}
	r.each("experiments.fig1_ms", 40, 1e6, nil, func() error {
		for _, b := range benches {
			if _, _, err := experiments.PerfHeatmap(cfg, b); err != nil {
				return err
			}
		}
		return nil
	})
	r.each("experiments.fig4_ms", 40, 1e6, nil, func() error { _, _, err := experiments.FairnessHeatmap(cfg, 4); return err })
	r.each("experiments.fig15_ms", 40, 1e6, nil, func() error {
		_, err := experiments.CaseStudy(cfg, experiments.DefaultLoadTrace(), 1)
		return err
	})
	r.each("experiments.fig16_ms", 40, 1e6, nil, func() error { _, _, err := experiments.Figure16(cfg, 1); return err })

	// Dispatch cost of the worker pool at the parallel worker count: an
	// empty cell, so what is left is ForEach itself.
	prev := parallel.Workers()
	parallel.SetWorkers(parWorkers())
	const cells = 1024
	r.out["parallel.foreach_overhead_ns"] = timeEach(r.calls(400), nil, func() {
		r.keep(parallel.ForEach(cells, func(int) error { return nil }))
	}) / cells
	parallel.SetWorkers(prev)
	return nil
}

// ladderControlplane times the plane's in-process path: enqueue a
// reweight and drain it on the one goroutine, no HTTP, no controller.
func ladderControlplane(r *rungs, _ machine.Config) error {
	d, err := newDaemon(1, nil)
	if err != nil {
		return err
	}
	if err := d.mgr.Profile(); err != nil {
		return err
	}
	k := 0
	r.each("controlplane.enqueue_drain_us", 4_000, 1e3, nil, func() error {
		k++
		if err := d.plane.EnqueueReweight(d.boot[0], 1+float64(k%2)); err != nil {
			return err
		}
		d.plane.Drain()
		return nil
	})
	ok, rejected := d.plane.AdmissionStats()
	if rejected != 0 || ok == 0 {
		return fmt.Errorf("ladder: enqueue/drain rung applied %d and rejected %d operations", ok, rejected)
	}
	return nil
}

// ladderResctrl records the mirror path's baseline. No workload mirrors
// into resctrl today; a later one has these to compare against.
func ladderResctrl(r *rungs, cfg machine.Config, scratch string) error {
	s := resctrl.Schemata{L3: map[int]uint64{0: 0x7f0}, MB: map[int]int{0: 60}}
	text := s.Format()
	r.ns("resctrl.parse_ns", 100_000, func() error { _, err := resctrl.ParseSchemata(text); return err })
	r.ns("resctrl.format_ns", 100_000, func() error { _ = s.Format(); return nil })

	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratch, "resctrl-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rc, err := resctrl.NewSimTree(dir, cfg)
	if err != nil {
		return err
	}
	if err := rc.CreateGroup("app"); err != nil {
		return err
	}
	k := 0
	r.each("resctrl.write_schemata_us", 1_000, 1e3, nil, func() error {
		s.MB[0] = membw.MinLevel + membw.Granularity*(k%10)
		k++
		return rc.WriteSchemata("app", s)
	})
	return nil
}

// ladderTracedNode runs one node under the tracing target: profile, then
// exploration to idle, then idle periods, a span per period and a child
// span per target call. A period's self time is its span minus its
// children, so children + self equal the span exactly.
func ladderTracedNode(r *rungs, cfg machine.Config, seed int64, tr *tracer) error {
	var tt *timedTarget
	n, err := newNode(cfg, core.DefaultParams(), seed, func(m *machine.Machine) core.Target {
		tt = newTimedTarget(m, tr)
		return tt
	}, machine.WithSolveCache())
	if err != nil {
		return err
	}
	root := tr.begin("core.Profile", -1)
	err = n.mgr.Profile()
	tr.end(root)
	if err != nil {
		return err
	}
	var self []float64
	for i := 0; i < 400/r.div+20; i++ {
		phase := n.mgr.Phase()
		tt.openPeriod()
		err := n.step()
		id := tt.closePeriod(phase.String())
		if err != nil {
			return err
		}
		if id < 0 {
			return fmt.Errorf("ladder: the tracer filled up before the traced node finished")
		}
		self = append(self, float64(tr.spans[id].dur()-tr.childTime(id)))
	}
	r.out["core.self_ns_per_period"] = median(self)
	return nil
}

// printLadder prints the rungs side by side and says which rung the
// repo's older go-test benchmarks sit on — the question the ROADMAP notes
// nobody could answer (MachineSolve > ManagerPeriod > fleet p99).
func printLadder(w io.Writer, m map[string]float64) {
	fmt.Fprintln(w, "# ladder (host ns per call, outermost last):")
	rows := []struct{ name, note string }{
		{"membw.allocate_capped_ns", "arbiter round inside every cold solve"},
		{"machine.solve_exclusive_ns", "cold solve, private partitions (ST oracle states, controller states)"},
		{"machine.solve_cold_ns", "cold solve, all apps on the full mask, long schedule = BenchmarkMachineSolve"},
		{"machine.solve_l2_hit_ns", "L1 miss served by the process-wide L2"},
		{"machine.solve_l1_hit_ns", "L1 hit = BenchmarkMachineSolveCached"},
		{"machine.step_ns", "Step with unchanged allocations: counters advance, no re-solve"},
		{"pmc.sample_ns", "one app's windowed rates"},
		{"core.classify_ns", "both FSMs, one app"},
		{"core.match_ns_4apps", "Algorithm 2, 4 apps"},
		{"core.explore_period_ns", "explore period, no solve cache (copartd, Fig 16)"},
		{"core.explore_period_cached_ns", "explore period, solve cache on, θ=∞ so every period is a new state = BenchmarkManagerPeriod"},
		{"core.idle_period_ns", "idle period, cache on, journal clock frozen"},
		{"fleet.period_ns_p50", "fleet period p50: settled nodes, so idle periods"},
		{"fleet.period_ns_p99", "fleet period p99: an exploring node's period, most of them score-memo or L1 hits"},
	}
	for _, row := range rows {
		fmt.Fprintf(w, "#   %-32s %12.1f  %s\n", row.name, m[row.name], row.note)
	}
	sum := m["policies.eq_ms"] + m["policies.st_ms"] + m["policies.catonly_ms"] + m["policies.mbaonly_ms"] + m["policies.copart_ms"]
	fmt.Fprintf(w, "# fig12 cells: the five policies sum to %.1f ms per iteration, ST %.0f%% of it\n", sum, 100*m["policies.st_share"])
}
