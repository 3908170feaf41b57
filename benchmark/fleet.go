package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/fleet"
	"repro/internal/machine"
	"repro/internal/membw"
	"repro/internal/parallel"
)

type fleetKind int

const (
	fleetSteady fleetKind = iota
	fleetNoisy
	fleetChurn
)

const fleetPeriods = 50

// fleetWorkload iterates one fleet run on a reused Result. The three
// kinds share the engine and differ in an input property: steady nodes
// are noise-free and long-lived (every memo tier engaged), noisy nodes
// carry PMC jitter (which refuses profile-memo restore and the score
// memo), churn nodes are short-lived (reset/reuse/restore dominate).
type fleetWorkload struct {
	wname string
	kind  fleetKind
	nodes int
	seed  int64
	tr    *tracer

	cfg  fleet.Config
	ccfg fleet.ChurnConfig
	res  fleet.Result

	refDigest     digest
	expectPeriods int

	// Per-iteration samples read from fleet.Result's public counters.
	periodP50, periodP99, blockSpread, stripeMergeUs []float64
}

func newFleetWorkload(name string, kind fleetKind, nodes int, seed int64, tr *tracer) *fleetWorkload {
	w := &fleetWorkload{wname: name, kind: kind, nodes: nodes, seed: seed, tr: tr}
	switch kind {
	case fleetChurn:
		w.ccfg = fleet.ChurnConfig{Arrivals: nodes, Rate: 4, MeanLife: 10, MaxLife: 40, Seed: seed}
	default:
		w.cfg = fleet.Config{Nodes: nodes, Periods: fleetPeriods, Seed: seed}
		if kind == fleetNoisy {
			w.cfg.Machine = machine.DefaultConfig()
			w.cfg.Machine.MeasurementNoise = 0.02
			w.cfg.Machine.NoiseSeed = seed
		}
	}
	return w
}

func (w *fleetWorkload) name() string { return w.wname }
func (w *fleetWorkload) close()       {}

func (w *fleetWorkload) run() error {
	if w.kind == fleetChurn {
		return fleet.RunChurnInto(w.ccfg, &w.res)
	}
	return fleet.RunInto(w.cfg, &w.res)
}

// fleetDigest covers every deterministic field of the run: the per-node
// outcomes and the structural block figures. Wall-clock figures and the
// timing-dependent L2 and pool splits stay out.
func fleetDigest(res *fleet.Result) digest {
	d := newDigest()
	for i := range res.Nodes {
		n := &res.Nodes[i]
		d.str(n.Mix)
		d.str(n.Phase)
		d.word(uint64(n.Apps))
		d.word(uint64(n.Periods))
		d.word(uint64(n.Reprofiles))
		d.word(uint64(n.FailStreak))
		d.word(uint64(n.Lifetime))
		d.float(n.Unfairness)
		d.float(n.Arrival)
		for _, v := range n.Ways {
			d.word(uint64(v))
		}
		for _, v := range n.MBA {
			d.word(uint64(v))
		}
		d.word(n.CacheHits)
		d.word(n.CacheMisses)
		d.word(n.CacheEvictions)
		d.word(n.ScoreHits)
		d.word(n.ScoreMisses)
	}
	d.word(uint64(res.TotalPeriods))
	d.word(uint64(res.Churn.PeakLive))
	return d
}

// checkFleet applies the paper's allocation invariants to every node.
// They hold for any seed, so no golden value is involved.
func checkFleet(t *tally, name string, res *fleet.Result, wantNodes, wantPeriods int) {
	llcWays := machine.DefaultConfig().LLCWays // every fleet here runs the default machine
	t.check(len(res.Nodes) == wantNodes, "%s: %d nodes, want %d", name, len(res.Nodes), wantNodes)
	t.check(res.TotalPeriods == wantPeriods, "%s: %d periods, want %d", name, res.TotalPeriods, wantPeriods)
	t.check(res.Health.Degraded == 0, "%s: %d degraded nodes", name, res.Health.Degraded)
	bad := 0
	for i := range res.Nodes {
		n := &res.Nodes[i]
		ways, ok := 0, len(n.Ways) == n.Apps && len(n.MBA) == n.Apps
		for _, v := range n.Ways {
			ways += v
			ok = ok && v >= 1
		}
		for _, v := range n.MBA {
			ok = ok && membw.ValidateLevel(v) == nil
		}
		ok = ok && ways == llcWays
		ok = ok && !math.IsNaN(n.Unfairness) && !math.IsInf(n.Unfairness, 0) && n.Unfairness >= 0
		if !ok {
			bad++
		}
	}
	t.check(bad == 0, "%s: %d nodes violate an allocation invariant (Σways=%d, ≥1 way/app, MBA grid, finite unfairness)",
		name, bad, llcWays)
}

// setUp is the untimed warm-up run: it fills the node-runtime pool, the
// profile memo, the mix cache and the shared L2, and sizes the Result.
func (w *fleetWorkload) setUp(t *tally) error {
	parallel.SetWorkers(1)
	if err := w.run(); err != nil {
		return err
	}
	w.expectPeriods = w.res.TotalPeriods
	if w.kind != fleetChurn {
		w.expectPeriods = w.nodes * fleetPeriods
	}
	checkFleet(t, w.wname, &w.res, w.nodes, w.expectPeriods)
	w.refDigest = fleetDigest(&w.res)
	return nil
}

func (w *fleetWorkload) iterate(t *tally, traced bool) (time.Duration, error) {
	var root int
	if traced {
		root = w.tr.begin("fleet.Run", -1)
	}
	t0 := time.Now()
	err := w.run()
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	if traced {
		// The engine exposes no seam below a run, so the block level of
		// the trace is Result.Blocks: one record per dispatch block after
		// the run's span, carrying its sampled percentiles in the tag (its
		// own start and end say nothing).
		w.tr.end(root)
		for _, b := range w.res.Blocks {
			id := w.tr.begin("fleet.block", root)
			w.tr.end(id)
			w.tr.tag(id, fmt.Sprintf("nodes=%d-%d periods=%d samples=%d p50=%dns p99=%dns",
				b.Lo, b.Hi, b.Periods, b.Samples, b.P50.Nanoseconds(), b.P99.Nanoseconds()))
		}
	}
	t.check(fleetDigest(&w.res) == w.refDigest, "%s: iteration digest differs from the first iteration's", w.wname)
	w.periodP50 = append(w.periodP50, float64(w.res.P50.Nanoseconds()))
	w.periodP99 = append(w.periodP99, float64(w.res.P99.Nanoseconds()))
	w.stripeMergeUs = append(w.stripeMergeUs, us(w.res.StripeMerge))
	p99s := make([]float64, 0, len(w.res.Blocks))
	for _, b := range w.res.Blocks {
		if b.Samples > 0 {
			p99s = append(p99s, float64(b.P99.Nanoseconds()))
		}
	}
	w.blockSpread = append(w.blockSpread, ratio(percentile(p99s, 100), median(p99s)))
	return d, nil
}

func (w *fleetWorkload) finish(t *tally) (simStats, error) {
	checkFleet(t, w.wname, &w.res, w.nodes, w.expectPeriods)
	u := make([]float64, len(w.res.Nodes))
	for i := range w.res.Nodes {
		u[i] = w.res.Nodes[i].Unfairness
	}
	return simStats{unfairnessMean: mean(u), digest: w.refDigest}, nil
}

// layers emits the fleet family's per-layer metrics: the counters of the
// last run (deterministic ones repeat every iteration) and medians of
// the per-iteration wall-clock figures.
func (w *fleetWorkload) layers(out map[string]float64, untracedMs []float64) error {
	r := &w.res
	out["fleet.period_ns_p50"] = median(w.periodP50)
	out["fleet.period_ns_p99"] = median(w.periodP99)
	out["fleet.block_p99_spread"] = median(w.blockSpread)
	out["fleet.stripe_merge_us"] = median(w.stripeMergeUs)
	warm := float64(r.Pool.Hits + r.Pool.Carries)
	out["fleet.pool_hit_ratio"] = ratio(warm, warm+float64(r.Pool.Misses))
	out["fleet.carries_per_run"] = float64(r.Pool.Carries)
	var reprofiles int
	for i := range r.Nodes {
		reprofiles += r.Nodes[i].Reprofiles
	}
	out["fleet.reprofiles_per_node"] = ratio(float64(reprofiles), float64(len(r.Nodes)))
	out["fleet.node_periods_per_s"] = ratio(float64(r.TotalPeriods), median(untracedMs)/1e3)
	out["machine.l1_hit_ratio"] = ratio(float64(r.CacheHits), float64(r.CacheHits+r.CacheMisses))
	out["core.score_memo_hit_ratio"] = ratio(float64(r.ScoreHits), float64(r.ScoreHits+r.ScoreMisses))
	if w.kind == fleetChurn {
		out["fleet.churn_peak_live"] = float64(r.Churn.PeakLive)
		return nil
	}

	// Speed-up of the same run at the parallel worker count.
	parallel.SetWorkers(parWorkers())
	var parMs []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if err := w.run(); err != nil {
			return err
		}
		parMs = append(parMs, ms(time.Since(t0)))
	}
	parallel.SetWorkers(1)
	out["parallel.fleet_speedup"] = ratio(median(untracedMs), median(parMs))
	return nil
}
