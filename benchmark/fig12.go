package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/parallel"
	"repro/internal/workloads"
)

// Paper Fig 12 / §6.2: CoPart's geomean fairness improvement over EQ,
// CAT-only and MBA-only, the reference results EXPERIMENTS.md holds.
var paperImprovement = map[string]float64{"EQ": 57.3, "CAT-only": 28.6, "MBA-only": 56.4}

// fig12Workload iterates experiments.Figure12: 7 mixes × 5 policies on
// 4 applications. Nearly all of its host time is cold machine.Solve under
// the ST oracle's exhaustive search; the fleet memo stack is idle.
type fig12Workload struct {
	wname   string
	workers int
	seed    int64
	cfg     machine.Config
	tr      *tracer

	ref       experiments.Fig12Result
	refDigest digest

	// Traced iterations: per-policy host ms summed over the 7 mixes, and
	// the 7 Mix builds.
	policyMs [][]float64
	mixUs    []float64
}

func newFig12Workload(name string, workers, ways int, seed int64, tr *tracer) *fig12Workload {
	cfg := machine.DefaultConfig()
	cfg.LLCWays = ways
	return &fig12Workload{wname: name, workers: workers, seed: seed, cfg: cfg, tr: tr}
}

func (w *fig12Workload) name() string { return w.wname }
func (w *fig12Workload) close()       {}

func fig12Digest(res experiments.Fig12Result) digest {
	d := newDigest()
	for pi, row := range res.Raw {
		d.str(res.Policies[pi])
		for _, u := range row {
			d.float(u)
		}
	}
	for _, g := range res.GeoMean {
		d.float(g)
	}
	return d
}

// checkFig12 is the seed-independent output check: a finite matrix whose
// baseline row is exactly 1.
func checkFig12(t *tally, res experiments.Fig12Result) {
	t.check(len(res.Policies) == 5 && len(res.Mixes) == 7 && res.Policies[0] == "EQ",
		"fig12: matrix is %d policies × %d mixes, first %v", len(res.Policies), len(res.Mixes), res.Policies)
	finite, eqOne := true, true
	for pi := range res.Raw {
		for mi := range res.Raw[pi] {
			if v := res.Raw[pi][mi]; math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				finite = false
			}
			if v := res.Norm[pi][mi]; math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				finite = false
			}
			if pi == 0 && res.Norm[pi][mi] != 1 {
				eqOne = false
			}
		}
	}
	t.check(finite, "fig12: matrix has a non-finite or negative cell")
	t.check(eqOne, "fig12: EQ row is not 1 after normalization")
}

// setUp runs the reference iteration at one worker — the digest every
// later iteration, at any worker count, must reproduce — which also
// fills the process-wide L2 the timed iterations then churn.
func (w *fig12Workload) setUp(t *tally) error {
	parallel.SetWorkers(1)
	res, _, err := experiments.Figure12(w.cfg, w.seed)
	if err != nil {
		return err
	}
	checkFig12(t, res)
	w.ref, w.refDigest = res, fig12Digest(res)
	parallel.SetWorkers(w.workers)
	if w.workers > 1 {
		if _, err := w.iterate(t, false); err != nil {
			return err
		}
	}
	return nil
}

func (w *fig12Workload) iterate(t *tally, traced bool) (time.Duration, error) {
	if traced {
		return w.iterateCells(t)
	}
	t0 := time.Now()
	res, _, err := experiments.Figure12(w.cfg, w.seed)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	t.check(fig12Digest(res) == w.refDigest, "%s: iteration digest differs from the first iteration's", w.wname)
	return d, nil
}

// iterateCells is the traced iteration: the 35 cells of the matrix run
// one by one through the same public pieces Figure12 composes
// (PolicySet, workloads.Mix, Policy.Run), a span around each.
func (w *fig12Workload) iterateCells(t *tally) (time.Duration, error) {
	pols := experiments.PolicySet(w.seed)
	if w.policyMs == nil {
		w.policyMs = make([][]float64, len(pols))
	}
	perPolicy := make([]float64, len(pols))
	root := w.tr.begin("experiments.Figure12", -1)
	t0 := time.Now()
	same := true
	for mi, kind := range workloads.MixKinds() {
		id := w.tr.begin("workloads.Mix", root)
		m0 := time.Now()
		models, err := workloads.Mix(w.cfg, kind, 4)
		w.mixUs = append(w.mixUs, us(time.Since(m0)))
		w.tr.end(id)
		if err != nil {
			return 0, err
		}
		for pi, p := range pols {
			id := w.tr.begin("policies.Run", root)
			w.tr.tag(id, kind.String()+"/"+p.Name())
			p0 := time.Now()
			out, err := p.Run(w.cfg, models)
			perPolicy[pi] += ms(time.Since(p0))
			w.tr.end(id)
			if err != nil {
				return 0, fmt.Errorf("%s on %v: %w", p.Name(), kind, err)
			}
			if math.Float64bits(out.Unfairness) != math.Float64bits(w.ref.Raw[pi][mi]) {
				same = false
			}
		}
	}
	d := time.Since(t0)
	w.tr.end(root)
	t.check(same, "%s: a traced cell's unfairness differs from Figure12's Raw", w.wname)
	for pi, v := range perPolicy {
		w.policyMs[pi] = append(w.policyMs[pi], v)
	}
	return d, nil
}

func policyIndex(res experiments.Fig12Result, name string) int {
	for i, p := range res.Policies {
		if p == name {
			return i
		}
	}
	return -1
}

// improvement is CoPart's geomean unfairness reduction against a
// baseline row, in percent (cmd/evaluate's headline arithmetic).
func improvement(res experiments.Fig12Result, base string) float64 {
	b := res.GeoMean[policyIndex(res, base)]
	return (b - res.GeoMean[policyIndex(res, "CoPart")]) / b * 100
}

func paperGap(res experiments.Fig12Result) float64 {
	var gap float64
	for base, paper := range paperImprovement {
		gap += math.Abs(improvement(res, base) - paper)
	}
	return gap / float64(len(paperImprovement))
}

func (w *fig12Workload) finish(t *tally) (simStats, error) {
	cp := policyIndex(w.ref, "CoPart")
	t.check(cp >= 0, "fig12: no CoPart row")
	if cp < 0 {
		return simStats{}, fmt.Errorf("fig12: no CoPart row in %v", w.ref.Policies)
	}
	return simStats{unfairnessMean: mean(w.ref.Raw[cp]), digest: w.refDigest}, nil
}

// exploreSeconds is how long (simulated) CoPart explores a mix before it
// settles: policies.Dynamic.Run's loop rebuilt from the same public
// calls, counting periods.
func exploreSeconds(cfg machine.Config, models []machine.AppModel, seed int64) (float64, error) {
	m, err := machine.New(cfg, machine.WithSolveCache())
	if err != nil {
		return 0, err
	}
	for _, model := range models {
		if err := m.AddApp(model); err != nil {
			return 0, err
		}
	}
	ref, err := workloads.StreamMissRates(m)
	if err != nil {
		return 0, err
	}
	params := core.DefaultParams()
	mgr, err := core.NewManager(m, params, ref, core.Envelope{LoWay: 0, Ways: cfg.LLCWays},
		rand.New(rand.NewSource(seed)))
	if err != nil {
		return 0, err
	}
	if err := mgr.Profile(); err != nil {
		return 0, err
	}
	periods := 0
	for ; periods < 300; periods++ {
		done, err := mgr.ExploreStep()
		if err != nil {
			return 0, err
		}
		if done {
			break
		}
	}
	return float64(periods) * params.Period.Seconds(), nil
}

// layers emits the fig12 family's per-layer metrics from the traced
// iterations, plus the other worker-count arm for the speed-up.
func (w *fig12Workload) layers(out map[string]float64, untracedMs []float64) error {
	names := []string{"policies.eq_ms", "policies.st_ms", "policies.catonly_ms",
		"policies.mbaonly_ms", "policies.copart_ms"}
	var total float64
	for pi, n := range names {
		out[n] = median(w.policyMs[pi])
		total += out[n]
	}
	out["policies.st_share"] = ratio(out["policies.st_ms"], total)
	out["workloads.mix_us"] = median(w.mixUs)

	var explore []float64
	for _, kind := range workloads.MixKinds() {
		models, err := workloads.Mix(w.cfg, kind, 4)
		if err != nil {
			return err
		}
		s, err := exploreSeconds(w.cfg, models, w.seed)
		if err != nil {
			return err
		}
		explore = append(explore, s)
	}
	out["policies.copart_explore_s_mean"] = mean(explore)
	out["experiments.fairness_gain_vs_eq_pct"] = improvement(w.ref, "EQ")
	out["experiments.paper_gap_pp"] = paperGap(w.ref)

	// Speed-up: this workload's untraced iterations against two
	// iterations at the other worker count.
	other := parWorkers()
	if w.workers > 1 {
		other = 1
	}
	parallel.SetWorkers(other)
	var otherMs []float64
	for i := 0; i < 2; i++ {
		t0 := time.Now()
		if _, _, err := experiments.Figure12(w.cfg, w.seed); err != nil {
			return err
		}
		otherMs = append(otherMs, ms(time.Since(t0)))
	}
	parallel.SetWorkers(w.workers)
	seq, par := median(untracedMs), median(otherMs)
	if w.workers > 1 {
		seq, par = par, seq
	}
	out["parallel.fig12_speedup"] = ratio(seq, par)
	return nil
}
