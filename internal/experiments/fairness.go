package experiments

import (
	"fmt"
	"slices"

	"repro/internal/fairness"
	"repro/internal/machine"
	"repro/internal/parallel"
	"repro/internal/policies"
	"repro/internal/texttab"
	"repro/internal/workloads"
)

// PolicySet returns the five policies of Figure 12, in the paper's order.
func PolicySet(seed int64) []policies.Policy {
	return []policies.Policy{
		policies.EQ{},
		policies.ST{},
		policies.CATOnly(seed),
		policies.MBAOnly(seed),
		policies.CoPart(seed),
	}
}

// Fig12Result holds Figure 12's matrix: normalized unfairness per policy
// per mix, plus the geometric means.
type Fig12Result struct {
	Mixes    []workloads.MixKind
	Policies []string
	// Norm[p][m] is policy p's unfairness on mix m divided by EQ's.
	Norm [][]float64
	// GeoMean[p] aggregates policy p across the mixes.
	GeoMean []float64
	// Raw[p][m] is the unnormalized unfairness.
	Raw [][]float64
}

// ExtendedPolicySet adds the baselines beyond the paper's comparison:
// the unpartitioned run and utility-based cache partitioning (UCP,
// fairness-oblivious, the paper's reference [34]).
func ExtendedPolicySet(seed int64) []policies.Policy {
	return append(PolicySet(seed), policies.None{}, policies.UCP{})
}

// stFirst maps the k-th cell handed out to its mix and policy: the st
// policy's cells first, mix by mix, then the others mix-major; st < 0
// keeps plain mix-major order.
func stFirst(k, mixes, pols, st int) (mi, pi int) {
	if st < 0 {
		return k / pols, k % pols
	}
	if k < mixes {
		return k, st
	}
	k -= mixes
	mi, pi = k/(pols-1), k%(pols-1)
	if pi >= st {
		pi++
	}
	return mi, pi
}

// policyCells is the one cell engine behind every policy figure. It
// builds each mix once, runs every (policy, mix) cell on the worker pool
// and passes each cell's result to put, which must write only cell
// (pi, mi). Every Policy.Run builds its own machine and seeds its own RNG
// from the policy's fixed seed, so the cells are bit-identical at any
// worker count. The ST oracle's cells cost the most, so they are handed
// out first: one started last would finish alone.
func policyCells(cfg machine.Config, kinds []workloads.MixKind, apps int, pols []policies.Policy, put func(pi, mi int, out policies.Result)) error {
	mixModels := make([][]machine.AppModel, len(kinds))
	for mi, kind := range kinds {
		models, err := workloads.Mix(cfg, kind, apps)
		if err != nil {
			return err
		}
		mixModels[mi] = models
	}
	st := slices.IndexFunc(pols, func(p policies.Policy) bool {
		_, ok := p.(policies.ST)
		return ok
	})
	return parallel.ForEach(len(kinds)*len(pols), func(k int) error {
		mi, pi := stFirst(k, len(kinds), len(pols), st)
		out, err := pols[pi].Run(cfg, mixModels[mi])
		if err != nil {
			return fmt.Errorf("experiments: %s on %v: %w", pols[pi].Name(), kinds[mi], err)
		}
		put(pi, mi, out)
		return nil
	})
}

// grid returns a rows × cols matrix of zeros.
func grid(rows, cols int) [][]float64 {
	g := make([][]float64, rows)
	for r := range g {
		g[r] = make([]float64, cols)
	}
	return g
}

// eqMatrix runs pols (EQ first) on every mix at apps applications, reads
// metric off each cell and normalizes the grid to EQ.
func eqMatrix(cfg machine.Config, pols []policies.Policy, apps int, metric func(policies.Result) float64) (raw, norm [][]float64, geo []float64, err error) {
	kinds := workloads.MixKinds()
	raw = grid(len(pols), len(kinds))
	err = policyCells(cfg, kinds, apps, pols, func(pi, mi int, out policies.Result) {
		raw[pi][mi] = metric(out)
	})
	if err != nil {
		return nil, nil, nil, err
	}
	norm, geo, err = normalizeToEQ(raw)
	return raw, norm, geo, err
}

// normalizeToEQ divides each policy's row of raw by EQ's (row 0), mix by
// mix, and takes each row's geometric mean. Both floors below act on
// unfairness; throughput, in instructions/s, never comes near them.
func normalizeToEQ(raw [][]float64) (norm [][]float64, geo []float64, err error) {
	eq := raw[0]
	norm = grid(len(raw), len(eq))
	geo = make([]float64, len(raw))
	vals := make([]float64, len(eq))
	for pi, row := range raw {
		for mi, v := range row {
			// Where EQ and the policy are both essentially perfectly
			// fair (the IS mix sits near zero for everyone), the ratio
			// of two near-zero numbers is noise: report parity instead,
			// as the paper's bars do.
			const fairFloor = 0.01
			if eq[mi] < fairFloor && v < fairFloor {
				norm[pi][mi] = 1
			} else if eq[mi] > 1e-9 {
				norm[pi][mi] = v / eq[mi]
			} else {
				norm[pi][mi] = 1
			}
			// The geometric mean needs positive inputs; clamp
			// (near-)zero outcomes — the ST oracle can reach exactly
			// zero unfairness on LLC-dominated mixes — to 0.01.
			vals[mi] = max(norm[pi][mi], 0.01)
		}
		if geo[pi], err = fairness.GeoMean(vals); err != nil {
			return nil, nil, err
		}
	}
	return norm, geo, nil
}

// Figure12 runs every policy on every 4-application workload mix and
// normalizes to EQ, reproducing Figure 12.
func Figure12(cfg machine.Config, seed int64) (Fig12Result, *texttab.Table, error) {
	return fairnessMatrixWith(cfg, PolicySet(seed), 4)
}

// Figure12Extended is Figure 12 with the None and UCP extension rows.
func Figure12Extended(cfg machine.Config, seed int64) (Fig12Result, *texttab.Table, error) {
	return fairnessMatrixWith(cfg, ExtendedPolicySet(seed), 4)
}

func unfairnessOf(out policies.Result) float64 { return out.Unfairness }

func throughputOf(out policies.Result) float64 { return out.Throughput }

// fairnessMatrixWith is Figure 12's matrix for an explicit policy list;
// the first policy must be the normalization baseline (EQ).
func fairnessMatrixWith(cfg machine.Config, pols []policies.Policy, apps int) (Fig12Result, *texttab.Table, error) {
	res := Fig12Result{Mixes: workloads.MixKinds()}
	for _, p := range pols {
		res.Policies = append(res.Policies, p.Name())
	}
	var err error
	res.Raw, res.Norm, res.GeoMean, err = eqMatrix(cfg, pols, apps, unfairnessOf)
	if err != nil {
		return Fig12Result{}, nil, err
	}

	headers := []string{"Policy"}
	for _, k := range res.Mixes {
		headers = append(headers, k.String())
	}
	headers = append(headers, "GeoMean")
	tab := texttab.New(
		fmt.Sprintf("Figure 12. Unfairness normalized to EQ (%d apps, lower is better)", apps),
		headers...)
	for pi, name := range res.Policies {
		row := []string{name}
		for mi := range res.Mixes {
			row = append(row, fmt.Sprintf("%.3f", res.Norm[pi][mi]))
		}
		row = append(row, fmt.Sprintf("%.3f", res.GeoMean[pi]))
		tab.AddRow(row...)
	}
	return res, tab, nil
}

// SweepResult holds Figures 13, 14, and 17: one aggregated value per
// policy per sweep point.
type SweepResult struct {
	Label    string
	Points   []int // application counts (Fig 13/17) or total ways (Fig 14)
	Policies []string
	// Value[p][x] is the geomean-normalized metric at sweep point x.
	Value [][]float64
}

// sweep is the scaffold of Figures 13, 14 and 17: at every sweep point x,
// on the machine and application count point(x) gives, it runs the
// paper's policies on every mix and records each policy's geometric mean
// of metric normalized to EQ. The points fan out too; the pool bounds
// total concurrency.
func sweep(title, xName, label string, points []int, seed int64,
	point func(x int) (machine.Config, int), metric func(policies.Result) float64) (SweepResult, *texttab.Table, error) {
	pols := PolicySet(seed)
	res := SweepResult{Label: label, Points: points, Value: grid(len(pols), len(points))}
	for _, p := range pols {
		res.Policies = append(res.Policies, p.Name())
	}
	err := parallel.ForEach(len(points), func(xi int) error {
		cfg, apps := point(points[xi])
		_, _, geo, err := eqMatrix(cfg, pols, apps, metric)
		if err != nil {
			return err
		}
		for pi := range pols {
			res.Value[pi][xi] = geo[pi]
		}
		return nil
	})
	if err != nil {
		return SweepResult{}, nil, err
	}
	return res, sweepTable(title, xName, res), nil
}

// Figure13 sweeps the application count from 3 to 6 and reports each
// policy's geomean unfairness normalized to EQ.
func Figure13(cfg machine.Config, seed int64) (SweepResult, *texttab.Table, error) {
	return sweep("Figure 13. Unfairness vs application count (normalized to EQ)", "apps",
		"unfairness", []int{3, 4, 5, 6}, seed,
		func(n int) (machine.Config, int) { return cfg, n }, unfairnessOf)
}

// Figure14 sweeps the total LLC capacity from 7 to 11 ways at 4
// applications and reports geomean unfairness normalized to EQ. Each
// sweep point is a machine with a smaller LLC; the benchmark models are
// recalibrated against that machine, as the paper re-runs on the
// restricted cache.
func Figure14(cfg machine.Config, seed int64) (SweepResult, *texttab.Table, error) {
	return sweep("Figure 14. Unfairness vs total LLC ways (normalized to EQ)", "ways",
		"unfairness", []int{7, 8, 9, 10, 11}, seed,
		func(ways int) (machine.Config, int) {
			small := cfg
			small.LLCWays = ways
			return small, 4
		}, unfairnessOf)
}

// Figure17 sweeps the application count and reports each policy's geomean
// throughput (geometric-mean IPS across applications and mixes),
// normalized to EQ.
func Figure17(cfg machine.Config, seed int64) (SweepResult, *texttab.Table, error) {
	return sweep("Figure 17. Throughput vs application count (normalized to EQ, higher is better)", "apps",
		"throughput", []int{3, 4, 5, 6}, seed,
		func(n int) (machine.Config, int) { return cfg, n }, throughputOf)
}

func sweepTable(title, xName string, res SweepResult) *texttab.Table {
	headers := []string{"Policy"}
	for _, x := range res.Points {
		headers = append(headers, fmt.Sprintf("%s=%d", xName, x))
	}
	tab := texttab.New(title, headers...)
	for pi, name := range res.Policies {
		row := []string{name}
		for xi := range res.Points {
			row = append(row, fmt.Sprintf("%.3f", res.Value[pi][xi]))
		}
		tab.AddRow(row...)
	}
	return tab
}
