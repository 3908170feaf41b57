package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fairness"
	"repro/internal/machine"
	"repro/internal/policies"
	"repro/internal/texttab"
	"repro/internal/workloads"
)

// AblationRow is one controller variant's aggregate outcome.
type AblationRow struct {
	Name string
	// Unfairness is the geomean unfairness across the sensitive mixes,
	// normalized to the all-features controller.
	Unfairness float64
	// Raw is the unnormalized geomean.
	Raw float64
}

// AblationResult quantifies what each reconstruction mechanism
// contributes (DESIGN.md's per-design-choice evidence): the full
// controller versus variants with one feature disabled at a time, plus
// the everything-off variant (the paper's prose transitions alone).
type AblationResult struct {
	Rows []AblationRow
}

// ablationVariants lists the variants in presentation order.
func ablationVariants() []struct {
	name   string
	mutate func(*core.Features)
} {
	return []struct {
		name   string
		mutate func(*core.Features)
	}{
		{"all features (default)", func(*core.Features) {}},
		{"- park-on-best", func(f *core.Features) { f.ParkOnBest = false }},
		{"- profile pinning", func(f *core.Features) { f.ProfilePinning = false }},
		{"- hurt memory", func(f *core.Features) { f.HurtMemory = false }},
		{"- cumulative guard", func(f *core.Features) { f.CumulativeGuard = false }},
		{"prose-only FSMs", func(f *core.Features) {
			f.ParkOnBest = false
			f.ProfilePinning = false
			f.HurtMemory = false
			f.CumulativeGuard = false
		}},
	}
}

// sensitiveMixes are the 4-application mixes the controller's features
// and thresholds act on; the IS mix only adds noise at zero unfairness.
func sensitiveMixes() []workloads.MixKind {
	return []workloads.MixKind{
		workloads.HLLC, workloads.HBW, workloads.HBoth,
		workloads.MLLC, workloads.MBW, workloads.MBoth,
	}
}

// Ablations runs CoPart with each feature variant across the sensitive
// 4-application mixes and reports geomean unfairness normalized to the
// full controller.
func Ablations(cfg machine.Config, seed int64) (AblationResult, *texttab.Table, error) {
	variants := ablationVariants()
	pols := make([]policies.Policy, len(variants))
	for vi, v := range variants {
		f := core.DefaultFeatures()
		v.mutate(&f)
		pols[vi] = &policies.Dynamic{Label: "CoPart", Features: &f, Seed: seed}
	}
	kinds := sensitiveMixes()
	cells := grid(len(variants), len(kinds))
	err := policyCells(cfg, kinds, 4, pols, func(vi, ki int, out policies.Result) {
		cells[vi][ki] = max(out.Unfairness, 1e-4)
	})
	if err != nil {
		return AblationResult{}, nil, err
	}

	var res AblationResult
	var base float64
	for i, v := range variants {
		raw, err := fairness.GeoMean(cells[i])
		if err != nil {
			return AblationResult{}, nil, fmt.Errorf("experiments: ablation %q: %w", v.name, err)
		}
		if i == 0 {
			base = raw
		}
		res.Rows = append(res.Rows, AblationRow{
			Name:       v.name,
			Raw:        raw,
			Unfairness: raw / base,
		})
	}

	tab := texttab.New(
		"Ablation. Controller variants, geomean unfairness over the sensitive mixes (normalized to the full controller)",
		"variant", "normalized unfairness", "raw")
	for _, r := range res.Rows {
		tab.AddRow(r.Name, fmt.Sprintf("%.3f", r.Unfairness), fmt.Sprintf("%.4f", r.Raw))
	}
	return res, tab, nil
}
