package experiments

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/fairness"
	"repro/internal/machine"
	"repro/internal/policies"
	"repro/internal/texttab"
)

// SensitivityParam selects which design parameter Figure 11 sweeps.
type SensitivityParam int

const (
	// SensPerf sweeps δ_P, the performance threshold (Figure 11a).
	SensPerf SensitivityParam = iota
	// SensMissRatio sweeps Β, the LLC miss-ratio threshold (Figure 11b).
	SensMissRatio
	// SensTraffic sweeps Γ, the memory-traffic-ratio threshold
	// (Figure 11c).
	SensTraffic
)

// String names the parameter.
func (s SensitivityParam) String() string {
	switch s {
	case SensPerf:
		return "performance threshold (δ_P)"
	case SensMissRatio:
		return "LLC miss ratio threshold (Β)"
	case SensTraffic:
		return "memory traffic ratio threshold (Γ)"
	default:
		return fmt.Sprintf("SensitivityParam(%d)", int(s))
	}
}

// SensitivityResult is one Figure 11 panel: unfairness at each parameter
// value, normalized to the paper's default value.
type SensitivityResult struct {
	Param   SensitivityParam
	Values  []float64
	Default float64
	// Norm[i] is the geomean unfairness at Values[i] over the mixes,
	// divided by the geomean at Default.
	Norm []float64
}

// sweepValues returns the sweep points and the paper default for a
// parameter.
func sweepValues(p SensitivityParam) ([]float64, float64, error) {
	switch p {
	case SensPerf:
		return []float64{0.01, 0.03, 0.05, 0.07, 0.09, 0.13}, 0.05, nil
	case SensMissRatio:
		return []float64{0.01, 0.02, 0.03, 0.05, 0.07}, 0.03, nil
	case SensTraffic:
		return []float64{0.10, 0.20, 0.30, 0.40, 0.50}, 0.30, nil
	default:
		return nil, 0, fmt.Errorf("experiments: unknown sensitivity parameter %d", int(p))
	}
}

// applyParam returns the paper-default parameters with one value replaced.
func applyParam(p SensitivityParam, v float64) (core.Params, error) {
	params := core.DefaultParams()
	switch p {
	case SensPerf:
		params.DeltaPerf = v
	case SensMissRatio:
		params.BetaHigh = v
		if params.BetaLow > v {
			params.BetaLow = v
		}
	case SensTraffic:
		params.GammaHigh = v
		if params.GammaLow > v {
			params.GammaLow = v
		}
	default:
		return core.Params{}, fmt.Errorf("experiments: unknown sensitivity parameter %d", int(p))
	}
	return params, params.Validate()
}

// Figure11 sweeps one design parameter across its range and reports
// CoPart's geomean unfairness over the sensitive 4-application mixes,
// normalized to the default setting (§5.5.3).
func Figure11(cfg machine.Config, param SensitivityParam, seed int64) (SensitivityResult, *texttab.Table, error) {
	values, def, err := sweepValues(param)
	if err != nil {
		return SensitivityResult{}, nil, err
	}
	// The threshold trade-off only exists under measurement noise (the
	// §5.5.3 discussion is about reacting to noise vs. missing signal);
	// the sweep therefore runs with realistic PMC jitter unless the
	// caller configured its own.
	if cfg.MeasurementNoise == 0 {
		cfg.MeasurementNoise = 0.02
	}
	// The sweep points, with the normalization default appended as a
	// hidden point when the list lacks it, are one CoPart policy each.
	points := values
	defIdx := slices.Index(values, def)
	if defIdx < 0 {
		points = append(slices.Clone(values), def)
		defIdx = len(points) - 1
	}
	pols := make([]policies.Policy, len(points))
	for vi, v := range points {
		params, err := applyParam(param, v)
		if err != nil {
			return SensitivityResult{}, nil, err
		}
		pols[vi] = &policies.Dynamic{Label: "CoPart", Params: params, Seed: seed}
	}
	kinds := sensitiveMixes()
	cells := grid(len(points), len(kinds))
	err = policyCells(cfg, kinds, 4, pols, func(vi, ki int, out policies.Result) {
		u := out.Unfairness
		if u <= 0 {
			u = 1e-4
		}
		cells[vi][ki] = u
	})
	if err != nil {
		return SensitivityResult{}, nil, err
	}
	geo := make([]float64, len(points))
	for vi := range points {
		g, err := fairness.GeoMean(cells[vi])
		if err != nil {
			return SensitivityResult{}, nil, err
		}
		geo[vi] = g
	}
	base := geo[defIdx]
	res := SensitivityResult{Param: param, Values: values, Default: def}
	tab := texttab.New(
		fmt.Sprintf("Figure 11. Sensitivity to the %s (normalized to default %.2f)", param, def),
		"value", "normalized unfairness")
	for vi, v := range values {
		u := geo[vi]
		res.Norm = append(res.Norm, u/base)
		tab.AddRow(fmt.Sprintf("%.2f", v), fmt.Sprintf("%.3f", u/base))
	}
	return res, tab, nil
}
