// Command evaluate regenerates the evaluation-section comparisons:
// Figure 12 (unfairness per policy per mix), Figure 13 (sensitivity to
// application count), Figure 14 (sensitivity to total LLC capacity), and
// Figure 17 (throughput).
//
// Usage:
//
//	evaluate -fig 12 [-seed N] [-parallel N]
//	evaluate -fig 13
//	evaluate -fig 14
//	evaluate -fig 17
//
// A figure's run ends with one stderr line, "ST: solved S of E states":
// how many of the states in the ST oracle's search space it had to solve,
// seeds included, rather than cut on a bound (DESIGN.md §9.1).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/parallel"
	"repro/internal/policies"
	"repro/internal/profiling"
	"repro/internal/svgplot"
	"repro/internal/texttab"
)

func main() {
	fig := flag.Int("fig", 12, "figure to regenerate (12, 13, 14, or 17)")
	seed := flag.Int64("seed", 1, "seed for the dynamic policies")
	extended := flag.Bool("extended", false, "include the None and UCP extension baselines (fig 12 only)")
	dualSocket := flag.Bool("dualsocket", false, "run the dual-socket extension experiment instead of a figure")
	svgDir := flag.String("svg", "", "also write an SVG figure into this directory")
	workers := flag.Int("parallel", 0, "worker count for the experiment engine (0 = all cores)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()
	svgOut = *svgDir
	parallel.SetWorkers(*workers)
	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "evaluate:", err)
		os.Exit(1)
	}

	if *dualSocket {
		err = runDualSocket(os.Stdout, *seed)
	} else {
		err = run(os.Stdout, *fig, *seed, *extended)
		// The oracle's skip rate, off stdout so the figures stay diffable.
		if err == nil {
			reportST(os.Stderr)
		}
	}
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "evaluate:", err)
		os.Exit(1)
	}
}

// reportST prints how much of its search space the ST oracle has solved
// so far in this process.
func reportST(w io.Writer) {
	if enumerated, solved := policies.STStates(); enumerated > 0 {
		fmt.Fprintf(w, "ST: solved %d of %d states\n", solved, enumerated)
	}
}

func runDualSocket(w io.Writer, seed int64) error {
	_, tab, err := experiments.DualSocket(machine.DefaultConfig(), seed)
	if err != nil {
		return err
	}
	return tab.Render(w)
}

// svgOut, when non-empty, receives SVG copies of the figures.
var svgOut string

func run(w io.Writer, fig int, seed int64, extended bool) error {
	cfg := machine.DefaultConfig()
	var tab *texttab.Table
	var err error
	var bars *svgplot.BarSpec
	switch fig {
	case 12:
		var res experiments.Fig12Result
		if extended {
			res, tab, err = experiments.Figure12Extended(cfg, seed)
		} else {
			res, tab, err = experiments.Figure12(cfg, seed)
		}
		if err == nil {
			defer printHeadline(w, res)
			bars = fig12Bars(res)
		}
	case 13:
		var res experiments.SweepResult
		res, tab, err = experiments.Figure13(cfg, seed)
		if err == nil {
			bars = sweepBars("Figure 13: unfairness vs application count", "apps", res)
		}
	case 14:
		var res experiments.SweepResult
		res, tab, err = experiments.Figure14(cfg, seed)
		if err == nil {
			bars = sweepBars("Figure 14: unfairness vs total LLC ways", "ways", res)
		}
	case 17:
		var res experiments.SweepResult
		res, tab, err = experiments.Figure17(cfg, seed)
		if err == nil {
			bars = sweepBars("Figure 17: throughput vs application count", "apps", res)
		}
	default:
		return fmt.Errorf("no evaluation figure %d (supported: 12, 13, 14, 17)", fig)
	}
	if err != nil {
		return err
	}
	if err := tab.Render(w); err != nil {
		return err
	}
	if svgOut != "" && bars != nil {
		path := filepath.Join(svgOut, fmt.Sprintf("fig%d.svg", fig))
		if err := writeSVG(path, *bars); err != nil {
			return err
		}
		fmt.Fprintln(w, "wrote", path)
	}
	return nil
}

func fig12Bars(res experiments.Fig12Result) *svgplot.BarSpec {
	spec := &svgplot.BarSpec{
		Title:  "Figure 12: unfairness normalized to EQ (lower is better)",
		YLabel: "normalized unfairness",
	}
	for _, k := range res.Mixes {
		spec.Groups = append(spec.Groups, k.String())
	}
	for pi, name := range res.Policies {
		spec.Series = append(spec.Series, svgplot.BarSeries{Name: name, Values: res.Norm[pi]})
	}
	return spec
}

func sweepBars(title, xName string, res experiments.SweepResult) *svgplot.BarSpec {
	spec := &svgplot.BarSpec{Title: title, YLabel: "normalized " + res.Label}
	for _, x := range res.Points {
		spec.Groups = append(spec.Groups, fmt.Sprintf("%s=%d", xName, x))
	}
	for pi, name := range res.Policies {
		spec.Series = append(spec.Series, svgplot.BarSeries{Name: name, Values: res.Value[pi]})
	}
	return spec
}

func writeSVG(path string, spec svgplot.BarSpec) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := svgplot.WriteBars(f, spec); err != nil {
		return err
	}
	return f.Close()
}

// printHeadline reports the paper's headline metric: CoPart's fairness
// improvement over EQ, CAT-only, and MBA-only.
func printHeadline(w io.Writer, res experiments.Fig12Result) {
	idx := map[string]int{}
	for i, p := range res.Policies {
		idx[p] = i
	}
	cp := res.GeoMean[idx["CoPart"]]
	for _, base := range []string{"EQ", "CAT-only", "MBA-only"} {
		b := res.GeoMean[idx[base]]
		if b > 0 {
			fmt.Fprintf(w, "CoPart fairness improvement over %s: %.1f%% (paper: %s)\n",
				base, (b-cp)/b*100, paperHeadline(base))
		}
	}
}

func paperHeadline(base string) string {
	switch base {
	case "EQ":
		return "57.3%"
	case "CAT-only":
		return "28.6%"
	case "MBA-only":
		return "56.4%"
	default:
		return "n/a"
	}
}
