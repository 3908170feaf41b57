// Command evaluate regenerates the paper's tables and figures, and the
// repo's extension experiments, one per run: -fig ID picks which.
//
// Usage:
//
//	evaluate -fig ID [-seed N] [-out DIR] [-parallel N] [-cpuprofile F] [-memprofile F]
//
// IDs:
//
//	table1, table2     system configuration and benchmark characteristics
//	1, 2, 3            performance heatmaps (WN WS RT, OC CG FT, SP ON FMM)
//	CG, WN, ...        one Table 2 benchmark's heatmap tile
//	4, 5, 6            fairness heatmaps of the LLC, BW and dual mixes
//	11, 11a, 11b, 11c  sensitivity to all three parameters, δ_P, Β, Γ
//	12, 13, 14, 17     unfairness per policy per mix, vs app count, vs LLC
//	                   ways; throughput vs app count
//	15                 runtime case study (prints every 10th period)
//	16                 controller overhead
//	extended           Figure 12 plus the None and UCP baselines
//	dualsocket         per-socket controllers on a two-socket machine
//	convergence        Figure 16 plus adaptation time in control periods
//	ablation           CoPart with each reconstruction mechanism disabled
//
// With -out DIR, a figure that has a chart also writes it under DIR
// (fig4.svg, perf_WN.svg, fig12_extended.svg, …; Figure 15 adds its full
// timeline as fig15.csv) and names each file on stdout. A run that used
// the ST oracle ends with one stderr line, "ST: solved S of E states":
// how many of the states in its search space it had to solve, seeds
// included, rather than cut on a bound (DESIGN.md §9.1).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/experiments"
	"repro/internal/fairness"
	"repro/internal/machine"
	"repro/internal/parallel"
	"repro/internal/policies"
	"repro/internal/profiling"
	"repro/internal/svgplot"
	"repro/internal/texttab"
	"repro/internal/workloads"
)

// seed and outDir are the -seed and -out flags every experiment reads.
var (
	seed   int64 = 1
	outDir string
)

var cfg = machine.DefaultConfig()

// caseStudyEvery is the Figure 15 table's sampling: every 10th period.
const caseStudyEvery = 10

// figures is the experiment table, in the order -fig's help lists it.
var figures = []struct {
	id  string
	run func(io.Writer) error
}{
	{"table1", func(w io.Writer) error { return render(w, experiments.Table1(cfg), nil, "\n") }},
	{"table2", func(w io.Writer) error {
		_, tab, err := experiments.Table2(cfg)
		return render(w, tab, err, "\n")
	}},
	{"1", perfFigure(1)},
	{"2", perfFigure(2)},
	{"3", perfFigure(3)},
	{"4", fairFigure(4)},
	{"5", fairFigure(5)},
	{"6", fairFigure(6)},
	{"11", sensitivity(experiments.SensPerf, experiments.SensMissRatio, experiments.SensTraffic)},
	{"11a", sensitivity(experiments.SensPerf)},
	{"11b", sensitivity(experiments.SensMissRatio)},
	{"11c", sensitivity(experiments.SensTraffic)},
	{"12", fig12("fig12.svg", experiments.Figure12)},
	{"13", sweep(13, experiments.Figure13, "Figure 13: unfairness vs application count", "apps")},
	{"14", sweep(14, experiments.Figure14, "Figure 14: unfairness vs total LLC ways", "ways")},
	{"15", caseStudy},
	{"16", overhead(false)},
	{"17", sweep(17, experiments.Figure17, "Figure 17: throughput vs application count", "apps")},
	{"extended", fig12("fig12_extended.svg", experiments.Figure12Extended)},
	{"dualsocket", func(w io.Writer) error {
		_, tab, err := experiments.DualSocket(cfg, seed)
		return render(w, tab, err, "")
	}},
	{"convergence", overhead(true)},
	{"ablation", func(w io.Writer) error {
		_, tab, err := experiments.Ablations(cfg, seed)
		return render(w, tab, err, "")
	}},
}

func main() {
	fig := flag.String("fig", "12", "experiment to run: "+validIDs())
	flag.Int64Var(&seed, "seed", 1, "seed for the dynamic policies and the controller")
	flag.StringVar(&outDir, "out", "", "also write SVG/CSV figures into this directory")
	workers := flag.Int("parallel", 0, "worker count for the experiment engine (0 = all cores)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()
	parallel.SetWorkers(*workers)

	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	if err == nil {
		err = run(os.Stdout, *fig)
		// The oracle's skip rate, off stdout so the figures stay diffable.
		if err == nil {
			reportST(os.Stderr)
		}
		if perr := stopProf(); err == nil {
			err = perr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "evaluate:", err)
		os.Exit(1)
	}
}

// run writes experiment id's tables to w.
func run(w io.Writer, id string) error {
	for _, f := range figures {
		if f.id == id {
			return f.run(w)
		}
	}
	if slices.Contains(workloads.Names(), id) {
		return perfTile(w, id)
	}
	return fmt.Errorf("unknown -fig %q; valid IDs: %s", id, validIDs())
}

func validIDs() string {
	ids := make([]string, len(figures))
	for i, f := range figures {
		ids[i] = f.id
	}
	return strings.Join(ids, ", ") + ", or a Table 2 benchmark name (" +
		strings.Join(workloads.Names(), ", ") + ")"
}

// reportST prints how much of its search space the ST oracle has solved
// so far in this process.
func reportST(w io.Writer) {
	if enumerated, solved := policies.STStates(); enumerated > 0 {
		fmt.Fprintf(w, "ST: solved %d of %d states\n", solved, enumerated)
	}
}

// render writes the table an experiment returned, then tail; a non-nil
// err is the experiment's own and is returned instead.
func render(w io.Writer, tab interface{ Render(io.Writer) error }, err error, tail string) error {
	if err != nil {
		return err
	}
	if err := tab.Render(w); err != nil {
		return err
	}
	_, err = io.WriteString(w, tail)
	return err
}

// save writes one file under -out and names it on w through format (one
// %s verb); without -out it does nothing.
func save(w io.Writer, name, format string, write func(io.Writer) error) error {
	if outDir == "" {
		return nil
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, format, path)
	return err
}

func ticks[T any](xs []T) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprint(x)
	}
	return out
}

func heatmapSVG(spec svgplot.HeatmapSpec) func(io.Writer) error {
	return func(f io.Writer) error { return svgplot.WriteHeatmap(f, spec) }
}

func barsSVG(spec svgplot.BarSpec) func(io.Writer) error {
	return func(f io.Writer) error { return svgplot.WriteBars(f, spec) }
}

// perfFigure is one of Figures 1–3: three benchmarks' heatmap tiles.
func perfFigure(fig int) func(io.Writer) error {
	return func(w io.Writer) error {
		names, err := experiments.FigureBenches(fig)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Figure %d. Performance impact of LLC and memory bandwidth partitioning\n\n", fig)
		for _, n := range names {
			if err := perfTile(w, n); err != nil {
				return err
			}
		}
		return nil
	}
}

// perfTile is one benchmark's (ways × MBA) performance heatmap.
func perfTile(w io.Writer, bench string) error {
	grid, hm, err := experiments.PerfHeatmap(cfg, bench)
	if err := render(w, hm, err, "\n"); err != nil {
		return err
	}
	return save(w, "perf_"+bench+".svg", "wrote %s\n\n", heatmapSVG(svgplot.HeatmapSpec{
		Title:  fmt.Sprintf("Normalized performance of %s", bench),
		XLabel: "MBA level (%)", YLabel: "LLC ways",
		XTicks: ticks(grid.Levels), YTicks: ticks(grid.Ways),
		Values: grid.Norm,
	}))
}

// fairFigure is one of Figures 4–6: a mix's unfairness under a grid of
// (LLC, MBA) partitionings, normalized to no partitioning.
func fairFigure(fig int) func(io.Writer) error {
	return func(w io.Writer) error {
		grid, hm, err := experiments.FairnessHeatmap(cfg, fig)
		if err := render(w, hm, err, ""); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nunpartitioned unfairness (normalization base): %.4f\n", grid.NoneUnfair)
		fmt.Fprintln(w, "cells < 1 are fairer than no partitioning; lower is better")
		return save(w, fmt.Sprintf("fig%d.svg", fig), "wrote %s\n", heatmapSVG(svgplot.HeatmapSpec{
			Title:  fmt.Sprintf("Figure %d: unfairness of %v (normalized to no partitioning)", fig, grid.Mix),
			XLabel: "MBA partitioning", YLabel: "LLC partitioning",
			XTicks: ticks(grid.MBAParts), YTicks: ticks(grid.LLCParts),
			Values: grid.Norm,
		}))
	}
}

// sensitivity is Figure 11's sweep of each of params (§5.5.3).
func sensitivity(params ...experiments.SensitivityParam) func(io.Writer) error {
	return func(w io.Writer) error {
		for _, p := range params {
			_, tab, err := experiments.Figure11(cfg, p, seed)
			if err := render(w, tab, err, "\n"); err != nil {
				return err
			}
		}
		return nil
	}
}

// fig12 is Figure 12 (or its extended form): the table, its bar chart as
// file, and the paper's headline metric.
func fig12(file string, figure func(machine.Config, int64) (experiments.Fig12Result, *texttab.Table, error)) func(io.Writer) error {
	return func(w io.Writer) error {
		res, tab, err := figure(cfg, seed)
		if err := render(w, tab, err, ""); err != nil {
			return err
		}
		spec := svgplot.BarSpec{
			Title:  "Figure 12: unfairness normalized to EQ (lower is better)",
			YLabel: "normalized unfairness",
		}
		for _, k := range res.Mixes {
			spec.Groups = append(spec.Groups, k.String())
		}
		for pi, name := range res.Policies {
			spec.Series = append(spec.Series, svgplot.BarSeries{Name: name, Values: res.Norm[pi]})
		}
		if err := save(w, file, "wrote %s\n", barsSVG(spec)); err != nil {
			return err
		}
		printHeadline(w, res)
		return nil
	}
}

// sweep is one of Figures 13, 14 and 17: each policy across one swept
// parameter.
func sweep(fig int, figure func(machine.Config, int64) (experiments.SweepResult, *texttab.Table, error), title, xName string) func(io.Writer) error {
	return func(w io.Writer) error {
		res, tab, err := figure(cfg, seed)
		if err := render(w, tab, err, ""); err != nil {
			return err
		}
		spec := svgplot.BarSpec{Title: title, YLabel: "normalized " + res.Label}
		for _, x := range res.Points {
			spec.Groups = append(spec.Groups, fmt.Sprintf("%s=%d", xName, x))
		}
		for pi, name := range res.Policies {
			spec.Series = append(spec.Series, svgplot.BarSeries{Name: name, Values: res.Value[pi]})
		}
		return save(w, fmt.Sprintf("fig%d.svg", fig), "wrote %s\n", barsSVG(spec))
	}
}

// caseStudy is Figure 15: CoPart consolidating two batch workloads with a
// latency-critical memcached model whose load steps up at t≈99.4 s and
// back down at t≈299.4 s, under a Heracles-style envelope manager.
func caseStudy(w io.Writer) error {
	res, err := experiments.CaseStudy(cfg, experiments.DefaultLoadTrace(), seed)
	if err != nil {
		return err
	}
	if err := render(w, experiments.RenderCaseStudy(res, caseStudyEvery), nil, ""); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nSLO violations: %d of %d periods\n", res.SLOViolations, len(res.Samples))
	err = save(w, "fig15.csv", "timeline written to %s\n", func(f io.Writer) error {
		return experiments.WriteCaseStudyCSV(f, res)
	})
	if err != nil {
		return err
	}
	xs := make([]float64, len(res.Samples))
	copart := make([]float64, len(res.Samples))
	eq := make([]float64, len(res.Samples))
	load := make([]float64, len(res.Samples))
	for i, s := range res.Samples {
		xs[i] = s.Time.Seconds()
		copart[i] = s.Unfairness
		eq[i] = s.EQUnfairness
		// Scale the load step onto the unfairness axis for context.
		load[i] = s.LoadRPS / 1e6
	}
	return save(w, "fig15.svg", "figure written to %s\n", func(f io.Writer) error {
		return svgplot.WriteLines(f, svgplot.LineSpec{
			Title:  "Figure 15: runtime behavior of CoPart (case study)",
			XLabel: "time (s)", YLabel: "unfairness / load (MRPS)",
			X: xs,
			Series: []svgplot.LineSeries{
				{Name: "CoPart", Values: copart},
				{Name: "EQ", Values: eq},
				{Name: "load (MRPS)", Values: load},
			},
		})
	})
}

// overhead is Figure 16, the wall-clock cost of the exploration step,
// optionally followed by the convergence table.
func overhead(convergence bool) func(io.Writer) error {
	return func(w io.Writer) error {
		_, tab, err := experiments.Figure16(cfg, seed)
		if err := render(w, tab, err, "\npaper reference: 10.6, 11.8, 12.7, 14.4 µs for 3-6 apps\n"); err != nil {
			return err
		}
		if !convergence {
			return nil
		}
		_, ctab, err := experiments.Convergence(cfg, seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
		return ctab.Render(w)
	}
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
		if imp, err := fairness.Improvement(res.GeoMean[idx[base]], cp); err == nil {
			fmt.Fprintf(w, "CoPart fairness improvement over %s: %.1f%% (paper: %s)\n",
				base, imp, paperHeadline(base))
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
