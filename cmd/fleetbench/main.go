// Command fleetbench drives a fleet of independent simulated CoPart
// nodes concurrently and reports controller throughput: node-periods
// per second plus the p50/p99 wall-clock latency of one control period,
// and the runtime-pool and solve-cache hit rates behind them. The per-node
// outcomes are deterministic in -seed — identical at any -parallel
// setting and with the process-wide solve cache on or off — so the tool
// doubles as a scale-level determinism check (-verify re-runs the fleet
// sequentially and with the solve cache disabled, and compares).
//
// Usage:
//
//	fleetbench [-nodes 256] [-periods 50] [-parallel N] [-seed 1] [-verify]
//	    [-block N] [-blockstats] [-benchline BenchmarkName]
//	    [-churn] [-cpuprofile fleet.cpu] [-memprofile fleet.mem]
//
// The report includes the dispatch shape — block count, block size, and
// the stripe-merge cost of folding the per-block telemetry into the
// result — plus the spread of per-block p99 latencies, which localizes
// regressions: a wide spread points at a few blocks' workloads, a
// uniform shift at the period loop, a growing stripe merge at the
// telemetry itself. -blockstats prints the full per-block table.
// -benchline replaces the report with a single `go test -bench`-format
// result line under the given name, so Makefile sweeps (for example
// bench-fleet's -parallel scaling runs) can feed fleetbench timings
// through benchjson into the same BENCH_<date>.json as the test-binary
// benchmarks.
//
// With -churn the fleet runs over a trace instead of a fixed grid:
// -nodes becomes the total number of Poisson arrivals and -periods the
// mean exponential lifetime in control periods; departing nodes return
// their runtimes to the pool and arrivals reinitialize them in place
// (fleet.RunChurn). The pool hit/miss/eviction counters and the virtual
// live-population stats are reported alongside the usual figures.
//
// The profiling flags mirror evaluate's: they wrap the whole
// fleet run (verification passes included) in the runtime profilers so
// fleet hot spots are inspectable with `go tool pprof`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"slices"
	"time"

	"repro/internal/fleet"
	"repro/internal/machine"
	"repro/internal/parallel"
	"repro/internal/profiling"
)

// options collects the run parameters.
type options struct {
	nodes      int
	periods    int
	workers    int
	seed       int64
	block      int
	verify     bool
	churn      bool
	blockstats bool
	benchline  string
}

func main() {
	var o options
	flag.IntVar(&o.nodes, "nodes", 256, "number of simulated nodes (arrivals with -churn)")
	flag.IntVar(&o.periods, "periods", 50, "control periods per node after profiling (mean lifetime with -churn)")
	flag.IntVar(&o.workers, "parallel", 0, "worker bound (0 = GOMAXPROCS)")
	flag.Int64Var(&o.seed, "seed", 1, "fleet seed")
	flag.IntVar(&o.block, "block", 0, "dispatch block size in nodes (0 = fleet default)")
	flag.BoolVar(&o.verify, "verify", false, "re-run sequentially and with the solve cache off, check per-node determinism")
	flag.BoolVar(&o.churn, "churn", false, "fleet-over-trace: Poisson arrivals, exponential lifetimes, pool reuse across mix shapes")
	flag.BoolVar(&o.blockstats, "blockstats", false, "print the full per-block telemetry table")
	flag.StringVar(&o.benchline, "benchline", "", "replace the report with one go-bench-format result line under this Benchmark name")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()

	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(1)
	}
	err = run(os.Stdout, o)
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(1)
	}
}

// pct renders hits/(hits+misses) as a percentage.
func pct(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return 100 * float64(hits) / float64(hits+misses)
}

// blockP99Spread summarizes the per-block p99 latencies as min, median,
// and max over the blocks that kept any samples. A tight spread says
// the blocks behave uniformly; a wide one localizes a regression to a
// few blocks' workloads.
func blockP99Spread(blocks []fleet.BlockStats) (lo, med, hi time.Duration, ok bool) {
	p99s := make([]time.Duration, 0, len(blocks))
	for _, b := range blocks {
		if b.Samples > 0 {
			p99s = append(p99s, b.P99)
		}
	}
	if len(p99s) == 0 {
		return 0, 0, 0, false
	}
	slices.Sort(p99s)
	return p99s[0], p99s[len(p99s)/2], p99s[len(p99s)-1], true
}

func run(w io.Writer, o options) error {
	parallel.SetWorkers(o.workers)
	defer parallel.SetWorkers(0)
	execute := func() (fleet.Result, error) {
		if o.churn {
			return fleet.RunChurn(fleet.ChurnConfig{
				Arrivals: o.nodes,
				MeanLife: float64(o.periods),
				Seed:     o.seed,
				Block:    o.block,
			})
		}
		return fleet.Run(fleet.Config{Nodes: o.nodes, Periods: o.periods, Seed: o.seed, Block: o.block})
	}
	res, err := execute()
	if err != nil {
		return err
	}
	if o.benchline != "" {
		// One `go test -bench` result line: benchjson parses it exactly
		// like a test-binary benchmark, so sweep timings merge into the
		// same snapshot (one run, so one iteration at elapsed ns/op).
		fmt.Fprintf(w, "%s \t       1\t%d ns/op\n", o.benchline, res.Elapsed.Nanoseconds())
		return nil
	}
	reprofiles := 0
	for _, nr := range res.Nodes {
		reprofiles += nr.Reprofiles
	}
	if o.churn {
		fmt.Fprintf(w, "fleet: %d arrivals, mean lifetime %d periods (seed %d, %d workers)\n",
			o.nodes, o.periods, o.seed, parallel.Workers())
		fmt.Fprintf(w, "churn:            peak %d live, mean %.1f live\n",
			res.Churn.PeakLive, res.Churn.MeanLive)
	} else {
		fmt.Fprintf(w, "fleet: %d nodes × %d periods (seed %d, %d workers)\n",
			o.nodes, o.periods, o.seed, parallel.Workers())
	}
	fmt.Fprintf(w, "elapsed:          %v\n", res.Elapsed)
	fmt.Fprintf(w, "node-periods/sec: %.0f\n", res.PeriodsPerSec)
	fmt.Fprintf(w, "period latency:   p50 %v  p99 %v\n", res.P50, res.P99)
	fmt.Fprintf(w, "dispatch:         %d blocks × %d nodes, stripe merge %v\n",
		len(res.Blocks), res.Block, res.StripeMerge)
	if lo, med, hi, ok := blockP99Spread(res.Blocks); ok {
		fmt.Fprintf(w, "block p99 spread: min %v  median %v  max %v\n", lo, med, hi)
	}
	if o.blockstats {
		for i, b := range res.Blocks {
			fmt.Fprintf(w, "  block %4d [%6d,%6d)  periods %7d  samples %5d  stride %4d  p50 %v  p99 %v\n",
				i, b.Lo, b.Hi, b.Periods, b.Samples, b.Stride, b.P50, b.P99)
		}
	}
	fmt.Fprintf(w, "reprofiles:       %d\n", reprofiles)
	// A carried runtime is as warm as a popped one: the ratio counts both,
	// as the benchmark's fleet.pool_hit_ratio does.
	fmt.Fprintf(w, "runtime pool:     %.1f%% warm (%d hits, %d carries, %d misses, %d evictions, %d free)\n",
		pct(res.Pool.Hits+res.Pool.Carries, res.Pool.Misses), res.Pool.Hits, res.Pool.Carries,
		res.Pool.Misses, res.Pool.Evictions, res.Pool.Free)
	fmt.Fprintf(w, "solve cache:      %.1f%% hit (%d hits, %d misses, %d evictions, %d entries)\n",
		pct(res.Shared.Hits, res.Shared.Misses), res.Shared.Hits, res.Shared.Misses,
		res.Shared.Evictions, res.Shared.Entries)
	fmt.Fprintf(w, "health:           %d healthy, %d degraded (max fail streak %d)\n",
		res.Health.Healthy, res.Health.Degraded, res.Health.MaxFailStreak)
	if o.verify {
		parallel.SetWorkers(1)
		seq, err := execute()
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(res.Nodes, seq.Nodes) {
			return fmt.Errorf("per-node results differ between parallel and sequential runs")
		}
		parallel.SetWorkers(o.workers)
		prev := machine.SetSharedSolveCache(false)
		uncached, err := execute()
		machine.SetSharedSolveCache(prev)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(res.Nodes, uncached.Nodes) {
			return fmt.Errorf("per-node results differ with the solve cache off")
		}
		fmt.Fprintln(w, "determinism:      verified (parallel == sequential == solve cache off)")
	}
	return nil
}
