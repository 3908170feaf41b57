// Command benchmark is the repo's performance instrument: six workloads
// (the Fig 12 matrix at one and several workers, three fleet shapes, and
// a live copartd admission loop), the end-to-end metrics a user of the
// simulator sees, and a per-layer ladder measured from outside by timing
// calls into each package's public functions. README.md in this
// directory names every workload and metric; BENCHMARK.json at the repo
// root carries the same names for the driver.
//
// One run measures one workload:
//
//	go run ./benchmark -workload fleet_steady -seed 1 -seconds 12 -trace 0
//
// and prints a stamped, human-readable report followed by one JSON
// object as the last line of standard output. Without -workload it runs
// all six, each in a child process, untraced then traced. -smoke runs
// everything at toy sizes in a few seconds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/machine"
	"repro/internal/parallel"
)

// processStart anchors setup_s: process start to first timed iteration.
var processStart = time.Now()

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output: exactly these keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// tally counts output checks and operations; a miss is a failed op.
type tally struct {
	attempted, failed int
	msgs              []string
}

func (t *tally) check(ok bool, format string, args ...interface{}) {
	t.attempted++
	if ok {
		return
	}
	t.failed++
	if len(t.msgs) < 20 {
		t.msgs = append(t.msgs, fmt.Sprintf(format, args...))
	}
}

// simStats are a workload's simulated statistics: what the modelled
// machines and controllers did. They repeat exactly for a fixed seed.
type simStats struct {
	unfairnessMean float64
	digest         digest
}

type workload interface {
	name() string
	// setUp builds the system under test and runs the untimed warm-up
	// iteration (pools, memos and the shared L2 filled).
	setUp(t *tally) error
	// iterate runs one iteration and returns its wall time; a traced
	// iteration also records spans.
	iterate(t *tally, traced bool) (time.Duration, error)
	// finish runs the end-of-run output checks.
	finish(t *tally) (simStats, error)
	// layers emits the per-layer metrics the workload's family owns.
	layers(out map[string]float64, untracedMs []float64) error
	close()
}

// sizes scales a workload. full is the benchmark; probe is what a traced
// run uses for the families the named workload does not belong to; smoke
// is the -smoke mode and the tier-1 test.
type sizes struct {
	fleetNodes  int // fleet_steady, fleet_noisy
	churnNodes  int // fleet_churn arrivals
	fig12Ways   int // LLC ways of the Fig 12 machine; the ST search shrinks with it
	admitBatch  int // cycles per daemon lifetime
	admitWarm   int
	replay      int // cycles of the deterministic admission replay
	ladderDiv   int // ladder call counts are divided by this
	probeIters  int // iterations (untraced and again traced) of a probe
	minIters    int // iterations a timed loop runs at least
	setupProbes int // extra set-ups measured in child processes
}

var (
	fullSize  = sizes{fleetNodes: 1024, churnNodes: 2048, fig12Ways: 11, admitBatch: 1500, admitWarm: 100, replay: 50, ladderDiv: 1, probeIters: 3, minIters: 5, setupProbes: 4}
	probeSize = sizes{fleetNodes: 512, churnNodes: 512, fig12Ways: 11, admitBatch: 150, admitWarm: 10, replay: 10, ladderDiv: 1, probeIters: 3, minIters: 3}
	smokeSize = sizes{fleetNodes: 32, churnNodes: 32, fig12Ways: 6, admitBatch: 20, admitWarm: 2, replay: 4, ladderDiv: 50, probeIters: 1, minIters: 1}
)

// parWorkers is the worker count of the parallel arms: min(nproc, 4).
func parWorkers() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

func newWorkload(name string, seed int64, sz sizes, tr *tracer) (workload, error) {
	switch name {
	case "fig12":
		return newFig12Workload(name, 1, sz.fig12Ways, seed, tr), nil
	case "fig12_par":
		return newFig12Workload(name, parWorkers(), sz.fig12Ways, seed, tr), nil
	case "fleet_steady":
		return newFleetWorkload(name, fleetSteady, sz.fleetNodes, seed, tr), nil
	case "fleet_noisy":
		return newFleetWorkload(name, fleetNoisy, sz.fleetNodes, seed, tr), nil
	case "fleet_churn":
		return newFleetWorkload(name, fleetChurn, sz.churnNodes, seed, tr), nil
	case "copartd_admit":
		return newAdmitWorkload(seed, sz.admitBatch, sz.admitWarm, sz.replay, tr), nil
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(workloadNames(), ", "))
}

// probeSlot is the family slot a workload fills in a traced run; the
// other slots are filled by probes of the slot's canonical workload.
func probeSlot(name string) string {
	switch name {
	case "fig12_par":
		return "fig12"
	case "fleet_noisy":
		return "fleet_steady"
	}
	return name
}

var probeSlots = []string{"fig12", "fleet_steady", "fleet_churn", "copartd_admit"}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	scratch  string
	size     sizes
	probe    sizes     // size of the other families' probes in a traced run
	start    time.Time // origin of the set-up clock
	out      io.Writer // the human-readable report
}

// calibrate times a fixed pure-integer loop: the noise sentinel. It
// touches no memory and calls nothing, so its time moves only with what
// the host gives this process.
func calibrate() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	d := time.Since(t0)
	if x == 0 { // keeps the loop live
		return 0
	}
	return d
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// timedLoop iterates w until `seconds` have passed and at least min
// iterations ran, returning each iteration's milliseconds.
func timedLoop(w workload, t *tally, traced bool, seconds float64, min int) ([]float64, error) {
	var durs []float64
	for t0 := time.Now(); len(durs) < min || time.Since(t0).Seconds() < seconds; {
		d, err := w.iterate(t, traced)
		t.check(err == nil, "%s: iteration failed: %v", w.name(), err)
		if err != nil {
			return durs, err
		}
		durs = append(durs, ms(d))
	}
	return durs, nil
}

// setupInChildren measures n more set-ups, each in a fresh process (this
// binary with -setup-probe), so every sample is as cold as the first:
// nothing a previous set-up left in a process-wide cache is reused.
func setupInChildren(o options, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "-setup-probe", "-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10))
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		s, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up probe printed %q: %w", b, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// setupProbe is the child side: set up, print the seconds it took, exit.
func setupProbe(o options) error {
	w, err := newWorkload(o.workload, o.seed, o.size, nil)
	if err != nil {
		return err
	}
	defer w.close()
	var t tally
	if err := w.setUp(&t); err != nil {
		return err
	}
	fmt.Println(time.Since(o.start).Seconds())
	return nil
}

// run measures one workload and returns the result line's content.
func run(o options) (result, error) {
	var tr *tracer
	if o.trace {
		tr = newTracer(time.Now())
	}
	w, err := newWorkload(o.workload, o.seed, o.size, tr)
	if err != nil {
		return result{}, err
	}
	defer w.close()
	t := &tally{}
	if err := w.setUp(t); err != nil {
		return result{}, fmt.Errorf("%s: set-up: %w", o.workload, err)
	}
	setups := []float64{time.Since(o.start).Seconds()}
	if !o.trace {
		more, err := setupInChildren(o, o.size.setupProbes)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, more...)
	}
	printStamp(o)

	metrics := map[string]float64{}
	var sim simStats
	var noisy bool
	if o.trace {
		sim, noisy, err = runTraced(o, w, t, tr, metrics)
	} else {
		calib0 := calibrate()
		var durs []float64
		durs, err = timedLoop(w, t, false, o.seconds, o.size.minIters)
		if err == nil {
			noisy = calibDrift(calib0, calibrate()) > 0.10
			sim, err = w.finish(t)
			metrics["setup_s"] = median(setups)
			metrics["iter_ms_p10"] = percentile(durs, 10)
			metrics["peak_rss_mb"] = peakRSSMB()
			metrics["unfairness_mean"] = sim.unfairnessMean
			fmt.Fprintf(o.out, "# %s: n=%d iterations in the timed region\n", o.workload, len(durs))
		}
	}
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", o.workload, err)
	}

	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := metrics[d.Name]
		if !ok {
			return result{}, fmt.Errorf("%s: metric %s was not measured", o.workload, d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(o.out, "metric %-14s %-40s %16.6g %-6s %s\n", o.workload, d.Name, v, d.Unit, d.Kind)
	}
	fmt.Fprintf(o.out, "sim_digest %s %016x\n", o.workload, uint64(sim.digest))
	fmt.Fprintf(o.out, "failed_ops_ratio %s %d/%d\n", o.workload, t.failed, t.attempted)
	if noisy {
		fmt.Fprintf(o.out, "# %s: run marked noisy: the calibration loop drifted more than 10%% across it\n", o.workload)
	}
	for _, m := range t.msgs {
		fmt.Fprintf(o.out, "FAILED CHECK: %s\n", m)
	}
	return res, nil
}

func calibDrift(before, after time.Duration) float64 {
	return math.Abs(float64(after-before)) / float64(before)
}

// runTraced is the -trace 1 pass. It splits the run between untraced and
// traced iterations of the named workload (their medians give
// trace.overhead_ratio), fills the other families' slots from probes,
// and runs the ladder.
func runTraced(o options, w workload, t *tally, tr *tracer, out map[string]float64) (simStats, bool, error) {
	calib0 := calibrate()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	sh0 := machine.SharedSolveCacheStats()
	untraced, err := timedLoop(w, t, false, o.seconds*0.3, o.size.minIters)
	if err != nil {
		return simStats{}, false, err
	}
	sh1 := machine.SharedSolveCacheStats()
	runtime.ReadMemStats(&ms1)
	traced, err := timedLoop(w, t, true, o.seconds*0.3, o.size.minIters)
	if err != nil {
		return simStats{}, false, err
	}
	sim, err := w.finish(t)
	if err != nil {
		return simStats{}, false, err
	}
	if err := w.layers(out, untraced); err != nil {
		return simStats{}, false, err
	}
	n := float64(len(untraced))
	out["go.allocs_per_iter"] = float64(ms1.Mallocs-ms0.Mallocs) / n
	out["go.bytes_per_iter"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / n
	out["go.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	out["bench.iter_ms_p50"] = median(untraced)
	out["bench.iter_ms_p90"] = percentile(untraced, 90)
	out["bench.iters_per_s"] = n / (sum(untraced) / 1e3)
	out["trace.overhead_ratio"] = ratio(median(traced), median(untraced)) - 1
	lookups := float64(sh1.Hits - sh0.Hits + sh1.Misses - sh0.Misses)
	out["machine.l2_hit_ratio"] = ratio(float64(sh1.Hits-sh0.Hits), lookups)
	out["machine.l2_evictions_per_iter"] = float64(sh1.Evictions-sh0.Evictions) / n

	// The workload's tracer first (an admission client's links point into
	// it), then the client's, then the ladder node's own.
	ltr := newTracer(tr.epoch)
	tracers := []*tracer{tr}
	if aw, ok := w.(*admitWorkload); ok {
		tracers = append(tracers, aw.ctr)
	}
	tracers = append(tracers, ltr)
	for _, slot := range probeSlots {
		if slot == probeSlot(o.workload) {
			continue
		}
		if err := probe(slot, o, t, out); err != nil {
			return simStats{}, false, fmt.Errorf("probe %s: %w", slot, err)
		}
	}
	if err := ladder(out, o, ltr); err != nil {
		return simStats{}, false, fmt.Errorf("ladder: %w", err)
	}
	drift := calibDrift(calib0, calibrate())
	out["bench.calib_drift"] = drift
	printLadder(o.out, out)
	if o.traceOut != "" {
		if err := writeSpans(o.traceOut, tracers...); err != nil {
			return simStats{}, false, err
		}
	}
	return sim, drift > 0.10, nil
}

// probe measures another family's per-layer metrics with a reduced run
// of its canonical workload, keeping only names the named workload (or
// an earlier probe) has not already measured. Its spans are not kept.
func probe(slot string, o options, t *tally, out map[string]float64) error {
	sz := o.probe
	w, err := newWorkload(slot, o.seed, sz, newTracer(time.Now()))
	if err != nil {
		return err
	}
	defer w.close()
	if err := w.setUp(t); err != nil {
		return err
	}
	var untraced []float64
	for _, traced := range []bool{false, true} {
		for i := 0; i < probeIterations(slot, sz); i++ {
			d, err := w.iterate(t, traced)
			t.check(err == nil, "%s probe: iteration failed: %v", slot, err)
			if err != nil {
				return err
			}
			if !traced {
				untraced = append(untraced, ms(d))
			}
		}
	}
	if _, err := w.finish(t); err != nil {
		return err
	}
	got := map[string]float64{}
	if err := w.layers(got, untraced); err != nil {
		return err
	}
	for k, v := range got {
		if _, have := out[k]; !have {
			out[k] = v
		}
	}
	return nil
}

// probeIterations makes an admission probe serve one whole daemon
// lifetime (an iteration there is a sub-millisecond cycle) and a Fig 12
// probe a single iteration (a third of a second each).
func probeIterations(slot string, sz sizes) int {
	switch slot {
	case "copartd_admit":
		return sz.admitBatch
	case "fig12":
		return 1
	}
	return sz.probeIters
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.Index(line, ":"); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// gitSHA reads the checked-out commit without running git; the driver's
// checkout is not a repository, where it reads "unknown".
func gitSHA() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(s, "ref: "); ok {
		b, err := os.ReadFile(".git/" + ref)
		if err != nil {
			return "unknown"
		}
		s = strings.TrimSpace(string(b))
	}
	return s
}

// printStamp is the environment stamp every report starts with.
func printStamp(o options) {
	workers := 1
	if o.workload == "fig12_par" {
		workers = parWorkers()
	}
	fmt.Fprintf(o.out, "# copart benchmark: workload=%s seed=%d seconds=%g trace=%t\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Fprintf(o.out, "# env: nproc=%d gomaxprocs=%d workers=%d cpu=%q go=%s git=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), workers, cpuModel(), runtime.Version(), gitSHA())
	fmt.Fprintf(o.out, "# sizes: fleet_nodes=%d fleet_periods=%d churn_arrivals=%d fig12_ways=%d admit_cycles_per_daemon=%d replay_cycles=%d; iterations are timed for -seconds, n is printed per workload\n",
		o.size.fleetNodes, fleetPeriods, o.size.churnNodes, o.size.fig12Ways, o.size.admitBatch, o.size.replay)
}

// runAll runs every workload in a child process of its own, untraced
// then traced, `rounds` times interleaved (W1…W6, W1…W6, …) because a
// shared host drifts between minutes; the summary is the median over
// rounds of each (metric, workload) pair.
func runAll(o options, rounds int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	pooled := map[string][]float64{}
	failed := false
	for r := 0; r < rounds; r++ {
		for _, name := range workloadNames() {
			for _, trace := range []string{"0", "1"} {
				cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(o.seed, 10),
					"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", trace)
				cmd.Stderr = os.Stderr
				b, err := cmd.Output()
				os.Stdout.Write(b)
				if err != nil {
					failed = true
					fmt.Fprintf(o.out, "FAILED: %s -trace %s: %v\n", name, trace, err)
					continue
				}
				lines := strings.Split(strings.TrimSpace(string(b)), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					return fmt.Errorf("%s: last line is not a result: %w", name, err)
				}
				for k, v := range res.Metrics {
					pooled[name+" "+k] = append(pooled[name+" "+k], v.Value)
				}
			}
		}
	}
	keys := make([]string, 0, len(pooled))
	for k := range pooled {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(o.out, "# summary: median over %d round(s)\n", rounds)
	for _, k := range keys {
		fmt.Fprintf(o.out, "summary %-60s %16.6g\n", k, median(pooled[k]))
	}
	if failed {
		return fmt.Errorf("at least one workload failed")
	}
	return nil
}

// runSmoke runs every workload untraced and traced at toy sizes in this
// process and returns each result, keyed "workload/trace".
func runSmoke(seed int64, scratch string, out io.Writer) (map[string]result, error) {
	results := map[string]result{}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			o := options{workload: name, seed: seed, seconds: 0, trace: trace, scratch: scratch,
				size: smokeSize, probe: smokeSize, start: time.Now(), out: out}
			res, err := run(o)
			if err != nil {
				return nil, err
			}
			results[fmt.Sprintf("%s/%t", name, trace)] = res
		}
	}
	parallel.SetWorkers(0)
	return results, nil
}

func main() {
	var o options
	var trace, rounds int
	var smoke, probeOnly, spec bool
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" (empty: all, each in a child process)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (7 is held out: do not tune against it)")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "length of the timed region")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics; 0 = end-to-end metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -trace 1, write the spans to this file (JSON) at exit")
	flag.StringVar(&o.scratch, "scratch", ".bench_build", "directory for the files the resctrl layer writes; removed afterwards")
	flag.IntVar(&rounds, "rounds", 1, "without -workload: interleaved rounds over all workloads")
	flag.BoolVar(&smoke, "smoke", false, "run every workload at toy sizes in a few seconds")
	flag.BoolVar(&spec, "spec", false, "print BENCHMARK.json, generated from the metric tables, and exit")
	flag.BoolVar(&probeOnly, "setup-probe", false, "internal: set the workload up, print the seconds it took, exit")
	flag.Parse()
	o.trace = trace != 0
	o.size, o.probe, o.start, o.out = fullSize, probeSize, processStart, os.Stdout

	var err error
	switch {
	case flag.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q", flag.Arg(0))
	case spec:
		err = writeSpec(os.Stdout)
	case probeOnly:
		err = setupProbe(o)
	case smoke:
		var results map[string]result
		results, err = runSmoke(o.seed, o.scratch, os.Stdout)
		for k, r := range results {
			if err == nil && !r.Correct {
				err = fmt.Errorf("%s: %d of %d checks failed", k, r.Failed, r.Attempted)
			}
		}
	case o.workload == "":
		err = runAll(o, rounds)
	default:
		var res result
		res, err = run(o)
		if err == nil {
			line, jerr := json.Marshal(res)
			if jerr != nil {
				err = jerr
			} else {
				fmt.Println(string(line))
			}
			if !res.Correct {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d output checks failed\n", o.workload, res.Failed, res.Attempted)
				os.Exit(1)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
}
