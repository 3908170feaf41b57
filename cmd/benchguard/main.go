// Command benchguard runs the repo's frozen benchmark on a git revision
// (the parent) and on the working tree (the change) in alternating
// pairs, and gives each (workload, end-to-end metric) a verdict.
//
//	go run ./cmd/benchguard [-smoke] REV
//
// REV is extracted with `git archive` and the working tree (tracked files
// as they are on disk plus untracked files that are not ignored) is
// copied, each into a temporary directory removed on exit. The command,
// run length, workloads and metrics come from the working tree's
// BENCHMARK.json. Pair k (k = 1…10) runs every workload at seed k in both
// trees, the parent first in odd pairs: which side runs first can move a
// metric by tens of percent on a shared machine. Per workload it also
// reports whether the per-seed sim digests are identical (a behaviour
// change moves them on purpose, so that is not a failure) and each side's
// failed/attempted ops. Exit status 1: a row regressed, a run printed
// `correct: false`, or the change fails a larger share of ops than the
// parent; 2: a tree could not be extracted or a run could not be made.
// -smoke runs one pair of 1 s runs and gates only on correctness and
// failed ops: one short pair cannot resolve a timing bound.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
)

const (
	pairs        = 10 // seeds 1…10, the held-out seed 7 included
	gainWins     = 9
	smokeSeconds = 1
)

// spec is the part of BENCHMARK.json the runner reads.
type spec struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`
}

// result is one run: its last-line JSON and its sim digest.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
	digest string
}

// The two sides: index 0 is the revision, 1 the working tree.
const parent, change = 0, 1

var sides = [2]string{"parent", "change"}

// samples holds every run: samples[i][side][k-1] is pair k's run of
// workload i.
type samples [][2][]result

func main() {
	smoke := flag.Bool("smoke", false, "one pair of 1 s runs, gated on correctness and failed ops only")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: benchguard [-smoke] REV")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code, err := guard(ctx, os.Stdout, flag.Arg(0), *smoke)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
	}
	os.Exit(code)
}

// guard extracts both trees, runs the pairs, prints the report and
// returns the exit status.
func guard(ctx context.Context, w io.Writer, rev string, smoke bool) (int, error) {
	tmp, err := os.MkdirTemp("", "benchguard-")
	if err != nil {
		return 2, err
	}
	defer os.RemoveAll(tmp)
	dirs := [2]string{filepath.Join(tmp, "parent"), filepath.Join(tmp, "change")}
	if err := extract(ctx, ".", rev, dirs[parent], dirs[change]); err != nil {
		return 2, err
	}
	var sp spec
	raw, err := os.ReadFile(filepath.Join(dirs[change], "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(raw, &sp)
	}
	if err == nil && len(sp.Command) == 0 {
		err = fmt.Errorf("no command")
	}
	if err != nil {
		return 2, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	n, seconds := pairs, sp.RunSeconds
	if smoke {
		n, seconds = 1, smokeSeconds
		fmt.Fprintln(w, "smoke: timing verdicts are printed, not gated")
	}
	fmt.Fprintf(w, "benchguard: %s (parent) vs working tree (change), %d pair(s) of %d s runs\n", rev, n, seconds)
	run := func(s int, workload string, seed int) (result, error) {
		args := append(slices.Clone(sp.Command[1:]), "--workload", workload, "--seed", strconv.Itoa(seed),
			"--seconds", strconv.Itoa(seconds), "--trace", "0")
		cmd := exec.CommandContext(ctx, sp.Command[0], args...)
		cmd.Dir = dirs[s]
		var errOut bytes.Buffer
		cmd.Stderr = &errOut
		out, runErr := cmd.Output() // exit 1 with a result line is a failed check, read below
		r, err := parseRun(out, workload)
		if err != nil {
			return r, fmt.Errorf("%v (%v)\n%s", err, runErr, errOut.String())
		}
		return r, nil
	}
	got, err := runPairs(sp, n, run, os.Stderr)
	if err != nil {
		return 2, err
	}
	return report(w, sp, got, smoke), nil
}

// extract writes rev's tree into revDir and the working tree of the
// repository containing dir into workDir.
func extract(ctx context.Context, dir, rev, revDir, workDir string) error {
	// ls-files lists deleted tracked files too; tar skips them.
	const script = `set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
mkdir -p "$2" "$3"
git archive --format=tar "$1" | tar -xf - -C "$2"
git ls-files -z --cached --others --exclude-standard |
	tar --null --ignore-failed-read -T - -cf - 2>/dev/null | tar -xf - -C "$3"`
	cmd := exec.CommandContext(ctx, "bash", "-c", script, "extract", rev, revDir, workDir)
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("extracting %s and the working tree: %v\n%s", rev, err, out)
	}
	return nil
}

// runPairs runs n pairs of every workload through run, pair k at seed k,
// the parent first in odd pairs.
func runPairs(sp spec, n int, run func(side int, workload string, seed int) (result, error), progress io.Writer) (samples, error) {
	got := make(samples, len(sp.Workloads))
	for k := 1; k <= n; k++ {
		order := [2]int{parent, change}
		if k%2 == 0 {
			order = [2]int{change, parent}
		}
		for i, wl := range sp.Workloads {
			for _, s := range order {
				r, err := run(s, wl.Name, k)
				if err != nil {
					return nil, fmt.Errorf("pair %d, %s, %s: %w", k, wl.Name, sides[s], err)
				}
				got[i][s] = append(got[i][s], r)
				fmt.Fprintf(progress, "pair %d/%d %-14s %s correct=%v\n", k, n, wl.Name, sides[s], r.Correct)
			}
		}
	}
	return got, nil
}

// parseRun reads a run's sim digest line and its last-line JSON result.
func parseRun(out []byte, workload string) (result, error) {
	var r result
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	for _, line := range lines {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "sim_digest" && f[1] == workload {
			r.digest = f[2]
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil || r.Metrics == nil {
		return result{}, fmt.Errorf("no result line in the output (%v)", err)
	}
	return r, nil
}

// quartiles returns the first quartile, median and third quartile of
// xs, interpolated linearly between order statistics.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		lo, hi := s[int(math.Floor(pos))], s[int(math.Ceil(pos))]
		return lo + (pos-math.Floor(pos))*(hi-lo)
	}
	return at(0.25), at(0.5), at(0.75)
}

// beats reports whether a is strictly better than b.
func beats(better string, a, b float64) bool {
	if better == "higher" {
		return a > b
	}
	return a < b
}

// wins counts the pairs the change won; ties count for neither side.
func wins(better string, par, chg []float64) int {
	n := 0
	for k := range par {
		if beats(better, chg[k], par[k]) {
			n++
		}
	}
	return n
}

// verdict judges one row:
//   - regressed: the change's median is worse than the parent's by more
//     than bound × the parent's median (the benchmark's rejection rule);
//   - unresolved: the parent's interquartile spread is wider than the
//     bound, unless every change run beats every parent run;
//   - gain: the change wins ≥ 9 of 10 pairs (ties count for neither) and
//     the medians differ by more than the parent's interquartile spread;
//   - ok: none of these.
func verdict(m metricSpec, par, chg []float64) string {
	q1, pmed, q3 := quartiles(par)
	_, cmed, _ := quartiles(chg)
	bound, gap := m.Bound*math.Abs(pmed), math.Abs(cmed-pmed)
	if beats(m.Better, pmed, cmed) && gap > bound {
		return "regressed"
	}
	worstChg, bestPar := slices.Max(chg), slices.Min(par)
	if m.Better == "higher" {
		worstChg, bestPar = slices.Min(chg), slices.Max(par)
	}
	switch {
	case q3-q1 > bound && !beats(m.Better, worstChg, bestPar):
		return "unresolved"
	case wins(m.Better, par, chg) >= gainWins && beats(m.Better, cmed, pmed) && gap > q3-q1:
		return "gain"
	}
	return "ok"
}

// report prints the metric table and the per-workload digest and ops
// table, and returns the exit status.
func report(w io.Writer, sp spec, got samples, smoke bool) int {
	code := 0
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median\tparent q1–q3\tchange median\tΔ %\twon\tverdict")
	for i, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			var vals [2][]float64
			for s, rs := range got[i] {
				for _, r := range rs {
					vals[s] = append(vals[s], r.Metrics[m.Name].Value)
				}
			}
			q1, pmed, q3 := quartiles(vals[parent])
			_, cmed, _ := quartiles(vals[change])
			v := verdict(m, vals[parent], vals[change])
			if v == "regressed" && !smoke {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g–%.6g\t%.6g\t%+.1f\t%d/%d\t%s\n", wl.Name, m.Name, pmed, q1, q3,
				cmed, 100*(cmed-pmed)/math.Abs(pmed), wins(m.Better, vals[parent], vals[change]), len(vals[parent]), v)
		}
	}
	fmt.Fprintln(tw) // a line without cells ends the first table's columns
	fmt.Fprintln(tw, "workload\tsim digests\tparent failed/attempted\tchange failed/attempted\tall correct")
	for i, wl := range sp.Workloads {
		rs := got[i]
		var failed, attempted [2]int
		correct, differ := "yes", []string{}
		for s := range rs {
			for k, r := range rs[s] {
				failed[s] += r.Failed
				attempted[s] += r.Attempted
				if !r.Correct {
					correct, code = "NO", 1
				}
				if s == change && r.digest != rs[parent][k].digest {
					differ = append(differ, strconv.Itoa(k+1))
				}
			}
		}
		digests := fmt.Sprintf("identical (%d/%d seeds)", len(rs[parent]), len(rs[parent]))
		if len(differ) > 0 {
			digests = "differ at seed " + strings.Join(differ, ",")
		}
		ops := ""
		if failed[change]*attempted[parent] > failed[parent]*attempted[change] { // a larger failed share
			ops, code = " (more failed ops)", 1
		}
		fmt.Fprintf(tw, "%s\t%s\t%d/%d\t%d/%d%s\t%s\n", wl.Name, digests, failed[parent], attempted[parent],
			failed[change], attempted[change], ops, correct)
	}
	tw.Flush()
	return code
}
