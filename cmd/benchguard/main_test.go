package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{5}, 5, 5, 5},
		{[]float64{2, 1}, 1.25, 1.5, 1.75},
		{[]float64{3, 1, 2}, 1.5, 2, 2.5},
		{[]float64{4, 1, 3, 2, 5}, 2, 3, 4},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 3.25, 5.5, 7.75},
	} {
		q1, med, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || med != tc.med || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", tc.xs, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
	}
}

func TestWins(t *testing.T) {
	par := []float64{10, 10, 10, 10}
	for _, tc := range []struct {
		better string
		chg    []float64
		want   int
	}{
		{"lower", []float64{9, 11, 10, 8}, 2}, // the tie at pair 3 counts for neither
		{"higher", []float64{9, 11, 10, 8}, 1},
		{"lower", []float64{10, 10, 10, 10}, 0},
	} {
		if got := wins(tc.better, par, tc.chg); got != tc.want {
			t.Errorf("wins(%s, %v) = %d, want %d", tc.better, tc.chg, got, tc.want)
		}
	}
}

// spread returns ten runs around median m whose quartiles sit lo and
// hi away from it.
func spread(m, lo, hi float64) []float64 {
	return []float64{m - 2*lo, m - 1.2*lo, m - lo, m - lo, m, m, m + hi, m + hi, m + 1.2*hi, m + 2*hi}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "iter_ms_p10", Better: "lower", Bound: 0.25}
	higher := metricSpec{Name: "rate", Better: "higher", Bound: 0.25}
	tight := spread(100, 1, 1) // interquartile spread 2 %, inside the bound
	wide := spread(100, 20, 20)
	for _, tc := range []struct {
		name     string
		m        metricSpec
		par, chg []float64
		want     string
	}{
		{"identical", lower, tight, tight, "ok"},
		{"worse within the bound", lower, tight, spread(120, 1, 1), "ok"},
		{"worse past the bound", lower, tight, spread(130, 1, 1), "regressed"},
		{"lower past the bound when higher is better", higher, tight, spread(70, 1, 1), "regressed"},
		{"parent spread wider than the bound", lower, wide, spread(98, 20, 20), "unresolved"},
		{"wide spread but a dominant change", lower, wide, spread(30, 1, 1), "gain"},
		{"wide spread, dominant, gap inside the spread", lower,
			[]float64{100, 100, 100, 100, 100, 100, 100, 200, 200, 200}, spread(90, 1, 1), "ok"},
		{"ten wins past the spread", lower, tight, spread(90, 1, 1), "gain"},
		{"ten wins within the spread", lower, tight, spread(99.5, 1, 1), "ok"},
		{"higher is better and rises", higher, tight, spread(110, 1, 1), "gain"},
		{"eight wins", lower, tight, []float64{90, 90, 90, 90, 90, 90, 90, 90, 120, 120}, "ok"},
	} {
		if got := verdict(tc.m, tc.par, tc.chg); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// fakeSpec has one workload and one metric bounded at 25 %.
var fakeSpec = spec{
	Workloads: []struct {
		Name string `json:"name"`
	}{{Name: "w"}},
	EndToEnd: []metricSpec{{Name: "m", Better: "lower", Bound: 0.25}},
}

// runs builds n results of value v, each correct with ops attempted.
func runs(n int, v float64, failed, attempted int, digest string) []result {
	rs := make([]result, n)
	for i := range rs {
		rs[i] = result{Correct: true, Attempted: attempted, Failed: failed, digest: digest}
		rs[i].Metrics = map[string]struct {
			Value float64 `json:"value"`
		}{"m": {Value: v}}
	}
	return rs
}

func TestReportExitStatus(t *testing.T) {
	incorrect := runs(10, 100, 0, 50, "a")
	incorrect[3].Correct = false
	for _, tc := range []struct {
		name     string
		par, chg []result
		smoke    bool
		want     int
	}{
		{"all ok", runs(10, 100, 0, 50, "a"), runs(10, 101, 0, 50, "a"), false, 0},
		{"digests differ", runs(10, 100, 0, 50, "a"), runs(10, 100, 0, 50, "b"), false, 0},
		{"regressed", runs(10, 100, 0, 50, "a"), runs(10, 130, 0, 50, "a"), false, 1},
		{"regressed, smoke", runs(1, 100, 0, 50, "a"), runs(1, 130, 0, 50, "a"), true, 0},
		{"a change run incorrect", runs(10, 100, 0, 50, "a"), incorrect, false, 1},
		{"a parent run incorrect", incorrect, runs(10, 100, 0, 50, "a"), false, 1},
		{"incorrect, smoke", runs(1, 100, 0, 50, "a"), incorrect[3:4], true, 1},
		{"more failed ops", runs(10, 100, 1, 50, "a"), runs(10, 100, 2, 50, "a"), false, 1},
		{"more failed ops, smoke", runs(1, 100, 0, 50, "a"), runs(1, 100, 1, 60, "a"), true, 1},
		{"fewer failed ops", runs(10, 100, 2, 50, "a"), runs(10, 100, 1, 50, "a"), false, 0},
		{"equal failed share", runs(10, 100, 1, 50, "a"), runs(10, 100, 2, 100, "a"), false, 0},
	} {
		var out strings.Builder
		got := report(&out, fakeSpec, samples{{tc.par, tc.chg}}, tc.smoke)
		if got != tc.want {
			t.Errorf("%s: exit %d, want %d\n%s", tc.name, got, tc.want, out.String())
		}
	}
}

func TestReportDigests(t *testing.T) {
	chg := runs(3, 100, 0, 50, "a")
	chg[1].digest = "b"
	var out strings.Builder
	report(&out, fakeSpec, samples{{runs(3, 100, 0, 50, "a"), chg}}, false)
	if !strings.Contains(out.String(), "differ at seed 2") {
		t.Errorf("report does not name the seed whose digest moved:\n%s", out.String())
	}
	out.Reset()
	report(&out, fakeSpec, samples{{runs(3, 100, 0, 50, "a"), runs(3, 100, 0, 50, "a")}}, false)
	if !strings.Contains(out.String(), "identical (3/3 seeds)") {
		t.Errorf("report does not say the digests are identical:\n%s", out.String())
	}
}

// TestRunPairsOrder: pair k runs at seed k, every workload in each pair,
// the side firstSides names first — pinned here, so a rerun repeats its
// order — and each benchmark workload's ten pairs split 5/5 between the
// two orders.
func TestRunPairsOrder(t *testing.T) {
	sp := fakeSpec
	sp.Workloads = append(sp.Workloads, struct {
		Name string `json:"name"`
	}{Name: "v"})
	var calls []string
	run := func(s int, workload string, seed int) (result, error) {
		calls = append(calls, fmt.Sprintf("%d %s %s", seed, workload, sides[s]))
		return runs(1, float64(seed), 0, 1, "d")[0], nil
	}
	got, err := runPairs(sp, 3, run, &strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"1 w parent", "1 w change", "1 v parent", "1 v change",
		"2 w parent", "2 w change", "2 v parent", "2 v change",
		"3 w change", "3 w parent", "3 v change", "3 v parent",
	}
	if strings.Join(calls, "; ") != strings.Join(want, "; ") {
		t.Errorf("calls:\n%s\nwant:\n%s", strings.Join(calls, "\n"), strings.Join(want, "\n"))
	}
	for k, r := range got[1][change] {
		if v := r.Metrics["m"].Value; v != float64(k+1) {
			t.Errorf("change run %d of v holds seed %v's result", k+1, v)
		}
	}
	for _, wl := range []string{"fig12", "fig12_par", "fleet_steady", "fleet_noisy", "fleet_churn", "copartd_admit"} {
		order := firstSides(wl, pairs)
		n := 0
		for _, s := range order {
			n += s
		}
		if n != pairs/2 {
			t.Errorf("%s: the change runs first in %d of %d pairs (%v), want %d", wl, n, pairs, order, pairs/2)
		}
	}
	if got, want := fmt.Sprint(firstSides("fleet_steady", pairs)), "[0 1 1 1 0 0 1 0 1 0]"; got != want {
		t.Errorf("fleet_steady's order %s, want %s", got, want)
	}
}

// TestOrderRatio: with the change 10 % faster and a pair's first run
// 10 % slower, whichever side it is, the order-effect row reads 1.100;
// with neither, 1.000; with one pair, n/a.
func TestOrderRatio(t *testing.T) {
	par, chg := runs(10, 100, 0, 50, "a"), runs(10, 90, 0, 50, "a")
	for k := range par {
		first := [2][]result{par, chg}[firstSides("w", len(par))[k]]
		first[k].Metrics = map[string]struct {
			Value float64 `json:"value"`
		}{"m": {Value: 1.1 * first[k].Metrics["m"].Value}}
	}
	for _, tc := range []struct {
		par, chg []result
		want     string
	}{
		{par, chg, "w         first/second  1.100"},
		{runs(10, 7, 0, 1, "a"), runs(10, 7, 0, 1, "a"), "first/second  1.000"},
		{runs(1, 7, 0, 1, "a"), runs(1, 7, 0, 1, "a"), "first/second  n/a"},
	} {
		var out strings.Builder
		report(&out, fakeSpec, samples{{tc.par, tc.chg}}, false)
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("report has no %q row:\n%s", tc.want, out.String())
		}
	}
}

func TestRunPairsStopsOnError(t *testing.T) {
	run := func(s int, workload string, seed int) (result, error) {
		if seed == 2 {
			return result{}, fmt.Errorf("build failed")
		}
		return runs(1, 1, 0, 1, "d")[0], nil
	}
	if _, err := runPairs(fakeSpec, 3, run, &strings.Builder{}); err == nil || !strings.Contains(err.Error(), "pair 2") {
		t.Fatalf("runPairs error = %v, want one naming pair 2", err)
	}
}

func TestParseRun(t *testing.T) {
	out := "# env nproc=2\nmetric w iter_ms_p10 1.5 ms host\nsim_digest w 00ab\nfailed_ops_ratio w 0/7\n" +
		`{"correct":true,"attempted":7,"failed":0,"metrics":{"iter_ms_p10":{"value":1.5,"unit":"ms"}}}` + "\n"
	r, err := parseRun([]byte(out), "w")
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Attempted != 7 || r.digest != "00ab" || r.Metrics["iter_ms_p10"].Value != 1.5 {
		t.Errorf("parseRun = %+v", r)
	}
	if _, err := parseRun([]byte("go: build failed\n"), "w"); err == nil {
		t.Error("output without a result line parsed")
	}
}

// TestExtract: an uncommitted edit and an untracked file reach the
// working-tree copy and not the revision's; ignored and deleted files
// reach neither.
func TestExtract(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	repo := t.TempDir()
	git := func(args ...string) {
		t.Helper()
		cmd := exec.Command("git", args...)
		cmd.Dir = repo
		cmd.Env = append(os.Environ(), "GIT_AUTHOR_NAME=t", "GIT_AUTHOR_EMAIL=t@t", "GIT_COMMITTER_NAME=t",
			"GIT_COMMITTER_EMAIL=t@t", "GIT_CONFIG_GLOBAL=/dev/null", "GIT_CONFIG_NOSYSTEM=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
	}
	write := func(name, body string) {
		t.Helper()
		path := filepath.Join(repo, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	git("init", "-q")
	write("a.txt", "committed\n")
	write("sub/b.txt", "b\n")
	write("gone.txt", "gone\n")
	write(".gitignore", "ignored.txt\n")
	git("add", "-A")
	git("commit", "-q", "-m", "c")
	write("a.txt", "edited\n")
	write("sub/new.txt", "untracked\n")
	write("ignored.txt", "ignored\n")
	if err := os.Remove(filepath.Join(repo, "gone.txt")); err != nil {
		t.Fatal(err)
	}

	out := t.TempDir()
	revDir, workDir := filepath.Join(out, "rev"), filepath.Join(out, "work")
	if err := extract(context.Background(), filepath.Join(repo, "sub"), "HEAD", revDir, workDir); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		dir, name, want string // want "" means absent
	}{
		{revDir, "a.txt", "committed\n"},
		{revDir, "sub/b.txt", "b\n"},
		{revDir, "gone.txt", "gone\n"},
		{revDir, "sub/new.txt", ""},
		{revDir, "ignored.txt", ""},
		{workDir, "a.txt", "edited\n"},
		{workDir, "sub/b.txt", "b\n"},
		{workDir, "sub/new.txt", "untracked\n"},
		{workDir, "gone.txt", ""},
		{workDir, "ignored.txt", ""},
	} {
		b, err := os.ReadFile(filepath.Join(tc.dir, tc.name))
		switch {
		case tc.want == "" && err == nil:
			t.Errorf("%s: %s present, want absent", filepath.Base(tc.dir), tc.name)
		case tc.want != "" && string(b) != tc.want:
			t.Errorf("%s: %s = %q (%v), want %q", filepath.Base(tc.dir), tc.name, b, err, tc.want)
		}
	}
	if err := extract(context.Background(), repo, "no-such-rev", filepath.Join(out, "x"), filepath.Join(out, "y")); err == nil {
		t.Error("extracting an unknown revision succeeded")
	}
}

// TestRunPairsProgress: each run's progress line names the pair, the
// workload and the side, then its correctness and every end-to-end
// value in BENCHMARK.json order.
func TestRunPairsProgress(t *testing.T) {
	sp := fakeSpec
	sp.EndToEnd = append(sp.EndToEnd, metricSpec{Name: "n", Better: "higher", Bound: 0.1})
	run := func(s int, workload string, seed int) (result, error) {
		r := runs(1, float64(seed)+0.5, 0, 1, "d")[0]
		r.Metrics["n"] = struct {
			Value float64 `json:"value"`
		}{Value: float64(10*seed + s)}
		r.Correct = s == parent
		return r, nil
	}
	var progress strings.Builder
	if _, err := runPairs(sp, 2, run, &progress); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"pair 1/2 w              parent correct=true m=1.5 n=10",
		"pair 1/2 w              change correct=false m=1.5 n=11",
		"pair 2/2 w              change correct=false m=2.5 n=21",
		"pair 2/2 w              parent correct=true m=2.5 n=20",
	}
	if got := strings.TrimSuffix(progress.String(), "\n"); got != strings.Join(want, "\n") {
		t.Errorf("progress:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}
}
