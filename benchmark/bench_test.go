package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// TestSmoke runs every workload untraced and traced at toy sizes and
// checks the shape of what comes out: every (metric, workload) pair is
// emitted once, with its unit, and every output check passes — on the
// default seed and on the held-out one, since no check may depend on the
// seed.
func TestSmoke(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		var report bytes.Buffer
		results, err := runSmoke(seed, t.TempDir(), &report)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, report.String())
		}
		if len(results) != 2*len(workloadDefs) {
			t.Fatalf("seed %d: %d results, want %d", seed, len(results), 2*len(workloadDefs))
		}
		for key, res := range results {
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("seed %d %s: correct=%v failed=%d attempted=%d\n%s", seed, key, res.Correct, res.Failed, res.Attempted, report.String())
			}
		}
		for _, w := range workloadDefs {
			checkEmitted(t, w.Name+"/false", results[w.Name+"/false"], endToEnd)
			checkEmitted(t, w.Name+"/true", results[w.Name+"/true"], perLayer)
		}
	}
}

func checkEmitted(t *testing.T, key string, res result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, want %d", key, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]+", d.Name)
		}
		got, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", key, d.Name)
			continue
		}
		if got.Unit != d.Unit || got.Unit == "" {
			t.Errorf("%s: metric %s has unit %q, want %q", key, d.Name, got.Unit, d.Unit)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the tables this
// program emits from equal: same workloads, same metric names, units,
// directions and bounds.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the binary", len(spec.Workloads), len(workloadDefs))
	}
	seen := map[string]bool{}
	for i, w := range workloadDefs {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the binary %q / %q", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.Name, w.Why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || seen[w.Name] {
			t.Errorf("workload %q: bad or repeated name, or a why over 200 characters", w.Name)
		}
		seen[w.Name] = true
	}
	compare := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the binary", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the binary %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25)) {
				t.Errorf("%s %s: bound mismatch (json %v, binary %v)", kind, d.Name, g.Bound, d.Bound)
			}
			if seen[d.Name] {
				t.Errorf("name %q is used twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd, true)
	compare("per_layer", spec.PerLayer, perLayer, false)
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's 128 and 16", len(perLayer), len(endToEnd))
	}
}

// TestTimedTargetIsTransparent: the tracing core.Target must not change
// what the controller does. Same seed, traced against untraced, for a
// single node run to idle and for the copartd wiring under the
// deterministic admission replay: identical core.ReportsDigest.
func TestTimedTargetIsTransparent(t *testing.T) {
	singleNode := func(traced bool) uint64 {
		var wrap func(*machine.Machine) core.Target
		if traced {
			tr := newTracer(processStart)
			wrap = func(m *machine.Machine) core.Target { return newTimedTarget(m, tr) }
		}
		n, err := newNode(machine.DefaultConfig(), core.DefaultParams(), 3, wrap, machine.WithSolveCache())
		if err != nil {
			t.Fatal(err)
		}
		var reports []core.PeriodReport
		n.mgr.OnPeriod = func(r core.PeriodReport) { reports = append(reports, r) }
		if err := n.mgr.Run(120 * core.DefaultParams().Period); err != nil {
			t.Fatal(err)
		}
		if len(reports) < 50 {
			t.Fatalf("only %d reports", len(reports))
		}
		return core.ReportsDigest(reports)
	}
	if a, b := singleNode(false), singleNode(true); a != b {
		t.Errorf("single node: untraced digest %016x, traced %016x", a, b)
	}

	wiring := func(tr *tracer) uint64 {
		d, err := replayAdmission(3, 6, tr)
		if err != nil {
			t.Fatal(err)
		}
		if ok, rejected := d.plane.AdmissionStats(); ok != 18 || rejected != 0 {
			t.Fatalf("replay applied %d and rejected %d operations, want 18 and 0", ok, rejected)
		}
		return core.ReportsDigest(d.reports)
	}
	tr := newTracer(processStart)
	if a, b := wiring(nil), wiring(tr); a != b {
		t.Errorf("copartd wiring: untraced digest %016x, traced %016x", a, b)
	}
	if len(tr.spans) == 0 {
		t.Error("the traced replay recorded no span")
	}
}
