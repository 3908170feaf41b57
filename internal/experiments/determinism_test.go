package experiments

import (
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/parallel"
)

// atWorkers runs fn with the worker pool pinned to n and restores the
// all-cores default afterwards.
func atWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	parallel.SetWorkers(n)
	defer parallel.SetWorkers(0)
	fn()
}

// TestParallelDeterminism pins the engine's core contract: fanning the
// experiment grids across workers must not change a single bit of the
// output, because every cell builds its own machine and RNG and the pool
// only decides when — not how — a cell runs. Each experiment is rendered
// to text and compared byte for byte between one worker and several.
//
// The cases cover every parallel fan-out in this package — the heatmaps'
// and the policy cell engine behind Figures 11–14, 17 and the ablation,
// nested under the sweep points in 13, 14 and 17 — so under `go test
// -race` this test is also the guard against a fan-out closure writing
// shared state outside its own index's slot.
func TestParallelDeterminism(t *testing.T) {
	type run struct {
		rendered string
		result   any
	}
	cases := []struct {
		name string
		fn   func(t *testing.T) run
	}{
		{"Figure12", func(t *testing.T) run {
			res, tab, err := Figure12(cfg(), 1)
			if err != nil {
				t.Fatal(err)
			}
			return run{tab.String(), res}
		}},
		{"PerfHeatmap", func(t *testing.T) run {
			grid, hm, err := PerfHeatmap(cfg(), "CG")
			if err != nil {
				t.Fatal(err)
			}
			return run{hm.String(), grid}
		}},
		{"Figure11", func(t *testing.T) run {
			res, tab, err := Figure11(cfg(), SensTraffic, 1)
			if err != nil {
				t.Fatal(err)
			}
			return run{tab.String(), res}
		}},
		{"Figure13", func(t *testing.T) run {
			res, tab, err := Figure13(cfg(), 1)
			if err != nil {
				t.Fatal(err)
			}
			return run{tab.String(), res}
		}},
		{"Figure14", func(t *testing.T) run {
			res, tab, err := Figure14(cfg(), 1)
			if err != nil {
				t.Fatal(err)
			}
			return run{tab.String(), res}
		}},
		{"Figure17", func(t *testing.T) run {
			res, tab, err := Figure17(cfg(), 1)
			if err != nil {
				t.Fatal(err)
			}
			return run{tab.String(), res}
		}},
		{"Ablations", func(t *testing.T) run {
			res, tab, err := Ablations(cfg(), 1)
			if err != nil {
				t.Fatal(err)
			}
			return run{tab.String(), res}
		}},
		{"FairnessHeatmap", func(t *testing.T) run {
			grid, hm, err := FairnessHeatmap(cfg(), 4)
			if err != nil {
				t.Fatal(err)
			}
			return run{hm.String(), grid}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var seq, par run
			atWorkers(t, 1, func() { seq = tc.fn(t) })
			atWorkers(t, 8, func() { par = tc.fn(t) })
			if seq.rendered != par.rendered {
				t.Errorf("rendered output differs between 1 and 8 workers:\n--- sequential ---\n%s\n--- parallel ---\n%s",
					seq.rendered, par.rendered)
			}
			if !reflect.DeepEqual(seq.result, par.result) {
				t.Errorf("result structs differ between 1 and 8 workers:\nseq: %+v\npar: %+v",
					seq.result, par.result)
			}
		})
	}
}

// TestSharedCacheDeterminism pins the cache contract at the experiment
// level: the process-wide shared solve cache is an exact memo, so
// toggling it — with a warm table left over from other tests, and at
// several worker counts — must not change a single bit of Figure 12.
func TestSharedCacheDeterminism(t *testing.T) {
	figure12 := func() (Fig12Result, string) {
		res, tab, err := Figure12(cfg(), 1)
		if err != nil {
			t.Fatal(err)
		}
		return res, tab.String()
	}
	prev := machine.SharedSolveCacheEnabled()
	defer machine.SetSharedSolveCache(prev)

	machine.SetSharedSolveCache(false)
	baseRes, baseTab := figure12()
	machine.SetSharedSolveCache(true)
	for _, workers := range []int{1, 4} {
		var res Fig12Result
		var tab string
		atWorkers(t, workers, func() { res, tab = figure12() })
		if tab != baseTab {
			t.Errorf("workers=%d: rendered output differs with the shared cache on:\n--- off ---\n%s\n--- on ---\n%s",
				workers, baseTab, tab)
		}
		if !reflect.DeepEqual(res, baseRes) {
			t.Errorf("workers=%d: results differ with the shared cache on", workers)
		}
	}
}
