package experiments

import (
	"runtime"
	"testing"

	"repro/internal/parallel"
)

// TestFigure12AllocationBudget pins what one warm Figure 12 run at one
// worker allocates: the paper's headline matrix, seven mixes × five
// policies with the ST oracle, measured after a first run has filled the
// mix cache, the shared solve cache and the pools. It measured 3 931
// allocs / 480 720 B when this test was added; the budget is that plus
// 5 %. A warm run goes through the solve kernel ~380 times, so one stray
// allocation per solve breaks the budget; 20 % of slack would hide it.
func TestFigure12AllocationBudget(t *testing.T) {
	const maxAllocs, maxBytes = 4128, 504800
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(0)
	fig12 := func() {
		if _, _, err := Figure12(cfg(), 1); err != nil {
			t.Fatal(err)
		}
	}
	fig12()
	// One P, as testing.AllocsPerRun does, so no other goroutine
	// allocates inside the window.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fig12()
	runtime.ReadMemStats(&after)
	allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("Figure12: %d allocs, %d B", allocs, bytes)
	if allocs > maxAllocs {
		t.Errorf("Figure12 allocates %d times, budget %d", allocs, maxAllocs)
	}
	if bytes > maxBytes {
		t.Errorf("Figure12 allocates %d B, budget %d B", bytes, maxBytes)
	}
}
