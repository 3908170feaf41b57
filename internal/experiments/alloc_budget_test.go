package experiments

import (
	"runtime"
	"testing"

	"repro/internal/parallel"
)

// TestFigure12AllocationBudget pins what one warm Figure 12 run at one
// worker allocates: the paper's headline matrix, seven mixes × five
// policies with the ST oracle, measured after a first run has filled the
// mix cache, the shared solve cache and the pools. With the policies
// scoring on plain machines, which re-solve their solo solves every run,
// it reads 3 131–3 135 allocs / 468 384–468 752 B (go1.24, linux/amd64);
// the budget, set 5 % over an earlier 3 165 / 454 480 B, is 6 % / 2 %
// above that.
// A warm run goes through the solve kernel ~380 times, so one stray
// allocation per solve breaks the budget; 20 % of slack would hide it.
func TestFigure12AllocationBudget(t *testing.T) {
	const maxAllocs, maxBytes = 3324, 477300
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
