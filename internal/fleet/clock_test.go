package fleet

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/parallel"
)

// TestScriptedClock swaps fleetClock for a deterministic script: every
// read advances time by exactly one tick. With a single worker the
// clock-read order is fixed — Run reads once before and once after the
// fan-out, every sampled period reads twice (at this size every
// stripe's stride is 1, so every period is sampled), and the stripe
// merge reads twice — so the throughput and latency figures stop being
// nondeterministic and can be asserted exactly.
func TestScriptedClock(t *testing.T) {
	const tick = 3 * time.Millisecond
	var reads atomic.Int64
	orig := fleetClock
	fleetClock = func() time.Duration { return time.Duration(reads.Add(1)) * tick }
	parallel.SetWorkers(1)
	defer func() {
		fleetClock = orig
		parallel.SetWorkers(0)
	}()

	cfg := Config{Nodes: 3, Periods: 5, Seed: 11}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// 2 run-bracket reads + 2 per period + 2 bracketing the stripe merge.
	wantReads := int64(2 + 2*cfg.Nodes*cfg.Periods + 2)
	if got := reads.Load(); got != wantReads {
		t.Errorf("clock reads = %d, want %d", got, wantReads)
	}
	// Each period spans exactly one tick between its two reads.
	if res.P50 != tick || res.P99 != tick {
		t.Errorf("P50/P99 = %v/%v, want both %v", res.P50, res.P99, tick)
	}
	// Elapsed spans every read between Run's first read and the read
	// immediately after the fan-out; the merge reads come later.
	wantElapsed := time.Duration(2*cfg.Nodes*cfg.Periods+1) * tick
	if res.Elapsed != wantElapsed {
		t.Errorf("Elapsed = %v, want %v", res.Elapsed, wantElapsed)
	}
	// The merge's two reads bracket exactly one tick.
	if res.StripeMerge != tick {
		t.Errorf("StripeMerge = %v, want %v", res.StripeMerge, tick)
	}
	wantPeriods := cfg.Nodes * cfg.Periods
	if res.TotalPeriods != wantPeriods {
		t.Errorf("TotalPeriods = %d, want %d", res.TotalPeriods, wantPeriods)
	}
	wantRate := float64(wantPeriods) / wantElapsed.Seconds()
	if res.PeriodsPerSec != wantRate {
		t.Errorf("PeriodsPerSec = %v, want %v", res.PeriodsPerSec, wantRate)
	}
}

// TestClockReadsPerRun pins the clock traffic of runs whose stripes
// push more periods than they keep: two reads per *kept* sample plus
// the run and merge brackets. Each stripe's stride is preset from its
// push count, fast-forwarded idle periods included, so nothing is timed
// and later compacted away. A period is kept when it is due under the
// stride and was executed, not fast-forwarded, which pins each block's
// kept count to the exact value below. The runs are long enough that
// two blocks' pushes overflow their halves of the fleet-wide budget
// (defaultLatSamples); fast-forwarding keeps them cheap.
func TestClockReadsPerRun(t *testing.T) {
	var reads atomic.Int64
	orig := fleetClock
	fleetClock = func() time.Duration { return time.Duration(reads.Add(1)) }
	parallel.SetWorkers(1)
	defer func() {
		fleetClock = orig
		parallel.SetWorkers(0)
	}()

	check := func(name string, res Result, wantKept []int) {
		t.Helper()
		kept := 0
		for i, b := range res.Blocks {
			stride := 1
			for b.Periods > perStripeCap(len(res.Blocks))*stride {
				stride *= 2
			}
			if b.Stride != stride || b.Samples != wantKept[i] {
				t.Errorf("%s: block [%d,%d) pushed %d periods, kept %d at stride %d; want %d at stride %d",
					name, b.Lo, b.Hi, b.Periods, b.Samples, b.Stride, wantKept[i], stride)
			}
			kept += b.Samples
		}
		if got := reads.Swap(0); got != int64(4+2*kept) {
			t.Errorf("%s: %d clock reads for %d kept samples, want %d", name, got, kept, 4+2*kept)
		}
	}

	// Two stripes of 8 192 samples, 4 nodes × 5 000 periods each: stride 4.
	res, err := Run(Config{Nodes: 8, Periods: 5000, Seed: 11, Block: 4})
	if err != nil {
		t.Fatal(err)
	}
	check("fixed", res, []int{13, 16})

	// Under churn a stripe's push count is the sum of its nodes' drawn
	// lifetimes.
	res, err = RunChurn(ChurnConfig{Arrivals: 8, MeanLife: 5000, MaxLife: 10000, Seed: 11, Block: 4})
	if err != nil {
		t.Fatal(err)
	}
	check("churn", res, []int{25, 30})
}
