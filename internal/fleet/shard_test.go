package fleet

import (
	"reflect"
	"testing"
)

// TestShardedAggregationMatchesUnsharded is the striping property test:
// every deterministic output — the NodeResults, the fleet-wide counter
// sums, the health rollup, the carry count, and the structural
// per-block figures — is bit-identical whether the blocks execute on
// one worker or race across many, and identical to a naive recompute
// from the NodeResults themselves. Run under -race this doubles as the
// data-race check over the striped counters.
func TestShardedAggregationMatchesUnsharded(t *testing.T) {
	cfg := Config{Nodes: 48, Periods: 6, Seed: 21, Block: 7} // 7 full blocks + a short one
	base := runAtWorkers(t, 1, cfg)

	// Naive recompute from the per-node results must equal the striped
	// aggregation exactly.
	var periods int
	var health HealthRollup
	for _, nr := range base.Nodes {
		periods += nr.Periods
		if nr.Phase == phaseDegradedName {
			health.Degraded++
		} else {
			health.Healthy++
		}
		if nr.FailStreak > health.MaxFailStreak {
			health.MaxFailStreak = nr.FailStreak
		}
	}
	if base.TotalPeriods != periods {
		t.Errorf("striped TotalPeriods %d, naive %d", base.TotalPeriods, periods)
	}
	if base.Health != health {
		t.Errorf("striped health %+v, naive %+v", base.Health, health)
	}

	// Per-block structure: bounds tile [0, Nodes) and the block period
	// counts sum to the total.
	if base.Block != cfg.Block || len(base.Blocks) != (cfg.Nodes+cfg.Block-1)/cfg.Block {
		t.Fatalf("block structure: size %d, %d blocks", base.Block, len(base.Blocks))
	}
	blockPeriods := 0
	for i, bs := range base.Blocks {
		if bs.Lo != i*cfg.Block || (bs.Hi != bs.Lo+cfg.Block && bs.Hi != cfg.Nodes) {
			t.Errorf("block %d bounds [%d, %d)", i, bs.Lo, bs.Hi)
		}
		if bs.Stride < 1 || bs.Samples < 1 {
			t.Errorf("block %d: stride %d, %d samples", i, bs.Stride, bs.Samples)
		}
		blockPeriods += bs.Periods
	}
	if blockPeriods != base.TotalPeriods {
		t.Errorf("block periods sum %d, total %d", blockPeriods, base.TotalPeriods)
	}

	for _, w := range []int{4, 16} {
		res := runAtWorkers(t, w, cfg)
		if !reflect.DeepEqual(res.Nodes, base.Nodes) {
			t.Fatalf("workers=%d: NodeResults diverge from sequential", w)
		}
		if res.TotalPeriods != base.TotalPeriods ||
			res.Health != base.Health || res.Pool.Carries != base.Pool.Carries {
			t.Errorf("workers=%d: deterministic aggregates diverge from sequential", w)
		}
		if res.Block != base.Block || len(res.Blocks) != len(base.Blocks) {
			t.Fatalf("workers=%d: block structure diverges", w)
		}
		for i := range res.Blocks {
			got, want := res.Blocks[i], base.Blocks[i]
			// The structural fields are deterministic; P50/P99 are
			// wall-clock and excluded.
			if got.Lo != want.Lo || got.Hi != want.Hi || got.Periods != want.Periods ||
				got.Samples != want.Samples || got.Stride != want.Stride {
				t.Errorf("workers=%d block %d: structure %+v, sequential %+v", w, i, got, want)
			}
		}
	}
}

// TestFleetRunIntoReuseMatchesFresh pins that a reused Result is
// indistinguishable from a fresh one — including shrinking: a large run
// followed by a small one into the same Result must not leak the large
// run's nodes or blocks.
func TestFleetRunIntoReuseMatchesFresh(t *testing.T) {
	big := Config{Nodes: 24, Periods: 4, Seed: 9, Block: 5}
	small := Config{Nodes: 6, Periods: 3, Seed: 10, Block: 2}
	var reused Result
	if err := RunInto(big, &reused); err != nil {
		t.Fatal(err)
	}
	if err := RunInto(small, &reused); err != nil {
		t.Fatal(err)
	}
	fresh, err := Run(small)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reused.Nodes, fresh.Nodes) {
		t.Errorf("reused Result nodes diverge from fresh")
	}
	if len(reused.Nodes) != small.Nodes || len(reused.Blocks) != 3 {
		t.Errorf("reused Result kept stale length: %d nodes, %d blocks", len(reused.Nodes), len(reused.Blocks))
	}
	if reused.Health != fresh.Health || reused.TotalPeriods != fresh.TotalPeriods {
		t.Errorf("reused aggregates diverge: %+v vs %+v", reused.Health, fresh.Health)
	}
}
