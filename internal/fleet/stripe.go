package fleet

import (
	"math"
	"slices"
	"time"
)

// Striped telemetry. Before blocks, every period latency went through
// one global atomic ring (65536 slots) and the fleet counters were
// summed from NodeResults in a final O(nodes) pass. The ring had two
// problems at 65536+ nodes: every worker hammered one cache line (the
// ring sequence counter) once per period, and a single large run
// pushed more samples than the ring held, silently windowing the
// percentiles to the most recent 65536 periods — a tail sample, not a
// run sample.
//
// Both are replaced by per-block stripes: each dispatch block (see
// fleet.go) owns a blockStripe holding a deterministic latency sampler
// and the block's share of every fleet counter. A block is executed by
// exactly one worker at a time, so stripe writes are plain stores —
// no atomics, no cross-core line bouncing — and the stripes are folded
// in block order at run end, which keeps every deterministic aggregate
// bit-identical at any worker count (integer sums and maxes over
// per-block values that are themselves worker-count invariant).
//
// Sampling semantics (the fix for the ring's windowing): each stripe
// keeps a systematic sample of its period latencies — every stride-th
// period, stride the smallest power of two under which the stripe's
// push count (known before it runs: its nodes' periods, or their drawn
// lifetimes under churn) fits its buffer. A stripe that pushes more
// all the same doubles its stride whenever the buffer fills, compacting
// to every other kept sample, which preserves the invariant "buf[i] is
// the latency of push index i·stride". The kept set therefore always
// spans the whole run uniformly — between max/2 and max samples evenly
// spaced from first period to last — instead of a rolling window over
// its tail. The fleet-wide percentiles weight each kept sample by its
// stripe's final stride, so a stripe at stride 4 counts each sample four
// periods' worth; they are read from the stripes' own sorted buffers
// (stripesPercentile), never from a concatenation of them. *Which*
// periods are sampled is a pure function of (block bounds, period
// index) — never of timing or worker count — so the sampled population
// is identical at any -parallel setting; only the measured durations
// themselves are nondeterministic.
//
// Unsampled periods skip both fleetClock reads entirely (see runNode),
// so a run reads the clock — a monotonic offset, one nanotime read —
// twice per *kept* sample: no period is timed only for a later
// compaction to discard it.
// Fast-forwarded idle periods (Manager.SkipIdle) advance the sampler
// unsampled in one step: they count in its push index and in Periods,
// but run no timed body, so the kept set covers executed periods only.
//
// Because the stripes are package state, Run and RunChurn must not
// execute concurrently with each other. (They never have: both fan out
// internally, and the pool's warm-reuse design already assumes
// serialized runs.)

// defaultLatSamples is the fleet-wide sample budget, split evenly
// across blocks (perStripeCap). 16384 systematic samples pin the p50/p99
// of a 131072-node run to well under a tenth of a percentile rank —
// the retired 65536-slot ring bought no more accuracy, it just
// windowed to the tail — and every unsampled period skips two clock
// reads, so the smaller budget also quarters the fleet's residual
// syscall traffic on large runs.
const defaultLatSamples = 1 << 14

// latSampler keeps a deterministic systematic sample of a stream of
// period latencies: every stride-th pushed value, stride preset from the
// expected push count, doubling (the kept set halving) on overflow.
type latSampler struct {
	buf    []time.Duration
	stride uint64 // power of two; buf[i] holds push index i·stride
	seen   uint64 // pushes observed (sampled + skipped)
	max    int    // buffer bound for this run
}

// reset starts a new run's stream of an expected pushes values, keeping
// the buffer's capacity. The stride starts where 1-then-doubling would
// end — the smallest power of two with pushes ≤ max·stride.
//
//copart:noalloc
func (s *latSampler) reset(max, pushes int) {
	if max < 2 {
		max = 2
	}
	s.buf = s.buf[:0]
	s.stride = 1
	for pushes > max*int(s.stride) {
		s.stride *= 2
	}
	s.seen = 0
	s.max = max
}

// due reports whether the next push will be kept — callers use it to
// skip the latency measurement (two clock reads) for periods the
// sampler would discard anyway.
//
//copart:noalloc
func (s *latSampler) due() bool { return s.seen%s.stride == 0 }

// skip records one unsampled period.
//
//copart:noalloc
func (s *latSampler) skip() { s.seen++ }

// advance records n unsampled periods at once: fast-forwarded ones,
// which run no timed period body.
//
//copart:noalloc
func (s *latSampler) advance(n int) { s.seen += uint64(n) }

// push records one period latency, keeping it if the current push
// index is a multiple of the stride.
//
//copart:noalloc
func (s *latSampler) push(d time.Duration) {
	if s.seen%s.stride == 0 {
		if len(s.buf) >= s.max {
			s.compact()
		}
		if s.seen%s.stride == 0 { // still due under the possibly-doubled stride
			s.buf = append(s.buf, d) //copart:allocok bounded by max; capacity is retained across runs
		}
	}
	s.seen++
}

// compact halves the kept set to every other sample and doubles the
// stride, preserving the invariant that buf[i] is push index i·stride.
//
//copart:noalloc
func (s *latSampler) compact() {
	half := 0
	for i := 0; i < len(s.buf); i += 2 {
		s.buf[half] = s.buf[i]
		half++
	}
	s.buf = s.buf[:half]
	s.stride *= 2
}

// blockStripe is one dispatch block's private telemetry shard: the
// latency sampler plus the block's share of every fleet counter.
// Exactly one worker owns a stripe at a time (blocks are the dispatch
// unit), so the fields are plain — the merge at run end is the only
// cross-block read, and it happens after the fan-out joins.
type blockStripe struct {
	lo, hi int // node range [lo, hi)
	lat    latSampler

	periods       int
	reprofiles    int
	healthy       int
	degraded      int
	maxFailStreak int
	poolCarries   uint64 // runtimes handed node-to-node without a pool round-trip
}

// reset prepares the stripe for a run over nodes [lo, hi) pushing the
// given number of periods, with the given per-stripe sample bound.
//
//copart:noalloc
func (st *blockStripe) reset(lo, hi, latMax, pushes int) {
	st.lat.reset(latMax, pushes)
	*st = blockStripe{lo: lo, hi: hi, lat: st.lat}
}

// accumulate folds one finished node's deterministic counters into the
// stripe.
//
//copart:noalloc
func (st *blockStripe) accumulate(nr *NodeResult) {
	st.periods += nr.Periods
	st.reprofiles += nr.Reprofiles
	if nr.Phase == phaseDegradedName {
		st.degraded++
	} else {
		st.healthy++
	}
	if nr.FailStreak > st.maxFailStreak {
		st.maxFailStreak = nr.FailStreak
	}
}

// stripes is the package stripe pool, sized per run by growStripes and
// reused across runs (serialized — see the package comment above).
var stripes []blockStripe

// growStripes sizes the stripe pool for nb blocks, retaining existing
// stripes (and their sampler buffers) across runs.
func growStripes(nb int) {
	if cap(stripes) < nb {
		next := make([]blockStripe, nb) //copart:allocok amortized stripe-pool growth; steady state reuses capacity
		copy(next, stripes)
		stripes = next
	}
	stripes = stripes[:nb]
}

// stripesPercentile reads the nearest-rank p-th percentile of the kept
// latencies straight from the stripes' value-sorted buffers, a sample
// weighing its stripe's stride: the least value v at which
// Σ_b stride_b·|{x ∈ buf_b : x ≤ v}| reaches rank ⌈p/100·Σ_b stride_b·|buf_b|⌉.
// That is the sample a weighted nearest-rank scan of the sorted merge of
// all stripes stops on (TestStripesPercentileMatchesMerge), found by
// bisecting the value range — one binary search per stripe per probe —
// with no merge buffer and no second sort.
//
//copart:noalloc
func stripesPercentile(sts []blockStripe, p int) time.Duration {
	lo, hi := time.Duration(math.MaxInt64), time.Duration(math.MinInt64)
	var totalW int64
	for i := range sts {
		if buf := sts[i].lat.buf; len(buf) > 0 {
			lo, hi = min(lo, buf[0]), max(hi, buf[len(buf)-1])
			totalW += int64(len(buf)) * int64(sts[i].lat.stride)
		}
	}
	if totalW == 0 {
		return 0
	}
	rank := max((int64(p)*totalW+99)/100, 1)
	// Invariant: the weight at or below hi reaches rank, below lo it does not.
	for lo < hi {
		mid := lo + time.Duration(uint64(hi-lo)/2)
		var cum int64
		for i := range sts {
			n, _ := slices.BinarySearch(sts[i].lat.buf, mid+1)
			cum += int64(n) * int64(sts[i].lat.stride)
		}
		if cum >= rank {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// sortDurations sorts a latency buffer in place.
//
//copart:noalloc
func sortDurations(s []time.Duration) { slices.Sort(s) }
