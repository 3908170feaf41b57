package fleet

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// feedSampler drives a sampler the way runNode does: due() decides
// whether the period is measured (push) or not (skip). It returns how
// many periods were measured.
func feedSampler(s *latSampler, n int) (measured int) {
	for i := 0; i < n; i++ {
		if s.due() {
			measured++
			s.push(time.Duration(i))
		} else {
			s.skip()
		}
	}
	return measured
}

// TestLatSamplerSystematicCoverage pins the sampler's invariant — after
// any number of pushes, buf[i] holds push index i·stride — which is
// what makes the kept set span the whole stream uniformly instead of
// windowing to its tail (the retired ring's failure mode).
func TestLatSamplerSystematicCoverage(t *testing.T) {
	for _, tc := range []struct{ n, max int }{
		{1, 8}, {5, 8}, {8, 8}, {9, 8}, {16, 8}, {17, 8}, {100, 8},
		{1000, 16}, {65536, 64}, {3, 2}, {1000, 2},
	} {
		var s latSampler
		s.reset(tc.max, 0) // nothing announced: stride 1, doubling all the way
		feedSampler(&s, tc.n)
		if s.seen != uint64(tc.n) {
			t.Fatalf("n=%d max=%d: seen=%d", tc.n, tc.max, s.seen)
		}
		if s.stride&(s.stride-1) != 0 || s.stride == 0 {
			t.Fatalf("n=%d max=%d: stride %d not a power of two", tc.n, tc.max, s.stride)
		}
		for i, v := range s.buf {
			if want := time.Duration(uint64(i) * s.stride); v != want {
				t.Fatalf("n=%d max=%d: buf[%d]=%d, want push index %d (stride %d)",
					tc.n, tc.max, i, v, want, s.stride)
			}
		}
		// The kept set covers the stream end to end: the last kept index
		// is within one stride of the last push.
		if last := uint64(len(s.buf)-1) * s.stride; tc.n > 0 && uint64(tc.n)-1-last >= s.stride {
			t.Fatalf("n=%d max=%d: last kept index %d leaves a gap > stride %d", tc.n, tc.max, last, s.stride)
		}
		// Past the first compaction the buffer stays at least half full.
		if tc.n > tc.max && len(s.buf) <= tc.max/2 {
			t.Fatalf("n=%d max=%d: only %d samples kept", tc.n, tc.max, len(s.buf))
		}
		if len(s.buf) > tc.max || (tc.max >= 2 && len(s.buf) > tc.max) {
			t.Fatalf("n=%d max=%d: %d samples exceed bound", tc.n, tc.max, len(s.buf))
		}
	}
}

// TestLatSamplerResetKeepsCapacity pins the allocation story: resetting
// for a new run reuses the buffer.
func TestLatSamplerResetKeepsCapacity(t *testing.T) {
	var s latSampler
	s.reset(64, 0)
	feedSampler(&s, 1000)
	c := cap(s.buf)
	s.reset(64, 0)
	if len(s.buf) != 0 || cap(s.buf) != c {
		t.Fatalf("reset: len=%d cap=%d, want 0/%d", len(s.buf), cap(s.buf), c)
	}
	if s.stride != 1 || s.seen != 0 {
		t.Fatalf("reset: stride=%d seen=%d", s.stride, s.seen)
	}
}

// TestLatSamplerPresetStride pins the preset stride against the
// doubling scheme it short-cuts: announcing the push count up front
// keeps exactly the indices (hence the weights) that starting at stride
// 1 and compacting would have ended with, but due() — the gate on the
// two clock reads — fires only for samples that survive.
func TestLatSamplerPresetStride(t *testing.T) {
	for _, max := range []int{2, 7, 8, 512} {
		var ns []int
		for p := max; p <= max<<5; p *= 2 {
			ns = append(ns, p-1, p, p+1)
		}
		for _, n := range append(ns, 1, 3*max+1) {
			var doubled, preset latSampler
			doubled.reset(max, 0)
			feedSampler(&doubled, n)
			preset.reset(max, n)
			due := feedSampler(&preset, n)
			if preset.stride != doubled.stride || !slices.Equal(preset.buf, doubled.buf) {
				t.Fatalf("max=%d n=%d: preset kept %v (stride %d), doubling kept %v (stride %d)",
					max, n, preset.buf, preset.stride, doubled.buf, doubled.stride)
			}
			if due != len(preset.buf) {
				t.Fatalf("max=%d n=%d: due() fired %d times for %d kept samples", max, n, due, len(preset.buf))
			}
		}
	}
	// Pushing past the announced count still lands on the doubling
	// scheme's kept set: compaction is the overflow net.
	var doubled, preset latSampler
	doubled.reset(8, 0)
	feedSampler(&doubled, 100)
	preset.reset(8, 20)
	feedSampler(&preset, 100)
	if preset.stride != doubled.stride || !slices.Equal(preset.buf, doubled.buf) {
		t.Fatalf("overflow: preset kept %v (stride %d), doubling kept %v (stride %d)",
			preset.buf, preset.stride, doubled.buf, doubled.stride)
	}
}

// latSample is one merged latency sample: a kept duration and the
// number of periods it stands for (its stripe's final stride).
type latSample struct {
	v time.Duration
	w int64
}

// weightedPercentile reads the nearest-rank p-th percentile from
// value-sorted weighted samples with total weight totalW. With unit
// weights it reduces exactly to percentile (rank ⌈p/100·n⌉). It is the
// definition of the fleet-wide P50/P99 — a scan of the sorted merge of
// every stripe — and the oracle stripesPercentile is held to.
func weightedPercentile(sorted []latSample, totalW int64, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := (int64(p)*totalW + 99) / 100
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range sorted {
		cum += sorted[i].w
		if cum >= rank {
			return sorted[i].v
		}
	}
	return sorted[len(sorted)-1].v
}

// TestWeightedPercentile pins the oracle's percentile definition: with
// unit weights it is exactly the nearest-rank percentile, and a
// sample's weight counts it that many periods' worth.
func TestWeightedPercentile(t *testing.T) {
	uw := []latSample{{1, 1}, {2, 1}, {3, 1}, {4, 1}}
	plain := []time.Duration{1, 2, 3, 4}
	for _, p := range []int{1, 25, 50, 75, 99, 100} {
		if got, want := weightedPercentile(uw, 4, p), percentile(plain, p); got != want {
			t.Errorf("p%d: weighted %v, nearest-rank %v", p, got, want)
		}
	}
	// One heavy sample dominates: {v:10, w:97} pulls p50 to 10.
	heavy := []latSample{{1, 1}, {2, 1}, {10, 97}, {20, 1}}
	if got := weightedPercentile(heavy, 100, 50); got != 10 {
		t.Errorf("weighted p50 = %v, want 10", got)
	}
	if got := weightedPercentile(heavy, 100, 99); got != 10 {
		t.Errorf("weighted p99 = %v, want 10", got)
	}
	if got := weightedPercentile(heavy, 100, 100); got != 20 {
		t.Errorf("weighted p100 = %v, want 20", got)
	}
	if got := weightedPercentile(nil, 0, 50); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
}

// TestStripesPercentileMatchesMerge holds stripesPercentile — the
// bisection over the sorted stripe buffers that aggregate reads P50 and
// P99 from — to its definition: weightedPercentile over the sorted
// merge of every stripe's samples, each weighted by its stripe's
// stride. Values are drawn from a narrow range around zero so stripes
// share values (within and across buffers), go negative, and collapse
// to a single value; stripes may be empty, all of them included.
func TestStripesPercentileMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 3000; trial++ {
		sts := make([]blockStripe, 1+rng.Intn(6))
		spread := 1 + rng.Intn(9) // 1: every sample equal
		if trial%7 == 0 {
			spread = 1 << 40 // wide: the bisection's full depth
		}
		var merged []latSample
		var totalW int64
		for b := range sts {
			n := rng.Intn(13)
			if trial%50 == 0 {
				n = 0
			}
			w := int64(1 + rng.Intn(8))
			sts[b].lat.stride = uint64(w)
			for i := 0; i < n; i++ {
				v := time.Duration(rng.Intn(spread) - spread/2)
				sts[b].lat.buf = append(sts[b].lat.buf, v)
				merged = append(merged, latSample{v, w})
			}
			slices.Sort(sts[b].lat.buf) // aggregate sorts each stripe first
			totalW += int64(n) * w
		}
		slices.SortFunc(merged, func(a, b latSample) int { return cmp.Compare(a.v, b.v) })
		for _, p := range []int{0, 1, 50, 99, 100} {
			if got, want := stripesPercentile(sts, p), weightedPercentile(merged, totalW, p); got != want {
				t.Fatalf("trial %d p%d: stripes %v, sorted merge %v (%d stripes, %d samples, weight %d)",
					trial, p, got, want, len(sts), len(merged), totalW)
			}
		}
	}
}
