package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, or 0 for an empty sample. xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// median is the mean of the two middle values for even-sized samples, so
// it matches Python's statistics.median, which the driver applies to the
// values this program prints.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

// ratio is num/den with an empty denominator reading as 0: layer ratios
// such as the L2 hit ratio are undefined on a workload that never
// consults the layer, and JSON has no NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// digest is FNV-1a over 64-bit words: the sim_digest every output check
// compares. Floats enter by bit pattern, so two digests are equal only
// when every simulated statistic is bit-identical.
type digest uint64

const (
	fnvOffset digest = 14695981039346656037
	fnvPrime  digest = 1099511628211
)

func newDigest() digest { return fnvOffset }

func (d *digest) word(w uint64) {
	h := *d
	for i := 0; i < 8; i++ {
		h ^= digest(w & 0xff)
		h *= fnvPrime
		w >>= 8
	}
	*d = h
}

func (d *digest) float(f float64) { d.word(math.Float64bits(f)) }

func (d *digest) str(s string) {
	h := *d
	for i := 0; i < len(s); i++ {
		h ^= digest(s[i])
		h *= fnvPrime
	}
	*d = h
	d.word(uint64(len(s)))
}

// timeBatched times fn in `batches` batches of `per` back-to-back calls
// and returns the median batch's nanoseconds per call. Batching keeps the
// two clock reads (tens of ns each) out of sub-microsecond measurements;
// the median over batches drops the ones a scheduler hiccup landed in.
func timeBatched(batches, per int, fn func()) float64 {
	out := make([]float64, batches)
	for b := range out {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			fn()
		}
		out[b] = float64(time.Since(t0).Nanoseconds()) / float64(per)
	}
	return median(out)
}

// timeEach times n single calls of fn, running prep (untimed) before each,
// and returns the median in nanoseconds. For microsecond-scale operations
// that need their input rebuilt between calls.
func timeEach(n int, prep, fn func()) float64 {
	out := make([]float64, n)
	for i := range out {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		fn()
		out[i] = float64(time.Since(t0).Nanoseconds())
	}
	return median(out)
}
