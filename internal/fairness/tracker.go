package fairness

import (
	"fmt"
	"math"
)

// Tracker maintains Equation 2 — the coefficient of variation of the
// tracked slowdowns — incrementally: O(1) per slowdown change and O(1)
// per application add/remove, instead of the O(n) multi-pass recompute
// Unfairness performs. A control loop that changes at most one
// allocation per period (CoPart's, and the fairness-oriented clustering
// loops of LFOC/LFOC+) pays only for the slowdowns that actually moved;
// a steady idle period pays nothing but the final σ/μ division.
//
// Internally the tracker keeps Neumaier-compensated running sums of
// d = x − K and d², where K is the first slowdown seen after the
// tracker was (re)started, and derives the population variance in the
// shifted form E[d²] − E[d]². The shift keeps both terms near the
// magnitude of the spread rather than the magnitude of μ², which is
// what makes the subtraction stable when slowdowns cluster; the
// compensation bounds each running sum's error to one ulp of its true
// value independent of the add/remove/update history. The result is
// NOT bit-identical to Unfairness's two-pass Σ(x−μ)²/n: the two differ
// by floating-point rearrangement.
//
// Equivalence contract (pinned by TestTrackerMatchesBatch): for
// slowdowns in [1, 100] and
// populations up to 64 — the whole operating range of the repo, where
// slowdowns are ≥ 1 by Equation 1 and consolidations are small —
//
//	|Tracker.Unfairness() − Unfairness(xs)| ≤ 5e-8
//
// absolutely, across any sequence of Add/Remove/Update operations
// reaching that multiset. The bound is the σ ≈ 0 worst case, where the
// variance subtraction cancels down to rounding noise and the square
// root amplifies it to ~√ε; away from that degenerate point the
// difference is ulp-level.
//
// Vestigial: nothing in the repo scores with it. The manager used it on
// fleet nodes until an ulp of difference was seen to move park-on-best
// ties (DESIGN.md §9); every controller now calls Unfairness. The type
// stays as a tested leaf because the frozen benchmark/ measures it, and
// leaves with fairness.tracker_update_ns in the next benchmark-only PR.
//
// The zero value is an empty tracker, ready for use. Tracker is not
// safe for concurrent use.
type Tracker struct {
	n int
	// k is the shift: the first slowdown seen after the tracker was
	// (re)started. Every sum below is over d = x − k.
	k float64
	// sum/sumC and sumSq/sumSqC are Neumaier pairs: the running value
	// and its accumulated compensation. The true sum is sum + sumC.
	sum, sumC     float64 // Σd
	sumSq, sumSqC float64 // Σd²
}

// neumaierAdd adds x to the compensated pair (sum, comp), returning the
// updated pair. Unlike plain Kahan summation, Neumaier's variant also
// compensates when the addend exceeds the running sum in magnitude,
// which removals (adding a negative term that may dwarf the remainder)
// require.
//
//copart:noalloc
func neumaierAdd(sum, comp, x float64) (float64, float64) {
	t := sum + x
	if math.Abs(sum) >= math.Abs(x) {
		comp += (sum - t) + x
	} else {
		comp += (x - t) + sum
	}
	return t, comp
}

// Reset empties the tracker.
//
//copart:noalloc
func (t *Tracker) Reset() { *t = Tracker{} }

// Len reports the number of tracked slowdowns.
func (t *Tracker) Len() int { return t.n }

// validSlowdown mirrors Unfairness's per-element validation.
//
//copart:noalloc
func validSlowdown(s float64) error {
	if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return fmt.Errorf("fairness: invalid slowdown %v", s)
	}
	return nil
}

// Add tracks a new application's slowdown. O(1).
//
//copart:noalloc
func (t *Tracker) Add(x float64) error {
	if err := validSlowdown(x); err != nil {
		return err
	}
	if t.n == 0 {
		t.k = x
	}
	d := x - t.k
	t.sum, t.sumC = neumaierAdd(t.sum, t.sumC, d)
	t.sumSq, t.sumSqC = neumaierAdd(t.sumSq, t.sumSqC, d*d)
	t.n++
	return nil
}

// Remove untracks a departing application's slowdown, which must be a
// value previously Added (the tracker cannot verify membership; an
// unmatched Remove silently corrupts the sums). O(1).
//
//copart:noalloc
func (t *Tracker) Remove(x float64) error {
	if err := validSlowdown(x); err != nil {
		return err
	}
	if t.n == 0 {
		return ErrNoSamples
	}
	d := x - t.k
	t.sum, t.sumC = neumaierAdd(t.sum, t.sumC, -d)
	t.sumSq, t.sumSqC = neumaierAdd(t.sumSq, t.sumSqC, -(d * d))
	t.n--
	if t.n == 0 {
		// Drop any residual compensation so an emptied tracker is
		// exactly the zero tracker.
		*t = Tracker{}
	}
	return nil
}

// Update replaces one tracked slowdown with a new value — the per-period
// operation for an application whose measured IPS changed. O(1).
//
//copart:noalloc
func (t *Tracker) Update(old, new float64) error {
	if err := validSlowdown(old); err != nil {
		return err
	}
	if err := validSlowdown(new); err != nil {
		return err
	}
	if t.n == 0 {
		return ErrNoSamples
	}
	dOld, dNew := old-t.k, new-t.k
	t.sum, t.sumC = neumaierAdd(t.sum, t.sumC, dNew-dOld)
	t.sumSq, t.sumSqC = neumaierAdd(t.sumSq, t.sumSqC, dNew*dNew-dOld*dOld)
	return nil
}

// Unfairness returns Equation 2 (σ/μ) over the tracked slowdowns. A
// single application is perfectly fair (0); an empty tracker returns
// ErrNoSamples, matching the batch function.
//
//copart:noalloc
func (t *Tracker) Unfairness() (float64, error) {
	if t.n == 0 {
		return 0, ErrNoSamples
	}
	if t.n == 1 {
		// A single application is perfectly fair by definition — exact
		// 0, like the batch path, regardless of any rounding residue
		// the operation history left in the sums.
		return 0, nil
	}
	n := float64(t.n)
	muD := (t.sum + t.sumC) / n // mean of the shifted values
	mu := t.k + muD             // true mean slowdown
	if mu <= 0 {
		// Every tracked value was positive, so a non-positive mean can
		// only arise from unmatched Removes corrupting the sums.
		return 0, fmt.Errorf("fairness: tracker mean %v not positive (unmatched Remove?)", mu)
	}
	// Shift-invariant population variance: Var(x) = E[d²] − E[d]².
	variance := (t.sumSq+t.sumSqC)/n - muD*muD
	if variance < 0 {
		// E[x²] − μ² can round fractionally below zero when the true
		// variance is ~0 (all slowdowns equal); clamp like the batch
		// path's exact 0.
		variance = 0
	}
	return math.Sqrt(variance) / mu, nil
}
