// Package fairness implements the performance and fairness metrics used
// throughout the CoPart reproduction.
//
// The definitions follow §2.3 of the paper:
//
//   - The slowdown of application i under resource-allocation state s_i is
//     Slowdown_i = IPS_{i,full} / IPS_{i,s_i}   (Equation 1),
//     i.e. how many times slower the application runs compared to having
//     the full machine resources. A slowdown of 1.0 means no degradation;
//     larger is worse.
//
//   - The unfairness of a set of consolidated applications is the
//     coefficient of variation of their slowdowns,
//     Unfairness = σ / μ                        (Equation 2),
//     where μ is the mean slowdown and σ the (population) standard
//     deviation. Lower is better; 0 means perfectly equal slowdowns.
//
// The package also provides the geometric-mean helpers used by the
// evaluation section (Figures 12–14 and 17 aggregate per-mix results with
// geometric means).
package fairness

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoSamples is returned by aggregate functions invoked on empty input.
var ErrNoSamples = errors.New("fairness: no samples")

// Slowdown computes Equation 1 of the paper: ipsFull / ips.
//
// It returns an error when ips is not strictly positive or ipsFull is
// negative, which would make the metric meaningless. An application that
// executes no instructions in a window has no defined slowdown; callers
// should skip such windows rather than feed zeros here.
func Slowdown(ipsFull, ips float64) (float64, error) {
	if ips <= 0 {
		return 0, fmt.Errorf("fairness: non-positive IPS %v", ips)
	}
	if ipsFull < 0 {
		return 0, fmt.Errorf("fairness: negative full-resource IPS %v", ipsFull)
	}
	return ipsFull / ips, nil
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrNoSamples
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// StdDev returns the population standard deviation of xs (the paper's σ).
//
// The population form (divide by n, not n−1) matches the metric's use as a
// descriptive statistic over the complete set of consolidated applications
// rather than a sample estimate.
func StdDev(xs []float64) (float64, error) {
	mu, err := Mean(xs)
	if err != nil {
		return 0, err
	}
	varSum := 0.0
	for _, x := range xs {
		d := x - mu
		varSum += d * d
	}
	return math.Sqrt(varSum / float64(len(xs))), nil
}

// Unfairness computes Equation 2 of the paper: σ/μ over the slowdowns.
//
// A single application is perfectly fair by definition (returns 0).
func Unfairness(slowdowns []float64) (float64, error) {
	if len(slowdowns) == 0 {
		return 0, ErrNoSamples
	}
	for i, s := range slowdowns {
		if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			return 0, fmt.Errorf("fairness: invalid slowdown %v at index %d", s, i)
		}
	}
	mu, err := Mean(slowdowns)
	if err != nil {
		return 0, err
	}
	sigma, err := StdDev(slowdowns)
	if err != nil {
		return 0, err
	}
	if mu == 0 {
		return 0, errors.New("fairness: zero mean slowdown")
	}
	return sigma / mu, nil
}

// GeoMean returns the geometric mean of xs. All inputs must be strictly
// positive. It is computed in log space to avoid overflow on long inputs.
func GeoMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrNoSamples
	}
	logSum := 0.0
	for i, x := range xs {
		if x <= 0 {
			return 0, fmt.Errorf("fairness: non-positive value %v at index %d", x, i)
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs))), nil
}

// Throughput returns the geometric mean of the per-application IPS values,
// the aggregate performance metric of Figure 17.
func Throughput(ips []float64) (float64, error) {
	return GeoMean(ips)
}

// Improvement returns the paper-style "X% higher fairness" figure of merit
// for a policy with unfairness u against a baseline with unfairness base:
// the relative reduction in unfairness, in percent.
//
// Example: base=1.0, u=0.427 → 57.3 (the paper's headline number vs. EQ).
func Improvement(base, u float64) (float64, error) {
	if base <= 0 {
		return 0, fmt.Errorf("fairness: invalid baseline unfairness %v", base)
	}
	return (base - u) / base * 100, nil
}
