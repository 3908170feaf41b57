// Package membw models DRAM bandwidth sharing under Intel Memory Bandwidth
// Allocation (MBA).
//
// MBA is a per-core throttle on the traffic between the L2 and the LLC
// (§2.2 of the paper): each CLOS is assigned a level from 10 % to 100 % in
// steps of 10 %, and lower levels insert delays that cap how much memory
// traffic the CLOS's cores can generate. The DRAM channels behind the LLC
// additionally impose a shared global budget (the paper's machine measures
// ~28 GB/s with STREAM).
//
// The arbiter in this package computes, for a set of applications with
// given traffic demands and MBA levels, the bandwidth each actually
// receives: each demand is first clipped by its MBA cap, and the clipped
// demands then share the global budget max–min fairly (water-filling).
// A congestion factor stretches memory latency when the bus saturates,
// which is what makes *unpartitioned* consolidation unfair in the first
// place.
package membw

import (
	"errors"
	"fmt"
	"math"
)

// MinLevel and MaxLevel bound the MBA levels supported by the hardware,
// and Granularity is the step (Table 1 discussion: 10 %..100 % by 10).
const (
	MinLevel    = 10
	MaxLevel    = 100
	Granularity = 10
)

// ValidateLevel checks that level is a legal MBA setting.
//
//copart:noalloc
func ValidateLevel(level int) error {
	if level < MinLevel || level > MaxLevel || level%Granularity != 0 {
		return fmt.Errorf("membw: invalid MBA level %d (must be %d..%d step %d)",
			level, MinLevel, MaxLevel, Granularity)
	}
	return nil
}

// ClampLevel rounds level to the nearest legal setting.
func ClampLevel(level int) int {
	if level < MinLevel {
		return MinLevel
	}
	if level > MaxLevel {
		return MaxLevel
	}
	// Round to the granularity, ties upward (hardware rounds up requests).
	r := (level + Granularity/2) / Granularity * Granularity
	if r < MinLevel {
		r = MinLevel
	}
	if r > MaxLevel {
		r = MaxLevel
	}
	return r
}

// Config parameterizes the arbiter.
type Config struct {
	// TotalBandwidth is the DRAM budget in bytes/s (the paper: ~28 GB/s).
	TotalBandwidth float64
	// PerCoreCap is the maximum traffic one core can generate at MBA 100 %,
	// in bytes/s. The MBA cap of an application is
	// DefaultCurve(level) × PerCoreCap × cores.
	PerCoreCap float64
	// CongestionK and CongestionP shape the latency-stretch factor
	// 1 + K·ρ^P at bus utilization ρ. Zero K disables congestion.
	CongestionK float64
	CongestionP float64
}

// DefaultCurve maps an MBA level to the fraction of PerCoreCap permitted.
// Real MBA throttling is roughly — but not exactly — linear in the level;
// the curve applies a mild super-linear shape at low levels matching
// published measurements (low levels throttle slightly harder than
// proportionally).
//
//copart:noalloc
func DefaultCurve(level int) float64 {
	f := float64(level) / 100
	// Mild superlinearity: 10 % level delivers ~7 % of peak traffic.
	return math.Pow(f, 1.15)
}

// Validate checks arbiter parameters.
func (c Config) Validate() error {
	if c.TotalBandwidth <= 0 {
		return fmt.Errorf("membw: non-positive total bandwidth %v", c.TotalBandwidth)
	}
	if c.PerCoreCap <= 0 {
		return fmt.Errorf("membw: non-positive per-core cap %v", c.PerCoreCap)
	}
	if c.CongestionK < 0 || c.CongestionP < 0 {
		return fmt.Errorf("membw: negative congestion parameters k=%v p=%v", c.CongestionK, c.CongestionP)
	}
	return nil
}

// Demand describes one application's bandwidth request.
type Demand struct {
	Bytes    float64 // unconstrained traffic demand in bytes/s (≥ 0)
	MBALevel int     // assigned MBA level
	Cores    int     // cores allocated to the application (≥ 1)
}

// Result is the arbiter's outcome for a set of demands.
type Result struct {
	// Grants[i] is the bandwidth application i actually receives.
	Grants []float64
	// Caps[i] is application i's MBA cap (before the shared budget).
	Caps []float64
	// Utilization is Σgrants / TotalBandwidth, in [0, 1].
	Utilization float64
	// Stretch is the congestion latency multiplier, ≥ 1.
	Stretch float64
}

// Arbiter shares the DRAM budget across applications.
//
// An Arbiter is not safe for concurrent use: the allocation-free entry
// points (AllocateInto, AllocateCapped) reuse internal scratch buffers.
// Give each concurrent solver its own Arbiter (machine.Machine does).
type Arbiter struct {
	cfg Config
	// intP is CongestionP when that is an integer in 1…maxIntP, else 0.
	intP int

	// scratch for the allocation-free paths.
	wants  []float64
	caps   []float64
	active []int
}

// New creates an Arbiter.
func New(cfg Config) (*Arbiter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a := &Arbiter{cfg: cfg}
	if p := cfg.CongestionP; 1 <= p && p <= maxIntP && p == math.Trunc(p) { //copart:floateq an exactly integral exponent
		a.intP = int(p)
	}
	return a, nil
}

// maxIntP is the largest CongestionP raised by multiplication, and
// minDirectRho the utilization below which even that takes math.Pow:
// from it up, rho^maxIntP is a normal float64.
const (
	maxIntP      = 8
	minDirectRho = 0x1p-127
)

// rhoPow is math.Pow(rho, CongestionP), bit for bit. For a small integer
// exponent math.Pow multiplies the significand up by right-to-left
// repeated squaring and scales by the exponent at the end; the same
// products taken on rho itself round identically as long as none of them
// is subnormal. A saturated bus (rho clipped to 1) stays with math.Pow,
// which answers 1 before any arithmetic.
//
//copart:noalloc
func (a *Arbiter) rhoPow(rho float64) float64 {
	if a.intP == 0 || rho < minDirectRho || rho >= 1 {
		return math.Pow(rho, a.cfg.CongestionP)
	}
	pow, sq := 1.0, rho
	for p := a.intP; ; sq *= sq {
		if p&1 == 1 {
			pow *= sq
		}
		if p >>= 1; p == 0 {
			return pow
		}
	}
}

// Cap returns the MBA traffic cap for an application with the given level
// and core count.
//
//copart:noalloc
func (a *Arbiter) Cap(level, cores int) (float64, error) {
	if err := ValidateLevel(level); err != nil {
		return 0, err
	}
	if cores < 1 {
		return 0, fmt.Errorf("membw: invalid core count %d", cores)
	}
	return DefaultCurve(level) * a.cfg.PerCoreCap * float64(cores), nil
}

// TotalBandwidth exposes the configured DRAM budget.
func (a *Arbiter) TotalBandwidth() float64 { return a.cfg.TotalBandwidth }

// Allocate runs the arbitration. It returns an error on malformed demands.
func (a *Arbiter) Allocate(demands []Demand) (Result, error) {
	var res Result
	if err := a.AllocateInto(&res, demands); err != nil {
		return Result{}, err
	}
	return res, nil
}

// AllocateInto is Allocate without per-call allocations: res's Grants
// and Caps slices are reused when their capacity suffices, and the
// intermediate buffers live on the Arbiter. The solver's fixed-point
// loop calls this every round.
//
//copart:noalloc
func (a *Arbiter) AllocateInto(res *Result, demands []Demand) error {
	a.caps = resizeFloats(a.caps, len(demands))
	for i, d := range demands {
		cap, err := a.Cap(d.MBALevel, d.Cores)
		if err != nil {
			return fmt.Errorf("membw: demand %d: %w", i, err)
		}
		a.caps[i] = cap
	}
	return a.AllocateCapped(res, demands, a.caps)
}

// AllocateCapped runs the arbitration with precomputed MBA caps:
// caps[i] must be Cap(demands[i].MBALevel, demands[i].Cores). The
// solver precomputes caps once per solve (allocations are fixed across
// fixed-point rounds), which keeps the per-round path free of the
// level→fraction curve evaluation. res.Caps aliases caps on return.
//
//copart:noalloc
func (a *Arbiter) AllocateCapped(res *Result, demands []Demand, caps []float64) error {
	if len(demands) == 0 {
		res.Grants = res.Grants[:0]
		res.Caps = caps
		res.Utilization = 0
		res.Stretch = 1
		return nil
	}
	if len(caps) != len(demands) {
		return fmt.Errorf("membw: %d caps for %d demands", len(caps), len(demands))
	}
	a.wants = resizeFloats(a.wants, len(demands))
	for i, d := range demands {
		// Rejects negative, NaN and ±Inf in two compares.
		if b := d.Bytes; !(b >= 0) || b > math.MaxFloat64 {
			return fmt.Errorf("membw: invalid demand %v at index %d", b, i)
		}
		a.wants[i] = min(d.Bytes, caps[i])
	}
	// waterfillInto accumulates into the grants, so they start at zero.
	res.Grants = resizeFloats(res.Grants, len(demands))
	clear(res.Grants)
	if err := a.waterfillInto(res.Grants, a.wants, a.cfg.TotalBandwidth); err != nil {
		return err
	}
	total := 0.0
	for _, g := range res.Grants {
		total += g
	}
	rho := total / a.cfg.TotalBandwidth
	if rho > 1 {
		rho = 1
	}
	stretch := 1.0
	if a.cfg.CongestionK > 0 {
		stretch = 1 + a.cfg.CongestionK*a.rhoPow(rho)
	}
	res.Caps = caps
	res.Utilization = rho
	res.Stretch = stretch
	return nil
}

// resizeFloats returns s resized to n, reusing its backing array when
// possible; surviving contents are stale, and callers write every slot
// before reading it.
//
//copart:noalloc
func resizeFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// waterfill computes the max–min fair allocation of budget across wants:
// everyone receives min(want, fair share), and capacity freed by
// under-demanding applications is redistributed among the rest.
func waterfill(wants []float64, budget float64) ([]float64, error) {
	grants := make([]float64, len(wants))
	var a Arbiter
	if err := a.waterfillInto(grants, wants, budget); err != nil {
		return nil, err
	}
	return grants, nil
}

// waterfillInto is waterfill writing into a caller-provided grants
// slice (len(grants) == len(wants), zeroed) and reusing the arbiter's
// active-index scratch.
//
//copart:noalloc
func (a *Arbiter) waterfillInto(grants, wants []float64, budget float64) error {
	if budget <= 0 {
		return errors.New("membw: non-positive budget")
	}
	if cap(a.active) < len(wants) {
		a.active = make([]int, 0, len(wants))
	}
	active := a.active[:0]
	for i, w := range wants {
		if w > 0 {
			active = append(active, i)
		}
	}
	remaining := budget
	for len(active) > 0 && remaining > 1e-9 {
		share := remaining / float64(len(active))
		next := active[:0]
		satisfiedAny := false
		for _, i := range active {
			if wants[i]-grants[i] <= share {
				// Fully satisfiable within the fair share.
				remaining -= wants[i] - grants[i]
				grants[i] = wants[i]
				satisfiedAny = true
			} else {
				next = append(next, i)
			}
		}
		active = next
		if !satisfiedAny {
			// Everyone still active wants more than the share: split evenly.
			for _, i := range active {
				grants[i] += share
			}
			remaining = 0
			break
		}
	}
	return nil
}
