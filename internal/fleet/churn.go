package fleet

import (
	"fmt"
	"slices"

	"repro/internal/machine"
	"repro/internal/trace"
)

// Fleet-over-trace: instead of a fixed population running a fixed
// number of periods, RunChurn drives a *churning* population from
// internal/trace temporal processes — Poisson arrivals, exponential
// lifetimes. Each arriving node draws its own mix (possibly a different
// app count than the runtime it inherits), runs for its drawn lifetime,
// and returns its runtime to the pool for the next arrival to Reuse.
// This is the pool's hostile case: under a fixed fleet every reuse
// pairs identical shapes; under churn a 3-app node's runtime is
// relaunched as a 6-app node and vice versa, which is exactly what
// machine.Reset + Manager.Reuse were built to absorb (pool keyed by
// config fingerprint only — never by mix shape — with per-mix hot-state
// restore via the profile memos preserved).
//
// Determinism: the whole schedule (arrival times, lifetimes) is drawn
// up front from seeded processes, so node i's outcome stays a pure
// function of (ChurnConfig, i) and the deterministic results are
// bit-identical at any worker count and with the pool on or off —
// pinned by TestFleetChurnGolden. The virtual schedule orders the fan
// out (nodes launch in arrival order); wall-clock execution may overlap
// them freely.

// ChurnConfig sizes a churning fleet run.
type ChurnConfig struct {
	// Arrivals is the total number of nodes that arrive over the run.
	Arrivals int
	// Rate is the Poisson arrival rate in nodes per period of virtual
	// time; 0 selects 1.0.
	Rate float64
	// MeanLife is the mean node lifetime in control periods; 0 selects
	// 20. Lifetimes clamp to [MinLife, MaxLife] (defaults 1 and 10×
	// MeanLife).
	MeanLife float64
	MinLife  int
	MaxLife  int
	// Seed derives the arrival/lifetime schedule and every node's
	// workload mix and manager RNG.
	Seed int64
	// Machine configures each node's hardware; the zero value selects
	// machine.DefaultConfig().
	Machine machine.Config
	// Block passes through to the fleet engine (see Config.Block).
	Block int
}

// ChurnStats summarizes the virtual schedule (deterministic).
type ChurnStats struct {
	// PeakLive is the maximum number of simultaneously live nodes in
	// virtual time; MeanLive the time-weighted average over the span
	// from first arrival to last departure.
	PeakLive int
	MeanLive float64
}

// withDefaults resolves the zero-value knobs.
func (c ChurnConfig) withDefaults() ChurnConfig {
	if c.Rate == 0 {
		c.Rate = 1
	}
	if c.MeanLife == 0 {
		c.MeanLife = 20
	}
	if c.MinLife == 0 {
		c.MinLife = 1
	}
	if c.MaxLife == 0 {
		c.MaxLife = int(10 * c.MeanLife)
	}
	return c
}

// Validate checks the configuration (after defaulting).
func (c ChurnConfig) Validate() error {
	if c.Arrivals < 1 {
		return fmt.Errorf("fleet: %d arrivals", c.Arrivals)
	}
	if c.Rate <= 0 {
		return fmt.Errorf("fleet: arrival rate %v", c.Rate)
	}
	if c.MeanLife <= 0 {
		return fmt.Errorf("fleet: mean lifetime %v", c.MeanLife)
	}
	if c.MinLife < 1 || c.MinLife > c.MaxLife {
		return fmt.Errorf("fleet: lifetime clamp [%d, %d]", c.MinLife, c.MaxLife)
	}
	return nil
}

// churnScratch holds the schedule buffers, reused across RunChurn calls
// (serialized like the telemetry stripes — see stripe.go) so a
// steady-state churn run allocates nothing.
var churnScratch struct {
	arrival []float64
	life    []int
	depart  []float64 // sorted departure times for the live-count sweep

	// Cached temporal processes: constructing a process allocates (the
	// struct, its rand.Rand, its source), so repeated runs with the same
	// schedule parameters Reset the cached pair — allocation-free and,
	// because Reset re-seeds, bit-identical to fresh construction.
	ap    *trace.ArrivalProcess
	lp    *trace.LifetimeProcess
	apKey arrivalKey
	lpKey lifetimeKey
}

type arrivalKey struct {
	rate float64
	seed int64
}

type lifetimeKey struct {
	mean     float64
	min, max int
	seed     int64
}

// churnSchedule draws the full arrival/lifetime schedule into the
// reusable scratch. The processes are re-seeded per run (rebuilt only
// when the schedule parameters change), so the schedule is a pure
// function of the config.
func churnSchedule(cfg ChurnConfig) error {
	s := &churnScratch
	// Offset lifetime seed so the two processes never share a stream.
	lseed := cfg.Seed ^ i64(0xA5A5A5A5A5A5A5A5)
	ak := arrivalKey{rate: cfg.Rate, seed: cfg.Seed}
	lk := lifetimeKey{mean: cfg.MeanLife, min: cfg.MinLife, max: cfg.MaxLife, seed: lseed}
	if s.ap == nil || s.apKey != ak {
		ap, err := trace.NewArrivalProcess(cfg.Rate, cfg.Seed)
		if err != nil {
			return err
		}
		s.ap, s.apKey = ap, ak
	} else {
		s.ap.Reset()
	}
	if s.lp == nil || s.lpKey != lk {
		lp, err := trace.NewLifetimeProcess(cfg.MeanLife, cfg.MinLife, cfg.MaxLife, lseed)
		if err != nil {
			return err
		}
		s.lp, s.lpKey = lp, lk
	} else {
		s.lp.Reset()
	}
	ap, lp := s.ap, s.lp
	if cap(s.arrival) < cfg.Arrivals {
		s.arrival = make([]float64, cfg.Arrivals) //copart:allocok amortized schedule growth; steady state reuses capacity
		s.life = make([]int, cfg.Arrivals)        //copart:allocok amortized schedule growth; steady state reuses capacity
		s.depart = make([]float64, cfg.Arrivals)  //copart:allocok amortized schedule growth; steady state reuses capacity
	}
	s.arrival = s.arrival[:cfg.Arrivals]
	s.life = s.life[:cfg.Arrivals]
	s.depart = s.depart[:cfg.Arrivals]
	for i := 0; i < cfg.Arrivals; i++ {
		s.arrival[i] = ap.Next()
		s.life[i] = lp.Next()
		s.depart[i] = s.arrival[i] + float64(s.life[i])
	}
	return nil
}

// churnStats sweeps the virtual schedule for the live-population
// figures. One period of lifetime spans one unit of arrival time, so
// the two processes share a clock.
func churnStats() ChurnStats {
	s := &churnScratch
	n := len(s.arrival)
	if n == 0 {
		return ChurnStats{}
	}
	slices.Sort(s.depart) // arrivals are already sorted (Poisson clock)
	var st ChurnStats
	live := 0
	prev := s.arrival[0]
	var area float64
	ai, di := 0, 0
	for di < n {
		// Next event: arrival ai or departure di, arrivals first on ties
		// (a node that departs exactly when another arrives overlaps it
		// for zero time either way).
		var t float64
		arrive := ai < n && s.arrival[ai] <= s.depart[di]
		if arrive {
			t = s.arrival[ai]
		} else {
			t = s.depart[di]
		}
		area += float64(live) * (t - prev)
		prev = t
		if arrive {
			live++
			ai++
			if live > st.PeakLive {
				st.PeakLive = live
			}
		} else {
			live--
			di++
		}
	}
	if span := prev - s.arrival[0]; span > 0 {
		st.MeanLive = area / span
	}
	return st
}

// RunChurnInto executes a churning fleet into res: cfg.Arrivals nodes
// arrive on the Poisson schedule, each living for its drawn lifetime in
// control periods. Nodes launch in arrival order; a departing node's
// runtime carries to the next arrival in its dispatch block or returns
// to the pool, and the successor reinitializes it in place, whatever
// mix shape it previously ran. A Result passed back in is reused like
// RunInto's, making a steady-state churn driver allocation-free.
func RunChurnInto(cfg ChurnConfig, res *Result) error {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return err
	}
	if err := churnSchedule(cfg); err != nil {
		return err
	}
	// Nodes draw mixes and manager RNG streams exactly like a fixed
	// fleet with the same seed: runNode only needs the per-node period
	// count to differ, and blockRun reads that from the drawn schedule.
	ncfg := Config{
		Nodes: cfg.Arrivals, Periods: 1, Seed: cfg.Seed, Machine: cfg.Machine,
		Block: cfg.Block,
	}
	if err := runFleet(ncfg, true, res); err != nil {
		return err
	}
	res.Churn = churnStats()
	return nil
}

// RunChurn executes a churning fleet into a fresh Result; see
// RunChurnInto for the reusable-Result form.
func RunChurn(cfg ChurnConfig) (Result, error) {
	var res Result
	if err := RunChurnInto(cfg, &res); err != nil {
		return Result{}, err
	}
	return res, nil
}
