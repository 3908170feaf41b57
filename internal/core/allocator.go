package core

import (
	"fmt"
	"math/rand"

	"repro/internal/membw"
)

// AllocState is the controller's view of the system state S = {s_0 … s_n}:
// per-application LLC way counts and MBA levels (§2.3). Way counts are
// converted to contiguous exclusive CBMs only at the actuation boundary.
type AllocState struct {
	Ways []int
	MBA  []int
}

// Clone deep-copies the state.
func (s AllocState) Clone() AllocState {
	w := make([]int, len(s.Ways))
	m := make([]int, len(s.MBA))
	copy(w, s.Ways)
	copy(m, s.MBA)
	return AllocState{Ways: w, MBA: m}
}

// CopyFrom makes s an element-wise copy of o in place, reusing s's
// backing arrays when their capacity suffices. It is the allocation-free
// alternative to Clone for states that live across control periods (the
// manager's current/best/next states are all reused this way).
//
//copart:noalloc
func (s *AllocState) CopyFrom(o AllocState) {
	if cap(s.Ways) < len(o.Ways) {
		s.Ways = make([]int, len(o.Ways))
	}
	s.Ways = s.Ways[:len(o.Ways)]
	copy(s.Ways, o.Ways)
	if cap(s.MBA) < len(o.MBA) {
		s.MBA = make([]int, len(o.MBA))
	}
	s.MBA = s.MBA[:len(o.MBA)]
	copy(s.MBA, o.MBA)
}

// Equal reports whether two states are identical.
func (s AllocState) Equal(o AllocState) bool {
	if len(s.Ways) != len(o.Ways) || len(s.MBA) != len(o.MBA) {
		return false
	}
	for i := range s.Ways {
		if s.Ways[i] != o.Ways[i] {
			return false
		}
	}
	for i := range s.MBA {
		if s.MBA[i] != o.MBA[i] {
			return false
		}
	}
	return true
}

// Validate checks structural invariants: each application holds at least
// one way, way counts sum to at most totalWays, and MBA levels are legal.
//
//copart:noalloc
func (s AllocState) Validate(totalWays int) error {
	if len(s.Ways) != len(s.MBA) {
		return fmt.Errorf("core: state has %d way entries, %d MBA entries", len(s.Ways), len(s.MBA))
	}
	sum := 0
	for i, w := range s.Ways {
		if w < 1 {
			return fmt.Errorf("core: app %d holds %d ways", i, w)
		}
		sum += w
		if err := membw.ValidateLevel(s.MBA[i]); err != nil {
			return fmt.Errorf("core: app %d: %w", i, err)
		}
	}
	if sum > totalWays {
		return fmt.Errorf("core: %d ways allocated, %d available", sum, totalWays)
	}
	return nil
}

// AppInfo is the classifier output plus the measured slowdown for one
// application, the inputs of Algorithm 2.
type AppInfo struct {
	LLCState State
	MBAState State
	Slowdown float64
}

// resourceType indexes the three "hospitals" of the HR formulation: the
// pools of applications willing to supply LLC ways, MBA steps, or either.
type resourceType int

const (
	resLLC resourceType = iota
	resMBA
	resANY
	numResourceTypes
)

// participant tracks one consumer application through the matching.
// The preference list is a fixed array plus a cursor (never more than
// three entries: a specific pool or two, then ANY), so participants can
// live in a reusable scratch slice without per-consumer allocations.
type participant struct {
	app    int
	prefs  [3]resourceType // preference list, most preferred first
	nprefs int             // number of valid prefs entries
	next   int             // cursor: next preference to try
	// demanded is the consumer's own resource need: resLLC, resMBA, or
	// resANY when it demands both.
	demanded resourceType
}

// AllocatorScratch holds the reusable working set of
// GetNextSystemStateInto: the producer pools, the consumer list, and the
// tentative admissions. A zero value is ready to use; after the first
// few calls the buffers reach steady-state size and every subsequent
// allocation step is allocation-free. A scratch must not be shared
// between concurrent callers.
type AllocatorScratch struct {
	producers [numResourceTypes][]int
	consumers []participant
	admitted  [numResourceTypes][]int // indices into consumers
}

// GetNextSystemState implements Algorithm 2: one step of the
// instability-chaining HR matching between resource producers and
// consumers, returning the next system state.
//
// Producers are applications whose classifier says Supply and that can
// actually give a unit (more than one way; MBA above the minimum).
// Consumers are applications whose classifier says Demand and that can
// absorb a unit. Preference lists follow §5.4.2: a single-resource
// consumer prefers the matching specific pool over the ANY pool (to
// maximize match size); a dual consumer randomizes which specific pool it
// tries first (the paper's deliberate randomness against local optima).
// Hospital preferences are the slowdown order — higher slowdown is served
// first; when a pool is oversubscribed the least-slowed tentative consumer
// is displaced and chains to its next preference.
//
// The returned state is freshly allocated; per-period callers should use
// GetNextSystemStateInto with reused destination and scratch instead.
func GetNextSystemState(cur AllocState, apps []AppInfo, totalWays int, rng *rand.Rand) (AllocState, error) {
	var next AllocState
	var sc AllocatorScratch
	if err := GetNextSystemStateInto(&next, cur, apps, totalWays, rng, &sc); err != nil {
		return AllocState{}, err
	}
	return next, nil
}

// GetNextSystemStateInto is GetNextSystemState writing the next state
// into next (overwritten via CopyFrom, so its backing arrays are reused)
// with all intermediate bookkeeping in sc. It draws from rng in exactly
// the order GetNextSystemState does, so the two are interchangeable
// without disturbing seeded runs. next must not alias cur's slices.
//
//copart:noalloc
func GetNextSystemStateInto(next *AllocState, cur AllocState, apps []AppInfo, totalWays int, rng *rand.Rand, sc *AllocatorScratch) error {
	return getNextSystemStateInto(next, cur, apps, totalWays, rng, sc, false)
}

// getNextSystemStateInto is the matching body with optional input/output
// validation elision. trusted is set only by the manager's period loop,
// where cur is always a state this allocator (or profiling) produced and
// validated already — re-walking every app's way count and MBA level
// twice per control period was measurable at fleet scale. External
// callers stay fully checked.
//
//copart:noalloc
func getNextSystemStateInto(next *AllocState, cur AllocState, apps []AppInfo, totalWays int, rng *rand.Rand, sc *AllocatorScratch, trusted bool) error {
	if len(apps) != len(cur.Ways) {
		return fmt.Errorf("core: %d apps, state for %d", len(apps), len(cur.Ways))
	}
	if !trusted {
		if err := cur.Validate(totalWays); err != nil {
			return err
		}
	}
	if rng == nil {
		return fmt.Errorf("core: nil rng")
	}
	if sc == nil {
		return fmt.Errorf("core: nil allocator scratch")
	}
	next.CopyFrom(cur)
	for t := range sc.producers {
		sc.producers[t] = sc.producers[t][:0]
		sc.admitted[t] = sc.admitted[t][:0]
	}
	sc.consumers = sc.consumers[:0]

	// Build the producer pools (lines 2–5 of Algorithm 2).
	for i, a := range apps {
		canWay := a.LLCState == Supply && cur.Ways[i] > 1
		canMBA := a.MBAState == Supply && cur.MBA[i] > membw.MinLevel
		switch {
		case canWay && canMBA:
			sc.producers[resANY] = append(sc.producers[resANY], i)
		case canWay:
			sc.producers[resLLC] = append(sc.producers[resLLC], i)
		case canMBA:
			sc.producers[resMBA] = append(sc.producers[resMBA], i)
		}
	}

	// Build the consumers with their preference lists (line 6).
	for i, a := range apps {
		wantsLLC := a.LLCState == Demand
		wantsMBA := a.MBAState == Demand && cur.MBA[i] < membw.MaxLevel
		switch {
		case wantsLLC && wantsMBA:
			first, second := resLLC, resMBA
			if rng.Intn(2) == 0 {
				first, second = second, first
			}
			sc.consumers = append(sc.consumers, participant{
				app: i, demanded: resANY,
				prefs: [3]resourceType{first, second, resANY}, nprefs: 3,
			})
		case wantsLLC:
			sc.consumers = append(sc.consumers, participant{
				app: i, demanded: resLLC,
				prefs: [3]resourceType{resLLC, resANY}, nprefs: 2,
			})
		case wantsMBA:
			sc.consumers = append(sc.consumers, participant{
				app: i, demanded: resMBA,
				prefs: [3]resourceType{resMBA, resANY}, nprefs: 2,
			})
		}
	}

	// Step 1 (lines 7–18): tentatively place each consumer, displacing the
	// least-slowed holder when a pool oversubscribes (instability
	// chaining).
	for ci := range sc.consumers {
		cursor := ci
		for {
			c := &sc.consumers[cursor]
			if c.next >= c.nprefs {
				break
			}
			t := c.prefs[c.next]
			c.next++
			sc.admitted[t] = append(sc.admitted[t], cursor)
			if len(sc.admitted[t]) > len(sc.producers[t]) {
				// Displace the tentative consumer with the lowest
				// slowdown — higher slowdowns deserve the resource.
				victimIdx := 0
				for j, cand := range sc.admitted[t] {
					if apps[sc.consumers[cand].app].Slowdown <
						apps[sc.consumers[sc.admitted[t][victimIdx]].app].Slowdown {
						victimIdx = j
					}
				}
				victim := sc.admitted[t][victimIdx]
				sc.admitted[t] = append(sc.admitted[t][:victimIdx], sc.admitted[t][victimIdx+1:]...)
				cursor = victim
				continue
			}
			break
		}
	}

	// Step 2 (lines 19–29): reclaim one unit from the least-slowed
	// producer of each matched pool and grant it to the consumer.
	for t := resLLC; t < numResourceTypes; t++ {
		for _, ci := range sc.admitted[t] {
			c := &sc.consumers[ci]
			var rt resourceType
			switch {
			case t != resANY:
				rt = t
			case c.demanded != resANY:
				rt = c.demanded
			default:
				rt = resLLC
				if rng.Intn(2) == 0 {
					rt = resMBA
				}
			}
			pool := sc.producers[t]
			if len(pool) == 0 {
				// Step 1 guarantees |consumers| ≤ |producers| per pool;
				// an empty pool here is an internal invariant violation.
				return fmt.Errorf("core: pool %d drained with consumers pending", t)
			}
			minIdx := 0
			for j, p := range pool {
				if apps[p].Slowdown < apps[pool[minIdx]].Slowdown {
					minIdx = j
				}
			}
			p := pool[minIdx]
			sc.producers[t] = append(pool[:minIdx], pool[minIdx+1:]...)

			switch rt {
			case resLLC:
				next.Ways[p]--
				next.Ways[c.app]++
			case resMBA:
				next.MBA[p] -= membw.Granularity
				next.MBA[c.app] += membw.Granularity
				if next.MBA[c.app] > membw.MaxLevel {
					next.MBA[c.app] = membw.MaxLevel
				}
			}
		}
	}
	if !trusted {
		// The matching conserves resources by construction (every grant
		// pairs a reclaim, and pool membership enforces the bounds), so
		// the output check is a guard for external callers, not an
		// algorithmic need.
		if err := next.Validate(totalWays); err != nil {
			return fmt.Errorf("core: produced invalid state: %w", err)
		}
	}
	return nil
}

// NeighborState returns a random valid single-unit perturbation of cur:
// either one LLC way moved between two applications or one application's
// MBA level nudged one step. Algorithm 1 uses it to escape repeated
// states (lines 11–14). When no perturbation is possible (single app at
// the boundary), the input state is returned unchanged. The returned
// state is freshly allocated; per-period callers should use
// NeighborStateInto with a reused destination.
func NeighborState(cur AllocState, totalWays int, rng *rand.Rand) (AllocState, error) {
	var next AllocState
	if err := neighborStateInto(&next, cur, totalWays, rng, true, true); err != nil {
		return AllocState{}, err
	}
	return next, nil
}

// NeighborStateInto is NeighborState writing the perturbed state into
// next (overwritten via CopyFrom). It draws from rng in exactly the
// order NeighborState does. next must not alias cur's slices.
//
//copart:noalloc
func NeighborStateInto(next *AllocState, cur AllocState, totalWays int, rng *rand.Rand) error {
	return neighborStateInto(next, cur, totalWays, rng, true, true)
}

// neighborStateInto optionally restricts which resource may be perturbed
// — the CAT-only and MBA-only baselines freeze one axis.
//
//copart:noalloc
func neighborStateInto(next *AllocState, cur AllocState, totalWays int, rng *rand.Rand, allowWays, allowMBA bool) error {
	return neighborStateIntoTrusted(next, cur, totalWays, rng, allowWays, allowMBA, false)
}

// neighborStateIntoTrusted elides the input validation walk for the
// manager's period loop (see getNextSystemStateInto); the perturbation
// itself only ever moves a unit a validated state could spare.
//
//copart:noalloc
func neighborStateIntoTrusted(next *AllocState, cur AllocState, totalWays int, rng *rand.Rand, allowWays, allowMBA, trusted bool) error {
	if !trusted {
		if err := cur.Validate(totalWays); err != nil {
			return err
		}
	}
	if rng == nil {
		return fmt.Errorf("core: nil rng")
	}
	n := len(cur.Ways)
	if n == 0 || (!allowWays && !allowMBA) {
		next.CopyFrom(cur)
		return nil
	}
	const attempts = 64
	for try := 0; try < attempts; try++ {
		move := rng.Intn(3)
		if !allowWays && move == 0 {
			continue
		}
		if !allowMBA && move != 0 {
			continue
		}
		switch move {
		case 0: // move a way
			if n < 2 {
				continue
			}
			from, to := rng.Intn(n), rng.Intn(n)
			if from == to || cur.Ways[from] <= 1 {
				continue
			}
			next.CopyFrom(cur)
			next.Ways[from]--
			next.Ways[to]++
		case 1: // raise an MBA level
			i := rng.Intn(n)
			if cur.MBA[i] >= membw.MaxLevel {
				continue
			}
			next.CopyFrom(cur)
			next.MBA[i] += membw.Granularity
		default: // lower an MBA level
			i := rng.Intn(n)
			if cur.MBA[i] <= membw.MinLevel {
				continue
			}
			next.CopyFrom(cur)
			next.MBA[i] -= membw.Granularity
		}
		return nil
	}
	next.CopyFrom(cur)
	return nil
}
