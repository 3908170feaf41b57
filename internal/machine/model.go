// Package machine simulates the commodity server of the paper (Table 1):
// a 16-core CPU with a shared way-partitioned LLC (Intel CAT) and per-CLOS
// memory-bandwidth throttles (Intel MBA) in front of a shared DRAM budget.
//
// The simulator is analytic and time-stepped. Each application is described
// by an AppModel — a working-set mixture that yields a miss-ratio curve,
// plus a memory intensity — and the machine solves, at each step, the
// coupled system of
//
//	capacity → miss ratio → unconstrained IPS → bandwidth demand
//	→ arbitration (MBA caps + shared budget + congestion) → achieved IPS,
//
// then advances the simulated performance counters (instructions, LLC
// accesses, LLC misses) that CoPart samples. This reproduces, for the
// controller, exactly the observable surface of the real machine: three
// PMC rates in, (ways, MBA level) out.
//
// Why this substitution is faithful: the controller never sees
// microarchitectural detail — only the response of the three counters to
// its allocations. The model produces the qualitative response surfaces of
// the paper's Figures 1–3 (capacity cliffs for LLC-sensitive applications,
// bandwidth-proportional throughput for streaming applications, and dual
// sensitivity with iso-performance contours for mixed ones), which is the
// entire behavioural contract the paper's mechanisms depend on.
package machine

import (
	"fmt"
	"math"
)

// WSComponent is one component of an application's hot working set.
// Components are listed hottest-first; under a capacity C the components
// are "filled" in order and a partially covered component hits in
// proportion to its coverage (a fractional-LRU approximation, which keeps
// the miss-ratio curve piecewise-linear and monotone).
type WSComponent struct {
	Bytes  float64 // size of the component in bytes
	Weight float64 // fraction of LLC accesses that touch it
	// MLP is the memory-level parallelism of misses to this component:
	// the average number of outstanding misses overlapped. Hot structures
	// are typically dependent (pointer-chasing, MLP≈1) while grid sweeps
	// overlap well. The zero value means 1.
	MLP float64
}

// effectiveMLP returns the component MLP, substituting 1 for zero.
//
//copart:noalloc
func (c WSComponent) effectiveMLP() float64 {
	if c.MLP == 0 {
		return 1
	}
	return c.MLP
}

// AppModel is the analytic description of one application.
type AppModel struct {
	Name  string
	Cores int // dedicated cores (threads are pinned, as in §3.3)

	// CPIBase is cycles/instruction excluding LLC and memory stalls.
	CPIBase float64
	// AccPerInstr is LLC accesses per instruction (post-L2 filtering).
	AccPerInstr float64
	// Hot lists the hot working-set components, hottest first.
	Hot []WSComponent
	// StreamFrac is the fraction of LLC accesses that always miss
	// (streaming traffic with no temporal reuse).
	StreamFrac float64
	// MLP is the memory-level parallelism of the streaming misses: the
	// average number of outstanding misses overlapped. The visible stall
	// per streaming miss is the idle-bus miss cost divided by MLP, which
	// is what lets a streaming application be bandwidth-bound (high
	// demand) rather than latency-bound. The zero value means 1.
	MLP float64
	// Phases optionally make the application time-varying; see
	// ModelPhase. Empty means steady behaviour.
	Phases []ModelPhase
	// Socket is the home socket the application's threads are pinned to.
	// The paper's machine is single-socket (socket 0, the zero value);
	// multi-socket machines treat each socket as an independent LLC and
	// DRAM domain.
	Socket int
}

// EffectiveMLP returns the streaming MLP, substituting 1 for the zero value.
//
//copart:noalloc
func (m AppModel) EffectiveMLP() float64 {
	if m.MLP == 0 {
		return 1
	}
	return m.MLP
}

// Validate checks model consistency: weights and the stream fraction must
// form a probability distribution over accesses.
func (m AppModel) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("machine: app model with empty name")
	}
	if m.Cores < 1 {
		return fmt.Errorf("machine: app %s has %d cores", m.Name, m.Cores)
	}
	if m.CPIBase <= 0 {
		return fmt.Errorf("machine: app %s has non-positive CPIBase %v", m.Name, m.CPIBase)
	}
	if m.AccPerInstr < 0 {
		return fmt.Errorf("machine: app %s has negative AccPerInstr %v", m.Name, m.AccPerInstr)
	}
	if m.StreamFrac < 0 || m.StreamFrac > 1 {
		return fmt.Errorf("machine: app %s has stream fraction %v outside [0,1]", m.Name, m.StreamFrac)
	}
	if m.MLP != 0 && m.MLP < 1 {
		return fmt.Errorf("machine: app %s has MLP %v < 1", m.Name, m.MLP)
	}
	for i, c := range m.Hot {
		if c.MLP != 0 && c.MLP < 1 {
			return fmt.Errorf("machine: app %s hot component %d has MLP %v < 1", m.Name, i, c.MLP)
		}
	}
	if err := validatePhases(m.Name, m.Phases); err != nil {
		return err
	}
	if m.Socket < 0 {
		return fmt.Errorf("machine: app %s on negative socket %d", m.Name, m.Socket)
	}
	total := m.StreamFrac
	for i, c := range m.Hot {
		if c.Bytes <= 0 {
			return fmt.Errorf("machine: app %s hot component %d has size %v", m.Name, i, c.Bytes)
		}
		if c.Weight < 0 {
			return fmt.Errorf("machine: app %s hot component %d has weight %v", m.Name, i, c.Weight)
		}
		total += c.Weight
	}
	if math.Abs(total-1) > 1e-6 {
		return fmt.Errorf("machine: app %s access weights sum to %v, want 1", m.Name, total)
	}
	return nil
}

// MissRatio evaluates the model's miss-ratio curve at an effective LLC
// capacity of capBytes.
func (m AppModel) MissRatio(capBytes float64) float64 {
	mr, _ := m.MissBreakdown(capBytes)
	return mr
}

// MissBreakdown evaluates the miss-ratio curve at capacity capBytes and
// additionally returns the MLP-weighted miss fraction
//
//	Σ_component missFrac_c / MLP_c  +  StreamFrac / MLP_stream,
//
// which, multiplied by the machine's idle-bus miss cost, gives the visible
// memory-stall cycles per LLC access.
//
//copart:noalloc
func (m AppModel) MissBreakdown(capBytes float64) (missRatio, weightedMiss float64) {
	if capBytes < 0 {
		capBytes = 0
	}
	miss := m.StreamFrac
	weighted := m.StreamFrac / m.EffectiveMLP()
	remaining := capBytes
	for _, c := range m.Hot {
		coverage := 0.0
		if remaining > 0 {
			coverage = math.Min(1, remaining/c.Bytes)
			remaining -= math.Min(c.Bytes, remaining)
		}
		frac := c.Weight * (1 - coverage)
		miss += frac
		weighted += frac / c.effectiveMLP()
	}
	if miss < 0 {
		miss = 0
	}
	if miss > 1 {
		miss = 1
	}
	return miss, weighted
}

// Footprint returns the total hot working-set size in bytes, a convenience
// for tests and documentation tables.
func (m AppModel) Footprint() float64 {
	total := 0.0
	for _, c := range m.Hot {
		total += c.Bytes
	}
	return total
}
