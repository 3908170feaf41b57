// Package workloads provides the application models used throughout the
// reproduction: the eleven multithreaded benchmarks of Table 2 (from
// PARSEC, SPLASH-2, and NPB), the STREAM reference, the workload-mix
// builders of the evaluation section, and the latency-critical/batch
// models of the case study.
//
// Substitution note (see DESIGN.md): the paper runs the real benchmark
// binaries; we model each benchmark analytically (internal/machine's
// AppModel) and calibrate the parameters so that
//
//  1. the solo full-resource LLC access and miss rates match Table 2, and
//  2. each model lands in the paper's sensitivity class under the paper's
//     own classification rules (§3.3: ≥15 % degradation from 11→1 ways
//     and/or from MBA 100→10; <1 % on both for the insensitive class).
//
// The calibration tests in catalog_test.go assert both properties.
//
// One documented deviation: FMM's Table 2 rates (6.1×10⁶ accesses/s) are
// too low for any linear CPI model to produce its measured ≥15 % LLC and
// bandwidth sensitivity — memory stalls at that access rate are bounded by
// ~4 % of cycles. We scale FMM's rates by 6× (to 3.7×10⁷/s), preserving
// its miss ratio, its rank as the least memory-intensive LM benchmark,
// and — most importantly — its sensitivity class, which is what the
// controller perceives.
package workloads

import (
	"fmt"

	"repro/internal/machine"
)

// Category is the paper's four-way benchmark classification (§3.3).
type Category int

const (
	// LLCSensitive: ≥15 % degradation when ways drop from 11 to 1.
	LLCSensitive Category = iota
	// BWSensitive: ≥15 % degradation when MBA drops from 100 to 10.
	BWSensitive
	// DualSensitive: both of the above (the paper's "LLC- & memory
	// BW-sensitive", abbreviated LM).
	DualSensitive
	// Insensitive: <1 % degradation on both axes.
	Insensitive
)

// String returns the paper's name for the category.
func (c Category) String() string {
	switch c {
	case LLCSensitive:
		return "LLC-sensitive"
	case BWSensitive:
		return "Memory bandwidth-sensitive"
	case DualSensitive:
		return "LLC- & memory BW-sensitive"
	case Insensitive:
		return "Insensitive"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Spec pairs a calibrated application model with its classification and
// the Table 2 reference rates it was calibrated against.
type Spec struct {
	Model    machine.AppModel
	Category Category
	// Table2AccRate and Table2MissRate are the paper's measured LLC
	// accesses and misses per second (solo, 4 threads, full resources).
	Table2AccRate  float64
	Table2MissRate float64
}

const mb = 1 << 20

// benchDef is the raw calibration input for one benchmark.
type benchDef struct {
	name      string
	category  Category
	cpiBase   float64
	streamMLP float64
	hot       []machine.WSComponent
	accRate   float64 // target LLC accesses/s at full resources, 4 threads
	missRate  float64 // target LLC misses/s (defines the stream fraction)
	paperAcc  float64 // Table 2 value (differs from accRate only for FMM)
	paperMiss float64
}

// defs lists the eleven benchmarks. Hot working-set sizes encode the
// paper's "ways needed for 90 % performance" findings (§4.1): WN, WS, RT
// need 4, 3, 2 ways (8, 6, 4 MB), so their hot sets are sized just under
// those capacities. Stream fractions are fixed by Table 2's miss/access
// ratios. MLP values separate latency-bound hot structures (pointer-heavy,
// MLP 1) from overlapped sweeps. The table is built once and never
// written: build copies every hot slice it hands out, and a daemon's
// admission path resolves a benchmark by name on every request.
var defs = []benchDef{
	{
		name: "WN", category: LLCSensitive, cpiBase: 0.9, streamMLP: 1,
		hot:     []machine.WSComponent{{Bytes: 7.5 * mb, MLP: 1}},
		accRate: 6.91e7, missRate: 2.58e4,
	},
	{
		name: "WS", category: LLCSensitive, cpiBase: 0.9, streamMLP: 1,
		hot:     []machine.WSComponent{{Bytes: 5.5 * mb, MLP: 1}},
		accRate: 4.32e7, missRate: 9.12e5,
	},
	{
		name: "RT", category: LLCSensitive, cpiBase: 1.1, streamMLP: 1,
		hot:     []machine.WSComponent{{Bytes: 3.5 * mb, MLP: 1}},
		accRate: 3.76e7, missRate: 2.16e4,
	},
	{
		name: "OC", category: BWSensitive, cpiBase: 0.8, streamMLP: 12,
		hot:     []machine.WSComponent{{Bytes: 1 * mb, MLP: 4}},
		accRate: 5.19e7, missRate: 4.88e7,
	},
	{
		name: "CG", category: BWSensitive, cpiBase: 0.8, streamMLP: 10,
		hot:     []machine.WSComponent{{Bytes: 1.5 * mb, MLP: 4}},
		accRate: 3.10e8, missRate: 1.12e8,
	},
	{
		name: "FT", category: BWSensitive, cpiBase: 0.7, streamMLP: 2,
		hot:     []machine.WSComponent{{Bytes: 2 * mb, MLP: 4}},
		accRate: 2.45e7, missRate: 2.00e7,
	},
	{
		name: "SP", category: DualSensitive, cpiBase: 0.8, streamMLP: 8,
		hot:     []machine.WSComponent{{Bytes: 12 * mb, MLP: 2}},
		accRate: 1.69e8, missRate: 9.21e7,
	},
	{
		name: "ON", category: DualSensitive, cpiBase: 0.8, streamMLP: 8,
		hot:     []machine.WSComponent{{Bytes: 20 * mb, MLP: 1}},
		accRate: 9.49e7, missRate: 7.89e7,
	},
	{
		// FMM rates scaled 6× from Table 2; see the package comment.
		name: "FMM", category: DualSensitive, cpiBase: 0.9, streamMLP: 2,
		hot:     []machine.WSComponent{{Bytes: 14 * mb, MLP: 1}},
		accRate: 3.67e7, missRate: 2.08e7,
		paperAcc: 6.12e6, paperMiss: 3.47e6,
	},
	{
		name: "SW", category: Insensitive, cpiBase: 0.6, streamMLP: 1,
		hot:     []machine.WSComponent{{Bytes: 0.5 * mb, MLP: 1}},
		accRate: 1.08e4, missRate: 7.98e2,
	},
	{
		name: "EP", category: Insensitive, cpiBase: 0.6, streamMLP: 1,
		hot:     []machine.WSComponent{{Bytes: 1 * mb, MLP: 1}},
		accRate: 7.34e5, missRate: 1.79e4,
	},
}

// DefaultThreads is the thread (= dedicated core) count each Table 2
// benchmark was characterized with (§3.3).
const DefaultThreads = 4

// build calibrates one definition into a model: given the target access
// rate T at full resources on cores c, solve
//
//	T = D·a / (CPIBase + a·k),  D = c·freq,
//	k = hitCost·(1−MR) + missCost·weightedMiss  (full capacity, MBA 100)
//
// for the accesses-per-instruction a = CPIBase·T / (D − T·k). The miss
// ratio at full capacity equals the stream fraction by construction (hot
// sets are sized to fit the LLC).
func build(cfg machine.Config, d benchDef) (Spec, error) {
	if d.accRate <= 0 || d.missRate < 0 || d.missRate > d.accRate {
		return Spec{}, fmt.Errorf("workloads: %s has invalid rate targets acc=%v miss=%v",
			d.name, d.accRate, d.missRate)
	}
	streamFrac := d.missRate / d.accRate
	hotWeight := 1 - streamFrac
	hot := make([]machine.WSComponent, len(d.hot))
	weightTotal := 0.0
	for _, c := range d.hot {
		weightTotal += c.Weight
	}
	for i, c := range d.hot {
		hot[i] = c
		if weightTotal == 0 {
			// Unspecified weights: distribute the hot weight evenly.
			hot[i].Weight = hotWeight / float64(len(d.hot))
		} else {
			hot[i].Weight = hotWeight * c.Weight / weightTotal
		}
	}
	model := machine.AppModel{
		Name:       d.name,
		Cores:      DefaultThreads,
		CPIBase:    d.cpiBase,
		Hot:        hot,
		StreamFrac: streamFrac,
		MLP:        d.streamMLP,
	}
	fullCap := float64(cfg.LLCWays) * cfg.WayBytes
	mr, weighted := model.MissBreakdown(fullCap)
	k := cfg.HitCostCycles*(1-mr) + cfg.MissCostCycles*weighted
	dRate := float64(DefaultThreads) * cfg.FreqHz
	denom := dRate - d.accRate*k
	if denom <= 0 {
		return Spec{}, fmt.Errorf(
			"workloads: %s infeasible: access rate %.3g needs %.3g stall cycles/access against %.3g available",
			d.name, d.accRate, k, dRate)
	}
	model.AccPerInstr = d.cpiBase * d.accRate / denom
	if err := model.Validate(); err != nil {
		return Spec{}, fmt.Errorf("workloads: %s: %w", d.name, err)
	}
	paperAcc, paperMiss := d.paperAcc, d.paperMiss
	if paperAcc == 0 {
		paperAcc, paperMiss = d.accRate, d.missRate
	}
	return Spec{
		Model:          model,
		Category:       d.category,
		Table2AccRate:  paperAcc,
		Table2MissRate: paperMiss,
	}, nil
}

// Catalog returns the eleven Table 2 benchmarks calibrated against cfg,
// in the paper's order.
func Catalog(cfg machine.Config) ([]Spec, error) {
	specs := make([]Spec, len(defs))
	for i, d := range defs {
		s, err := build(cfg, d)
		if err != nil {
			return nil, err
		}
		specs[i] = s
	}
	return specs, nil
}

// ByName returns one calibrated benchmark.
func ByName(cfg machine.Config, name string) (Spec, error) {
	for _, d := range defs {
		if d.name == name {
			return build(cfg, d)
		}
	}
	return Spec{}, fmt.Errorf("workloads: unknown benchmark %q", name)
}

// Names lists the benchmark names in Table 2 order.
func Names() []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	return out
}

// Stream returns the STREAM reference model (§3.3): a maximally
// bandwidth-intensive application with no temporal locality, run on every
// core, used to determine the machine's peak memory traffic at each MBA
// level.
func Stream(cfg machine.Config) machine.AppModel {
	return machine.AppModel{
		Name:        "STREAM",
		Cores:       cfg.Cores,
		CPIBase:     0.5,
		AccPerInstr: 0.06,
		StreamFrac:  1,
		MLP:         16,
	}
}

// StreamMissRates profiles the STREAM reference solo at every MBA level
// (full LLC ways) and returns the miss rate per level — the denominator of
// the memory-traffic ratio used by the bandwidth classifier (§5.3).
func StreamMissRates(m *machine.Machine) (map[int]float64, error) {
	cfg := m.Config()
	model := Stream(cfg)
	out := make(map[int]float64)
	for level := 10; level <= 100; level += 10 {
		perf, err := m.SoloPerfAt(model, machine.Alloc{CBM: cfg.FullMask(), MBALevel: level})
		if err != nil {
			return nil, err
		}
		out[level] = perf.MissRate
	}
	return out, nil
}
