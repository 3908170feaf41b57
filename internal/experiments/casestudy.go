package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/fairness"
	"repro/internal/machine"
	"repro/internal/membw"
	"repro/internal/texttab"
	"repro/internal/workloads"
)

// scopedTarget restricts a machine to a subset of its applications so the
// CoPart manager only governs the batch workloads while the envelope
// manager owns the latency-critical reservation (§6.3).
type scopedTarget struct {
	m     *machine.Machine
	names []string
}

func (s scopedTarget) Apps() []string { return append([]string(nil), s.names...) }

func (s scopedTarget) ReadCounters(name string) (machine.Counters, error) {
	return s.m.ReadCounters(name)
}

func (s scopedTarget) SetAllocation(name string, a machine.Alloc) error {
	for _, n := range s.names {
		if n == name {
			return s.m.SetAllocation(name, a)
		}
	}
	return fmt.Errorf("experiments: app %q outside the managed scope", name)
}

func (s scopedTarget) Config() machine.Config { return s.m.Config() }
func (s scopedTarget) Now() time.Duration     { return s.m.Now() }
func (s scopedTarget) Step(dt time.Duration) error {
	return s.m.Step(dt)
}

// LoadPhase is one segment of the case study's load trace.
type LoadPhase struct {
	Until time.Duration // phase is active while now < Until
	RPS   float64
}

// DefaultLoadTrace reproduces Figure 15's load steps: low load, a surge
// at t≈99.4 s, and a return to low load at t≈299.4 s.
func DefaultLoadTrace() []LoadPhase {
	return []LoadPhase{
		{Until: 99*time.Second + 400*time.Millisecond, RPS: 75_000},
		{Until: 299*time.Second + 400*time.Millisecond, RPS: 150_000},
		{Until: 400 * time.Second, RPS: 75_000},
	}
}

// CaseStudySample is one control period of the Figure 15 timeline.
type CaseStudySample struct {
	Time         time.Duration
	LoadRPS      float64
	LCWays       int
	LCMBALevel   int
	P95          time.Duration
	Unfairness   float64 // CoPart across the batch workloads
	EQUnfairness float64 // equal allocation within the same envelope
	Phase        core.Phase
}

// CaseStudyResult is the full Figure 15 run.
type CaseStudyResult struct {
	Samples []CaseStudySample
	// SLOViolations counts periods where the LC workload missed its SLO.
	SLOViolations int
}

// sizeLCReservation finds the cheapest (ways, MBA) allocation whose solo
// performance fraction meets need (with a small headroom), preferring
// fewer ways, then a lower MBA level — the dynamic server resource
// manager of §6.3 (in the style of Heracles).
func sizeLCReservation(m *machine.Machine, lc workloads.LatencyCritical, need float64) (int, int, error) {
	cfg := m.Config()
	solo, err := m.SoloPerf(lc.Model)
	if err != nil {
		return 0, 0, err
	}
	target := need * 1.05 // headroom against interference
	if target > 1 {
		target = 1
	}
	for ways := 1; ways <= cfg.LLCWays; ways++ {
		for level := membw.MinLevel; level <= membw.MaxLevel; level += membw.Granularity {
			cbm := ((uint64(1) << ways) - 1) << uint(cfg.LLCWays-ways)
			perf, err := m.SoloPerfAt(lc.Model, machine.Alloc{CBM: cbm, MBALevel: level})
			if err != nil {
				return 0, 0, err
			}
			if perf.IPS/solo.IPS >= target {
				return ways, level, nil
			}
		}
	}
	return cfg.LLCWays, membw.MaxLevel, nil
}

// CaseStudy runs Figure 15: memcached under a stepped load trace,
// consolidated with the Word Count and Kmeans batch models; a dynamic
// envelope manager sizes the LC reservation per load phase and CoPart
// re-partitions the remainder across the batch workloads.
func CaseStudy(cfg machine.Config, trace []LoadPhase, seed int64) (CaseStudyResult, error) {
	if len(trace) == 0 {
		return CaseStudyResult{}, fmt.Errorf("experiments: empty load trace")
	}
	m, err := machine.New(cfg)
	if err != nil {
		return CaseStudyResult{}, err
	}
	lc := workloads.Memcached(cfg)
	batch := []machine.AppModel{workloads.WordCount(cfg), workloads.Kmeans(cfg)}
	if err := m.AddApp(lc.Model); err != nil {
		return CaseStudyResult{}, err
	}
	batchNames := make([]string, len(batch))
	soloBatch := make([]float64, len(batch))
	for i, b := range batch {
		if err := m.AddApp(b); err != nil {
			return CaseStudyResult{}, err
		}
		batchNames[i] = b.Name
		solo, err := m.SoloPerf(b)
		if err != nil {
			return CaseStudyResult{}, err
		}
		soloBatch[i] = solo.IPS
	}
	lcSolo, err := m.SoloPerf(lc.Model)
	if err != nil {
		return CaseStudyResult{}, err
	}

	target := scopedTarget{m: m, names: batchNames}
	ref, err := workloads.StreamMissRates(m)
	if err != nil {
		return CaseStudyResult{}, err
	}

	applyEnvelope := func(rps float64) (core.Envelope, int, int, error) {
		need, err := lc.MinPerfFraction(rps)
		if err != nil {
			return core.Envelope{}, 0, 0, err
		}
		lcWays, lcLevel, err := sizeLCReservation(m, lc, need)
		if err != nil {
			return core.Envelope{}, 0, 0, err
		}
		if lcWays >= cfg.LLCWays-len(batch) {
			// Keep one way per batch application.
			lcWays = cfg.LLCWays - len(batch)
		}
		cbm := ((uint64(1) << lcWays) - 1) << uint(cfg.LLCWays-lcWays)
		if err := m.SetAllocation(lc.Model.Name, machine.Alloc{CBM: cbm, MBALevel: lcLevel}); err != nil {
			return core.Envelope{}, 0, 0, err
		}
		return core.Envelope{LoWay: 0, Ways: cfg.LLCWays - lcWays}, lcWays, lcLevel, nil
	}

	curLoad := trace[0].RPS
	env, lcWays, lcLevel, err := applyEnvelope(curLoad)
	if err != nil {
		return CaseStudyResult{}, err
	}
	mgr, err := core.NewManager(target, core.DefaultParams(), ref, env,
		rand.New(rand.NewSource(seed)))
	if err != nil {
		return CaseStudyResult{}, err
	}
	if err := mgr.Profile(); err != nil {
		return CaseStudyResult{}, err
	}

	loadAt := func(now time.Duration) float64 {
		for _, ph := range trace {
			if now < ph.Until {
				return ph.RPS
			}
		}
		return trace[len(trace)-1].RPS
	}
	end := trace[len(trace)-1].Until

	var res CaseStudyResult
	for m.Now() < end {
		if rps := loadAt(m.Now()); rps != curLoad {
			curLoad = rps
			env, lcWays, lcLevel, err = applyEnvelope(curLoad)
			if err != nil {
				return CaseStudyResult{}, err
			}
			if err := mgr.SetEnvelope(env); err != nil {
				return CaseStudyResult{}, err
			}
		}
		// Drive one manager step (each advances one control period,
		// except profiling, which runs its probes back to back).
		switch mgr.Phase() {
		case core.PhaseProfile:
			if err := mgr.Profile(); err != nil {
				return CaseStudyResult{}, err
			}
			continue // profiling advanced time; sample on the next loop
		case core.PhaseExplore:
			if _, err := mgr.ExploreStep(); err != nil {
				return CaseStudyResult{}, err
			}
		case core.PhaseIdle:
			if _, err := mgr.IdleStep(); err != nil {
				return CaseStudyResult{}, err
			}
		}

		// Sample the system state at the end of the period.
		perfs, err := m.Solve()
		if err != nil {
			return CaseStudyResult{}, err
		}
		names := m.Apps()
		var lcIPS float64
		slowdowns := make([]float64, 0, len(batch))
		for i, name := range names {
			if name == lc.Model.Name {
				lcIPS = perfs[i].IPS
				continue
			}
			for b, bn := range batchNames {
				if bn == name {
					slowdowns = append(slowdowns, soloBatch[b]/perfs[i].IPS)
				}
			}
		}
		unf, err := fairness.Unfairness(slowdowns)
		if err != nil {
			return CaseStudyResult{}, err
		}
		eqUnf, err := eqWithinEnvelope(m, batch, soloBatch, env, lc.Model, lcWays, lcLevel)
		if err != nil {
			return CaseStudyResult{}, err
		}
		p95 := lc.P95(lcIPS/lcSolo.IPS, curLoad)
		if p95 > lc.SLO {
			res.SLOViolations++
		}
		res.Samples = append(res.Samples, CaseStudySample{
			Time:         m.Now(),
			LoadRPS:      curLoad,
			LCWays:       lcWays,
			LCMBALevel:   lcLevel,
			P95:          p95,
			Unfairness:   unf,
			EQUnfairness: eqUnf,
			Phase:        mgr.Phase(),
		})
	}
	return res, nil
}

// eqWithinEnvelope computes the unfairness the EQ policy would achieve
// for the batch workloads inside the current envelope, with the LC
// reservation in place — Figure 15's comparison line.
func eqWithinEnvelope(m *machine.Machine, batch []machine.AppModel, soloBatch []float64,
	env core.Envelope, lcModel machine.AppModel, lcWays, lcLevel int) (float64, error) {
	cfg := m.Config()
	eq, err := core.EqualAllocs(env, len(batch))
	if err != nil {
		return 0, err
	}
	// The LC app holds an MBA share too: the equal share is over one more app.
	level := core.EqualMBAShare(len(batch) + 1)
	for i := range eq {
		eq[i].MBALevel = level
	}
	models := append([]machine.AppModel{lcModel}, batch...)
	lcCBM := ((uint64(1) << lcWays) - 1) << uint(cfg.LLCWays-lcWays)
	allocs := append([]machine.Alloc{{CBM: lcCBM, MBALevel: lcLevel}}, eq...)
	perfs, err := m.SolveFor(models, allocs)
	if err != nil {
		return 0, err
	}
	slowdowns := make([]float64, len(batch))
	for i := range batch {
		slowdowns[i] = soloBatch[i] / perfs[i+1].IPS
	}
	return fairness.Unfairness(slowdowns)
}

// WriteCaseStudyCSV exports the full timeline as CSV for external
// plotting (Figure 15 is a time-series plot in the paper).
func WriteCaseStudyCSV(w io.Writer, res CaseStudyResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"t_seconds", "load_rps", "lc_ways", "lc_mba",
		"p95_ms", "unfairness", "eq_unfairness", "phase",
	}); err != nil {
		return err
	}
	for _, s := range res.Samples {
		rec := []string{
			strconv.FormatFloat(s.Time.Seconds(), 'f', 1, 64),
			strconv.FormatFloat(s.LoadRPS, 'f', 0, 64),
			strconv.Itoa(s.LCWays),
			strconv.Itoa(s.LCMBALevel),
			strconv.FormatFloat(float64(s.P95.Microseconds())/1000, 'f', 3, 64),
			strconv.FormatFloat(s.Unfairness, 'f', 6, 64),
			strconv.FormatFloat(s.EQUnfairness, 'f', 6, 64),
			s.Phase.String(),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// RenderCaseStudy formats the timeline, downsampled to every nth sample.
func RenderCaseStudy(res CaseStudyResult, every int) *texttab.Table {
	if every < 1 {
		every = 1
	}
	tab := texttab.New("Figure 15. Runtime behavior of CoPart (case study)",
		"t(s)", "load(RPS)", "LC ways", "LC MBA", "p95(ms)", "unfairness", "EQ unfairness", "phase")
	for i, s := range res.Samples {
		if i%every != 0 && i != len(res.Samples)-1 {
			continue
		}
		tab.AddRow(
			fmt.Sprintf("%.1f", s.Time.Seconds()),
			fmt.Sprintf("%.0f", s.LoadRPS),
			fmt.Sprintf("%d", s.LCWays),
			fmt.Sprintf("%d", s.LCMBALevel),
			fmt.Sprintf("%.3f", float64(s.P95.Microseconds())/1000),
			fmt.Sprintf("%.4f", s.Unfairness),
			fmt.Sprintf("%.4f", s.EQUnfairness),
			s.Phase.String(),
		)
	}
	return tab
}
