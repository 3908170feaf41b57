package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/fairness"
	"repro/internal/machine"
	"repro/internal/texttab"
	"repro/internal/workloads"
)

// DualSocketResult is the outcome of the two-socket extension experiment:
// one CoPart manager per socket, each converging independently on its own
// LLC and bandwidth domain.
type DualSocketResult struct {
	// Unfairness[socket] is the converged per-socket unfairness.
	Unfairness []float64
	// EQUnfairness[socket] is the equal-allocation comparison.
	EQUnfairness []float64
	// Mix[socket] names the workload mix run on each socket.
	Mix []workloads.MixKind
}

// DualSocket consolidates a different workload mix on each socket of a
// two-socket machine and runs one CoPart manager per socket — the
// deployment shape for multi-socket servers (each socket is an
// independent CAT/MBA domain in resctrl, so controllers do not interact).
func DualSocket(cfg machine.Config, seed int64) (DualSocketResult, *texttab.Table, error) {
	cfg.Sockets = 2
	m, err := machine.New(cfg)
	if err != nil {
		return DualSocketResult{}, nil, err
	}
	res := DualSocketResult{
		Mix: []workloads.MixKind{workloads.HLLC, workloads.HBW},
	}
	var perSocket [][]string
	solo := map[string]float64{}
	for socket, kind := range res.Mix {
		models, err := workloads.Mix(cfg, kind, 4)
		if err != nil {
			return DualSocketResult{}, nil, err
		}
		var names []string
		for _, model := range models {
			model.Socket = socket
			model.Name = fmt.Sprintf("s%d/%s", socket, model.Name)
			if err := m.AddApp(model); err != nil {
				return DualSocketResult{}, nil, err
			}
			p, err := m.SoloPerf(model)
			if err != nil {
				return DualSocketResult{}, nil, err
			}
			solo[model.Name] = p.IPS
			names = append(names, model.Name)
		}
		perSocket = append(perSocket, names)
	}
	ref, err := workloads.StreamMissRates(m)
	if err != nil {
		return DualSocketResult{}, nil, err
	}

	// One manager per socket over a scoped view of the machine. The
	// managers interleave: each drives its own control periods, and the
	// other socket's applications simply keep running (time is global).
	managers := make([]*core.Manager, len(perSocket))
	for socket, names := range perSocket {
		mgr, err := core.NewManager(
			scopedTarget{m: m, names: names},
			core.DefaultParams(), ref,
			core.Envelope{LoWay: 0, Ways: cfg.LLCWays},
			rand.New(rand.NewSource(seed+int64(socket))),
		)
		if err != nil {
			return DualSocketResult{}, nil, err
		}
		managers[socket] = mgr
		if err := mgr.Profile(); err != nil {
			return DualSocketResult{}, nil, err
		}
	}
	// Round-robin the exploration (in production each manager has its own
	// control thread; virtual time is shared here, which only means each
	// sees the other's periods pass — harmless, as the domains are
	// isolated).
	for iter := 0; iter < 300; iter++ {
		allIdle := true
		for _, mgr := range managers {
			if mgr.Phase() != core.PhaseExplore {
				continue
			}
			allIdle = false
			if _, err := mgr.ExploreStep(); err != nil {
				return DualSocketResult{}, nil, err
			}
		}
		if allIdle {
			break
		}
	}

	// Score each socket at its converged allocation.
	perfs, err := m.Solve()
	if err != nil {
		return DualSocketResult{}, nil, err
	}
	byName := map[string]machine.Perf{}
	for i, name := range m.Apps() {
		byName[name] = perfs[i]
	}
	tab := texttab.New("Dual-socket extension: per-socket CoPart controllers",
		"socket", "mix", "CoPart unfairness", "EQ unfairness", "converged")
	for socket, names := range perSocket {
		slowdowns := make([]float64, len(names))
		for i, n := range names {
			slowdowns[i] = solo[n] / byName[n].IPS
		}
		u, err := fairness.Unfairness(slowdowns)
		if err != nil {
			return DualSocketResult{}, nil, err
		}
		res.Unfairness = append(res.Unfairness, u)
		eqU, err := dualSocketEQ(m, cfg, names, solo)
		if err != nil {
			return DualSocketResult{}, nil, err
		}
		res.EQUnfairness = append(res.EQUnfairness, eqU)
		tab.AddRow(fmt.Sprintf("%d", socket), res.Mix[socket].String(),
			fmt.Sprintf("%.4f", u), fmt.Sprintf("%.4f", eqU),
			fmt.Sprintf("%v", managers[socket].Phase() == core.PhaseIdle))
	}
	return res, tab, nil
}

// dualSocketEQ computes the EQ outcome for one socket's applications with
// the other socket left at its converged allocation.
func dualSocketEQ(m *machine.Machine, cfg machine.Config, names []string, solo map[string]float64) (float64, error) {
	allocs, err := core.EqualAllocs(core.Envelope{Ways: cfg.LLCWays}, len(names))
	if err != nil {
		return 0, err
	}
	models := make([]machine.AppModel, len(names))
	for i, n := range names {
		if models[i], err = m.Model(n); err != nil {
			return 0, err
		}
	}
	perfs, err := m.SolveFor(models, allocs)
	if err != nil {
		return 0, err
	}
	slowdowns := make([]float64, len(names))
	for i, n := range names {
		slowdowns[i] = solo[n] / perfs[i].IPS
	}
	return fairness.Unfairness(slowdowns)
}
