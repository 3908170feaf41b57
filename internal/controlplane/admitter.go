package controlplane

import (
	"fmt"
	"net/http"
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// AppSpec describes an application submitted for runtime admission.
type AppSpec struct {
	// Name identifies the application on the machine. Names are
	// single-use: the machine keeps every departed application's name
	// (and only its name), so a name cannot be recycled after removal.
	// A name is non-empty valid UTF-8 of printable runes, with no slash
	// and no space of any kind: it appears in URL paths and, quoted, in
	// /metrics labels, whose format escapes only \, \" and \n.
	Name string `json:"name"`
	// Benchmark selects the Table 2 workload model; empty means the
	// benchmark named Name.
	Benchmark string `json:"benchmark,omitempty"`
	// Cores overrides the benchmark's dedicated core count; 0 keeps the
	// catalog default. Consolidation mixes divide cores evenly at boot,
	// so late arrivals usually need a smaller footprint than the default.
	Cores int `json:"cores,omitempty"`
	// Weight is the fairness weight: the app's slowdown is divided by it
	// before unfairness is computed, so weight 2 tolerates twice the
	// slowdown. 0 means the default weight 1.
	Weight float64 `json:"weight,omitempty"`
}

func (s AppSpec) validate() *Rejection {
	if s.Name == "" {
		return Reject(http.StatusBadRequest, CodeBadSpec, "app spec needs a non-empty name")
	}
	if !utf8.ValidString(s.Name) {
		return Reject(http.StatusBadRequest, CodeBadSpec, "app name %q is not valid UTF-8", s.Name)
	}
	if strings.ContainsFunc(s.Name, func(r rune) bool {
		return r == '/' || unicode.IsSpace(r) || !unicode.IsPrint(r)
	}) {
		return Reject(http.StatusBadRequest, CodeBadSpec,
			"app name %q may not contain slashes, whitespace or non-printable characters", s.Name)
	}
	if s.Cores < 0 {
		return Reject(http.StatusBadRequest, CodeBadSpec, "cores %d must be >= 0", s.Cores)
	}
	if s.Weight < 0 || (s.Weight != s.Weight) {
		return Reject(http.StatusBadRequest, CodeBadSpec, "weight %v must be a positive number", s.Weight)
	}
	return nil
}

// MachineAdmitter implements Admitter against the simulated machine and
// the CoPart manager. All methods run on the controller goroutine (via
// Plane.Drain), which is the only place the machine and manager may be
// touched; the manager notices membership changes at its next control
// period and re-profiles.
type MachineAdmitter struct {
	M   *machine.Machine
	Mgr *core.Manager
	// MinApps is the smallest consolidation the admitter will leave
	// behind on removal; 0 means 2, the minimum the manager can partition.
	MinApps int

	names []string // live-app poll buffer (Machine.AppsInto)
}

// live polls the machine's live applications into the admitter's buffer;
// the slice is valid until the next call.
func (a *MachineAdmitter) live() []string {
	a.names = a.M.AppsInto(a.names)
	return a.names
}

func (a *MachineAdmitter) minApps() int {
	if a.MinApps > 0 {
		return a.MinApps
	}
	return 2
}

// AddApp resolves the spec against the workload catalog and launches it.
func (a *MachineAdmitter) AddApp(spec AppSpec) error {
	if rej := spec.validate(); rej != nil {
		return rej
	}
	bench := spec.Benchmark
	if bench == "" {
		bench = spec.Name
	}
	ws, err := workloads.ByName(a.M.Config(), bench)
	if err != nil {
		return Reject(http.StatusBadRequest, CodeBadSpec,
			"unknown benchmark %q (valid: %s)", bench, strings.Join(workloads.Names(), ", "))
	}
	if a.M.NameUsed(spec.Name) {
		// The machine knows the name — active or departed, it is taken.
		return Reject(http.StatusConflict, CodeDuplicateApp,
			"app name %q already used (names are single-use; departed apps keep their history)", spec.Name)
	}
	cfg := a.M.Config()
	active := a.live()
	// Every consolidated app needs at least one exclusive LLC way.
	if len(active)+1 > cfg.LLCWays {
		return Reject(http.StatusConflict, CodeMachineFull,
			"machine full: %d apps consolidated, %d LLC ways (each app needs one exclusive way)",
			len(active), cfg.LLCWays)
	}
	model := ws.Model
	model.Name = spec.Name
	if spec.Cores > 0 {
		model.Cores = spec.Cores
	}
	usedCores := 0
	for _, name := range active {
		m, err := a.M.Model(name)
		if err == nil && m.Socket == model.Socket {
			usedCores += m.Cores
		}
	}
	if usedCores+model.Cores > cfg.Cores {
		return Reject(http.StatusConflict, CodeMachineFull,
			"machine full: %d of %d cores in use on socket %d, app wants %d (pass a smaller \"cores\")",
			usedCores, cfg.Cores, model.Socket, model.Cores)
	}
	if err := a.M.AddApp(model); err != nil {
		// Pre-checks above should have caught everything; whatever is
		// left is a spec problem (e.g. model validation).
		return Reject(http.StatusBadRequest, CodeBadSpec, "machine rejected app: %v", err)
	}
	if spec.Weight > 0 {
		if err := a.Mgr.SetWeight(spec.Name, spec.Weight); err != nil {
			return Reject(http.StatusBadRequest, CodeBadSpec, "weight rejected: %v", err)
		}
	}
	return nil
}

// RemoveApp terminates an application, keeping at least MinApps running.
func (a *MachineAdmitter) RemoveApp(name string) error {
	active := a.live()
	if !slices.Contains(active, name) {
		return Reject(http.StatusNotFound, CodeUnknownApp, "no active app %q", name)
	}
	if len(active) <= a.minApps() {
		return Reject(http.StatusConflict, CodeLastApps,
			"cannot remove %q: %d apps active, minimum consolidation is %d", name, len(active), a.minApps())
	}
	if err := a.M.RemoveApp(name); err != nil {
		return fmt.Errorf("remove %q: %w", name, err)
	}
	a.Mgr.DropWeight(name)
	return nil
}

// Reweight changes an active application's fairness weight.
func (a *MachineAdmitter) Reweight(name string, weight float64) error {
	if !slices.Contains(a.live(), name) {
		return Reject(http.StatusNotFound, CodeUnknownApp, "no active app %q", name)
	}
	if err := a.Mgr.SetWeight(name, weight); err != nil {
		return Reject(http.StatusBadRequest, CodeBadSpec, "weight rejected: %v", err)
	}
	return nil
}

// Snapshot serializes the full manager+machine state as versioned JSON.
func (a *MachineAdmitter) Snapshot() ([]byte, error) {
	snap, err := a.Mgr.Snapshot()
	if err != nil {
		return nil, Reject(http.StatusNotImplemented, CodeUnsupported, "snapshot unavailable: %v", err)
	}
	return snap.Marshal()
}
