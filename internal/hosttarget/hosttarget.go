// Package hosttarget implements the controller's Target interface over a
// resctrl filesystem tree — the deployment path on real CAT/MBA hardware.
//
// The CoPart manager (internal/core) is substrate-agnostic: it needs
// application lists, cumulative counters, an allocation setter, and a
// clock. On the simulator all four come from *machine.Machine; on a real
// host they come from
//
//   - the resctrl tree for actuation (one control group per application,
//     schemata writes through internal/resctrl's client), and
//   - a CounterSource for the three PMCs (in production a perf-events or
//     PAPI reader; in this repository's tests, the machine simulator
//     wired behind the same interface).
//
// Step is pluggable so tests can couple the passage of time to the
// simulator while production builds sleep on the wall clock.
package hosttarget

import (
	"fmt"
	"time"

	"repro/internal/machine"
	"repro/internal/membw"
	"repro/internal/resctrl"
)

// CounterSource provides cumulative performance counters per application.
type CounterSource interface {
	ReadCounters(app string) (machine.Counters, error)
}

// Tree is the subset of the resctrl client the host drives;
// *resctrl.Client implements it. Fault injection wraps the whole Host
// (faultinject.WrapTarget), not the tree.
type Tree interface {
	Info() resctrl.Info
	Groups() ([]string, error)
	CreateGroup(group string) error
	DeleteGroup(group string) error
	AddTask(group string, pid int) error
	WriteSchemata(group string, s resctrl.Schemata) error
}

// Options configure a Host.
type Options struct {
	// Client is the resctrl tree to actuate (required).
	Client Tree
	// Counters supplies the PMCs (required).
	Counters CounterSource
	// Hardware describes the machine for the controller (core counts,
	// way geometry, bandwidth). Its LLCWays must agree with the tree's
	// cbm_mask.
	Hardware machine.Config
	// Step advances time. Nil selects a wall-clock sleep.
	Step func(time.Duration) error
	// Now reads the clock. Nil selects monotonic time since New.
	Now func() time.Duration
}

// Host adapts a resctrl tree plus a counter source to core.Target.
type Host struct {
	client   Tree
	counters CounterSource
	hw       machine.Config
	step     func(time.Duration) error
	now      func() time.Duration
	apps     []string
	appsGen  uint64 // moves whenever apps changes (see AppsGeneration)
}

// New validates the options and returns an empty Host; register the
// consolidated applications with AddApp.
func New(opts Options) (*Host, error) {
	if opts.Client == nil {
		return nil, fmt.Errorf("hosttarget: nil resctrl client")
	}
	if opts.Counters == nil {
		return nil, fmt.Errorf("hosttarget: nil counter source")
	}
	if err := opts.Hardware.Validate(); err != nil {
		return nil, err
	}
	info := opts.Client.Info()
	if got := onesCount(info.CBMMask); got != opts.Hardware.LLCWays {
		return nil, fmt.Errorf("hosttarget: tree advertises %d ways, hardware config says %d",
			got, opts.Hardware.LLCWays)
	}
	// The controller emits MBA levels on membw's grid (multiples of
	// membw.Granularity, at least membw.MinLevel). The tree must accept
	// every such level, or schemata writes would fail mid-run.
	if info.MBAGran <= 0 || membw.Granularity%info.MBAGran != 0 {
		return nil, fmt.Errorf("hosttarget: tree MBA granularity %d incompatible with controller granularity %d",
			info.MBAGran, membw.Granularity)
	}
	if info.MBAMin > membw.MinLevel {
		return nil, fmt.Errorf("hosttarget: tree min bandwidth %d above controller minimum %d",
			info.MBAMin, membw.MinLevel)
	}
	h := &Host{
		client:   opts.Client,
		counters: opts.Counters,
		hw:       opts.Hardware,
		step:     opts.Step,
		now:      opts.Now,
	}
	if h.step == nil {
		h.step = func(d time.Duration) error {
			time.Sleep(d)
			return nil
		}
	}
	if h.now == nil {
		start := time.Now()                                       //copart:wallclock host fallback clock anchors real elapsed time
		h.now = func() time.Duration { return time.Since(start) } //copart:wallclock host fallback clock reads real elapsed time
	}
	return h, nil
}

func onesCount(mask uint64) int {
	n := 0
	for ; mask != 0; mask >>= 1 {
		n += int(mask & 1)
	}
	return n
}

// AddApp registers an application: its control group is created (if
// missing) and its tasks are assigned to the group, exactly as the
// paper's prototype pins each container's threads.
func (h *Host) AddApp(name string, pids []int) error {
	for _, a := range h.apps {
		if a == name {
			return fmt.Errorf("hosttarget: duplicate app %q", name)
		}
	}
	groups, err := h.client.Groups()
	if err != nil {
		return err
	}
	exists := false
	for _, g := range groups {
		if g == name {
			exists = true
			break
		}
	}
	if !exists {
		if err := h.client.CreateGroup(name); err != nil {
			return err
		}
	}
	for _, pid := range pids {
		if err := h.client.AddTask(name, pid); err != nil {
			return err
		}
	}
	h.apps = append(h.apps, name)
	h.appsGen++
	return nil
}

// RemoveApp unregisters an application and deletes its control group
// (its tasks fall back to the root group, as on the kernel).
func (h *Host) RemoveApp(name string) error {
	for i, a := range h.apps {
		if a == name {
			h.apps = append(h.apps[:i], h.apps[i+1:]...)
			h.appsGen++
			return h.client.DeleteGroup(name)
		}
	}
	return fmt.Errorf("hosttarget: unknown app %q", name)
}

// Apps implements core.Target.
func (h *Host) Apps() []string {
	return append([]string(nil), h.apps...)
}

// AppsInto is Apps into dst's storage, the manager's allocation-free poll.
func (h *Host) AppsInto(dst []string) []string {
	return append(dst[:0], h.apps...)
}

// AppsGeneration counts the changes to the registered set — every
// successful AddApp and RemoveApp, and Close — so the manager polls Apps
// only when it may have changed (see core.Target).
func (h *Host) AppsGeneration() uint64 { return h.appsGen }

// ReadCounters implements core.Target.
func (h *Host) ReadCounters(name string) (machine.Counters, error) {
	return h.counters.ReadCounters(name)
}

// SetAllocation implements core.Target: it writes the application's
// schemata through the resctrl client, which validates the CBM and MBA
// level against the tree's advertised limits.
func (h *Host) SetAllocation(name string, a machine.Alloc) error {
	if err := membw.ValidateLevel(a.MBALevel); err != nil {
		return err
	}
	return h.client.WriteSchemata(name, resctrl.Schemata{
		L3: map[int]uint64{0: a.CBM},
		MB: map[int]int{0: a.MBALevel},
	})
}

// Reset restores every registered application's schemata to the
// hardware defaults — the full cache mask and 100 % memory bandwidth —
// so a stopping controller does not leave stale partitions behind.
// All groups are attempted; the first error is returned.
func (h *Host) Reset() error {
	info := h.client.Info()
	var firstErr error
	for _, name := range h.apps {
		s := resctrl.Schemata{
			L3: make(map[int]uint64, len(info.CacheIDs)),
			MB: make(map[int]int, len(info.CacheIDs)),
		}
		for _, id := range info.CacheIDs {
			s.L3[id] = info.CBMMask
			s.MB[id] = 100
		}
		if err := h.client.WriteSchemata(name, s); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("hosttarget: reset %s: %w", name, err)
		}
	}
	return firstErr
}

// Close resets all schemata to the hardware defaults and deletes the
// applications' control groups (their tasks fall back to the root group).
// The host keeps no registered applications afterwards.
func (h *Host) Close() error {
	firstErr := h.Reset()
	for _, name := range h.apps {
		if err := h.client.DeleteGroup(name); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("hosttarget: close %s: %w", name, err)
		}
	}
	h.apps = nil
	h.appsGen++
	return firstErr
}

// Config implements core.Target.
func (h *Host) Config() machine.Config { return h.hw }

// Now implements core.Target.
func (h *Host) Now() time.Duration { return h.now() }

// Step implements core.Target.
func (h *Host) Step(dt time.Duration) error {
	if dt <= 0 {
		return fmt.Errorf("hosttarget: non-positive step %v", dt)
	}
	return h.step(dt)
}
