// Command copartd runs the CoPart controller against a simulated server
// consolidating one of the paper's workload mixes, printing one line per
// control period: phase, per-application slowdowns, unfairness, and the
// system state.
//
// With -resctrl DIR, the daemon additionally mirrors the machine into a
// resctrl directory tree between control periods: one control group per
// live application holding the allocation the machine runs, written
// through the same client that drives a real /sys/fs/resctrl. Arrivals
// get a group and departed applications lose theirs, demonstrating the
// deployment path on CAT/MBA hardware. A mirror that fails to sync three
// periods in a row stops the daemon with an error.
//
// With -faults SPEC, the run is subjected to a fault-injection scenario
// (see internal/faultinject for the spec grammar; "standard" is the
// canonical chaos schedule) and the controller runs with resilience
// enabled: transient errors are retried, and sustained outages push it
// into a degraded equal-allocation mode until the substrate heals. The
// spec's arrive=/depart= churn is not a fault: it replays as admission
// operations through the control plane, like a scripted curl.
//
// The control plane queues admission operations and applies them
// between control periods. With -listen ADDR, the daemon also serves it
// over HTTP: runtime admission (POST/DELETE/PATCH /apps), deterministic
// state snapshots (GET /snapshot), health and readiness probes
// (/healthz, /readyz), and Prometheus metrics (/metrics). Combine with
// -pace to slow the simulated clock to something a human (or a curl
// loop) can interact with. A snapshot taken from a running daemon can be
// handed to -restore to resume the run bit-identically; -snapshot-exit
// writes one on the way out.
//
// On SIGINT/SIGTERM the daemon drains: admission closes, the current
// control period finishes, the optional exit snapshot is flushed, and —
// like on normal exit, and even if the controller panics — every
// application is restored to the unrestricted default allocation (full
// cache mask, 100 % memory bandwidth), so a controlled machine is never
// left with stale partition restrictions.
//
// Usage:
//
//	copartd -mix H-LLC -apps 4 -duration 60s [-seed 1] [-resctrl DIR]
//	        [-faults SPEC] [-listen 127.0.0.1:7090] [-pace 100ms]
//	        [-restore FILE] [-snapshot-exit FILE]
//
// Flag validation failures exit with status 2; runtime failures with 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/eventlog"
	"repro/internal/faultinject"
	"repro/internal/machine"
	"repro/internal/membw"
	"repro/internal/resctrl"
	"repro/internal/workloads"
)

// config carries every copartd setting; tests drive run with a literal.
type config struct {
	mix          string
	apps         int
	duration     time.Duration
	seed         int64
	resctrlDir   string
	events       bool
	faults       string
	listen       string
	pace         time.Duration
	restore      string
	snapshotExit string

	// sig delivers shutdown signals; nil disables signal handling (tests).
	sig <-chan os.Signal
	// setFlags records which flags the user passed explicitly, for
	// conflict detection; nil means "none".
	setFlags map[string]bool
}

func main() {
	var cfg config
	flag.StringVar(&cfg.mix, "mix", "H-Both", "workload mix: "+mixNames())
	flag.IntVar(&cfg.apps, "apps", 4, "number of consolidated applications")
	flag.DurationVar(&cfg.duration, "duration", 60*time.Second, "virtual time to run")
	flag.Int64Var(&cfg.seed, "seed", 1, "controller seed")
	flag.StringVar(&cfg.resctrlDir, "resctrl", "", "mirror decisions into a resctrl tree under this directory")
	flag.BoolVar(&cfg.events, "events", false, "print the controller's structured event log at exit")
	flag.StringVar(&cfg.faults, "faults", "", `fault-injection scenario, e.g. "standard" or "readerr=0.05,wrap=30s"`)
	flag.StringVar(&cfg.listen, "listen", "", "serve the control-plane HTTP API on this address (e.g. 127.0.0.1:7090)")
	flag.DurationVar(&cfg.pace, "pace", 0, "wall-clock sleep per control period (slows the simulation for interactive use)")
	flag.StringVar(&cfg.restore, "restore", "", "resume from a snapshot file instead of booting a mix")
	flag.StringVar(&cfg.snapshotExit, "snapshot-exit", "", "write a state snapshot to this file on exit")
	flag.Parse()

	cfg.setFlags = map[string]bool{}
	flag.Visit(func(f *flag.Flag) { cfg.setFlags[f.Name] = true })

	if err := cfg.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "copartd:", err)
		os.Exit(2)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	cfg.sig = sigc

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "copartd:", err)
		os.Exit(1)
	}
}

func mixNames() string {
	kinds := workloads.MixKinds()
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.String()
	}
	return strings.Join(names, ", ")
}

func (c *config) flagSet(name string) bool { return c.setFlags[name] }

// validate rejects invalid flag combinations before anything is built.
// Errors enumerate the valid values so a typo is fixable from the
// message alone; main exits with status 2 on them.
func (c *config) validate() error {
	mcfg := machine.DefaultConfig()
	if c.restore != "" {
		// A snapshot carries its own machine, apps, and fault-free state;
		// flags that would contradict it are refused rather than ignored.
		for _, f := range []string{"mix", "apps", "faults", "seed"} {
			if c.flagSet(f) {
				return fmt.Errorf("-restore resumes the snapshot's own configuration; drop -%s", f)
			}
		}
		if _, err := os.Stat(c.restore); err != nil {
			return fmt.Errorf("-restore: %v", err)
		}
	} else {
		if _, err := parseMix(c.mix); err != nil {
			return err
		}
		maxApps := mcfg.LLCWays
		if mcfg.Cores < maxApps {
			maxApps = mcfg.Cores
		}
		if c.apps < 2 || c.apps > maxApps {
			return fmt.Errorf("-apps %d out of range: valid range is 2-%d (each app needs one exclusive LLC way and at least one core; machine has %d ways, %d cores)",
				c.apps, maxApps, mcfg.LLCWays, mcfg.Cores)
		}
		if _, err := parseScenario(mcfg, c.faults); err != nil {
			return err
		}
	}
	if c.duration <= 0 {
		return fmt.Errorf("-duration %v must be positive", c.duration)
	}
	if c.pace < 0 {
		return fmt.Errorf("-pace %v must be >= 0", c.pace)
	}
	return nil
}

func parseMix(name string) (workloads.MixKind, error) {
	for _, k := range workloads.MixKinds() {
		if strings.EqualFold(k.String(), name) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown mix %q (valid: %s)", name, mixNames())
}

// parseScenario parses the -faults spec, checks arrival names against
// the workload catalog, and validates the result, so a spec the grammar
// accepts but the injector cannot run (a NaN probability, an overrun
// factor past the cap) is a flag error.
func parseScenario(cfg machine.Config, spec string) (faultinject.Scenario, error) {
	sc, err := faultinject.Parse(spec)
	if err != nil {
		return faultinject.Scenario{}, err
	}
	for _, ev := range sc.Churn {
		if !ev.Arrive {
			continue
		}
		if _, err := workloads.ByName(cfg, ev.Name); err != nil {
			return faultinject.Scenario{}, fmt.Errorf(
				"resolving arrival %q: %v (valid benchmarks: %s)",
				ev.Name, err, strings.Join(workloads.Names(), ", "))
		}
	}
	if err := sc.Validate(); err != nil {
		return faultinject.Scenario{}, err
	}
	return sc, nil
}

// churnSchedule turns the scenario's churn into admission operations:
// an arrival admits the named benchmark under its own name, and a
// departure removes the named app, or the first live one when it names
// none.
func churnSchedule(churn []faultinject.ChurnEvent) []controlplane.ScheduledOp {
	sched := make([]controlplane.ScheduledOp, len(churn))
	for i, ev := range churn {
		sched[i] = controlplane.ScheduledOp{At: ev.At, Kind: "remove", Spec: controlplane.AppSpec{Name: ev.Name}}
		if ev.Arrive {
			sched[i].Kind = "add"
		}
	}
	return sched
}

// Test hooks. onListen receives the control plane's bound address once
// the listener is up; periodHook runs inside OnPeriod (panic-injection
// tests use it to blow up the controller mid-run).
var (
	onListen   func(addr string)
	periodHook func(core.PeriodReport)
)

// run is the daemon body.
func run(cfg config) (err error) {
	if err := cfg.validate(); err != nil {
		return err
	}

	var (
		m   *machine.Machine
		mgr *core.Manager
		sc  faultinject.Scenario
	)
	mcfg := machine.DefaultConfig()

	var elog *eventlog.Log
	if cfg.events {
		elog, err = eventlog.New(8192)
		if err != nil {
			return err
		}
	}

	var wrapped *faultinject.Target
	if cfg.restore != "" {
		data, err := os.ReadFile(cfg.restore)
		if err != nil {
			return err
		}
		snap, err := core.ParseSnapshot(data)
		if err != nil {
			return err
		}
		mgr, m, err = restoreSnapshot(snap, cfg.sig)
		if err != nil {
			return err
		}
		mcfg = m.Config()
		fmt.Printf("restored snapshot %s at t=%.1fs in %v phase\n",
			cfg.restore, m.Now().Seconds(), mgr.Phase())
	} else {
		kind, err := parseMix(cfg.mix)
		if err != nil {
			return err
		}
		sc, err = parseScenario(mcfg, cfg.faults)
		if err != nil {
			return err
		}
		m, err = machine.New(mcfg)
		if err != nil {
			return err
		}
		models, err := workloads.Mix(mcfg, kind, cfg.apps)
		if err != nil {
			return err
		}
		for _, model := range models {
			if err := m.AddApp(model); err != nil {
				return err
			}
		}

		var target core.Target = m
		if !sc.Empty() {
			if wrapped, err = faultinject.WrapTarget(m, sc, elog); err != nil {
				return err
			}
			target = wrapped
			fmt.Println("fault injection active, resilient control loop enabled")
		}

		ref, err := workloads.StreamMissRates(m)
		if err != nil {
			return err
		}
		// The counting source produces the exact stream of a plain
		// rand.NewSource(seed) while tracking the position, so snapshots
		// can restore it.
		rng, src := core.NewSeededRand(cfg.seed)
		mgr, err = core.NewManager(target, core.DefaultParams(), ref,
			core.Envelope{LoWay: 0, Ways: mcfg.LLCWays}, rng)
		if err != nil {
			return err
		}
		mgr.SnapshotSource = src
		if !sc.Empty() {
			mgr.Resilience = core.DefaultResilience()
		}
	}
	mgr.Events = elog

	var tree *groupMirror
	if cfg.resctrlDir != "" {
		rc, err := resctrl.NewSimTree(cfg.resctrlDir, mcfg)
		if err != nil {
			return err
		}
		tree = &groupMirror{rc: rc, groups: make(map[string]bool)}
		if err := tree.sync(m); err != nil {
			return err
		}
		fmt.Printf("mirroring schemata into %s\n", cfg.resctrlDir)
	}

	// The restore guard: whatever happens from here on — normal exit,
	// error, or a controller panic — the machine and every mirrored
	// control group go back to the unrestricted default allocation. A
	// crashed controller must never leave a machine partitioned.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("controller panic: %v", r)
		}
		if rerr := restoreDefaults(m, tree); rerr != nil {
			if err == nil {
				err = fmt.Errorf("restoring default allocations: %w", rerr)
			} else {
				fmt.Fprintln(os.Stderr, "copartd: restoring default allocations:", rerr)
			}
			return
		}
		fmt.Println("default allocations restored")
	}()

	// Control plane: admission ops — from HTTP and from the -faults
	// churn schedule — queue here and apply between periods.
	plane := controlplane.New(&controlplane.MachineAdmitter{M: m, Mgr: mgr}, mgr, elog)
	if cfg.listen != "" {
		ln, lerr := net.Listen("tcp", cfg.listen)
		if lerr != nil {
			return fmt.Errorf("control plane: %w", lerr)
		}
		srv := &http.Server{Handler: plane.Handler()}
		go srv.Serve(ln) //nolint:errcheck // Shutdown's ErrServerClosed
		fmt.Printf("control plane listening on http://%s\n", ln.Addr())
		if onListen != nil {
			onListen(ln.Addr().String())
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx) //nolint:errcheck
		}()
	}
	sched, next := churnSchedule(sc.Churn), 0
	var mirrorErr error // set when the mirror has failed mirrorFailLimit periods in a row
	mirrorFails := 0
	mgr.BetweenPeriods = func() {
		if cfg.pace > 0 {
			time.Sleep(cfg.pace)
		}
		var err error
		if next, err = plane.EnqueueDue(sched, next, m.Now()); err != nil {
			fmt.Fprintln(os.Stderr, "copartd:", err)
		}
		plane.Drain()
		if tree == nil {
			return
		}
		if err := tree.sync(m); err != nil {
			mirrorFails++
			fmt.Fprintln(os.Stderr, "copartd: resctrl mirror:", err)
			if elog.Enabled() {
				elog.Appendf(m.Now(), eventlog.KindFault, "", "resctrl mirror: %v", err)
			}
			if mirrorFails == mirrorFailLimit {
				mirrorErr = fmt.Errorf("resctrl mirror failed %d periods in a row: %w", mirrorFails, err)
				mgr.Stop()
			}
			return
		}
		mirrorFails = 0
	}

	if cfg.sig != nil {
		done := make(chan struct{})
		defer close(done)
		go func() {
			select {
			case s := <-cfg.sig:
				fmt.Fprintf(os.Stderr, "copartd: caught %v, draining and stopping after the current period\n", s)
				plane.SetDraining()
				mgr.Stop()
			case <-done:
			}
		}()
	}

	fmt.Printf("consolidating %v on %d cores, %d-way LLC\n", m.Apps(), mcfg.Cores, mcfg.LLCWays)
	mgr.OnPeriod = func(r core.PeriodReport) {
		var sb strings.Builder
		fmt.Fprintf(&sb, "t=%6.1fs %-11s unfairness=%.4f ", r.Time.Seconds(), r.Phase, r.Unfairness)
		for i, app := range r.Apps {
			fmt.Fprintf(&sb, " %s[w=%d,mba=%d,slow=%.2f]",
				app, r.State.Ways[i], r.State.MBA[i], r.Slowdowns[i])
		}
		fmt.Println(sb.String())
		plane.Observe(r)
		if periodHook != nil {
			periodHook(r)
		}
	}
	if err := mgr.Run(cfg.duration); err != nil {
		return err
	}
	// Answer stragglers that queued during the last period; with the
	// drain flag set they are rejected rather than left hanging.
	plane.SetDraining()
	plane.Drain()
	if mirrorErr != nil {
		return mirrorErr
	}
	fmt.Printf("done at t=%.1fs in %v phase\n", m.Now().Seconds(), mgr.Phase())
	if wrapped != nil {
		st := wrapped.Stats()
		fmt.Printf("injected faults: %d (reads=%d writes=%d overruns=%d wraps=%d stuck=%d)\n",
			st.Total(), st.ReadErrors, st.WriteErrors, st.Overruns, st.Wraps, st.StuckReads)
	}
	if cfg.snapshotExit != "" {
		if err := writeSnapshot(mgr, cfg.snapshotExit); err != nil {
			return err
		}
		fmt.Printf("state snapshot written to %s\n", cfg.snapshotExit)
	}
	if elog != nil {
		fmt.Printf("\nevent log (%d events, %d retained):\n", elog.Total(), elog.Len())
		if err := elog.WriteText(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// restoreSnapshot rebuilds the manager and machine from snap, giving up
// when a shutdown signal arrives first: replaying the blob's RNG draws
// can take a while, and the daemon must stay stoppable meanwhile. A nil
// sig never fires.
func restoreSnapshot(snap *core.Snapshot, sig <-chan os.Signal) (*core.Manager, *machine.Machine, error) {
	type restored struct {
		mgr *core.Manager
		m   *machine.Machine
		err error
	}
	done := make(chan restored, 1)
	go func() {
		mgr, m, err := core.RestoreSnapshot(snap)
		done <- restored{mgr, m, err}
	}()
	select {
	case r := <-done:
		return r.mgr, r.m, r.err
	case s := <-sig:
		return nil, nil, fmt.Errorf("caught %v while restoring the snapshot", s)
	}
}

// writeSnapshot serializes the manager's full state into path.
func writeSnapshot(mgr *core.Manager, path string) error {
	snap, err := mgr.Snapshot()
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	data, err := snap.Marshal()
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// mirrorFailLimit is how many control periods in a row the resctrl
// mirror may fail to sync before copartd stops: the machine it reports
// on is then no longer the one the host's control groups enforce.
const mirrorFailLimit = 3

// groupMirror keeps a resctrl tree equal to the machine: one control
// group per live application, holding the allocation the machine runs.
type groupMirror struct {
	rc     *resctrl.Client
	groups map[string]bool // groups the mirror created and has not deleted
	live   []string        // Machine.AppsInto buffer
}

// sync writes every live application's allocation into its group on its
// home socket's cache domain, creating the groups of arrivals, and
// deletes the groups of departed applications. A group that cannot be
// written does not stop the others from being synced: restoring the
// defaults on exit must reach every group it can.
func (g *groupMirror) sync(m *machine.Machine) error {
	var errs []error
	g.live = m.AppsInto(g.live)
	for _, app := range g.live {
		if err := g.syncApp(m, app); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", app, err))
		}
	}
	for group := range g.groups {
		if slices.Contains(g.live, group) {
			continue
		}
		if err := g.rc.DeleteGroup(group); err != nil && !errors.Is(err, fs.ErrNotExist) {
			errs = append(errs, fmt.Errorf("%s: %w", group, err))
			continue
		}
		delete(g.groups, group)
	}
	return errors.Join(errs...)
}

// syncApp writes one live application's allocation into its group,
// creating the group first if the mirror has not; a group removed
// underneath the mirror is skipped.
func (g *groupMirror) syncApp(m *machine.Machine, app string) error {
	if !g.groups[app] {
		if err := g.rc.CreateGroup(app); err != nil {
			return err
		}
		g.groups[app] = true
	}
	a, err := m.Allocation(app)
	if err != nil {
		return err
	}
	model, err := m.Model(app)
	if err != nil {
		return err
	}
	err = g.rc.WriteSchemata(app, resctrl.Schemata{
		L3: map[int]uint64{model.Socket: a.CBM},
		MB: map[int]int{model.Socket: a.MBALevel},
	})
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	return err
}

// restoreDefaults returns every live application to the unrestricted
// allocation — full cache mask and 100 % memory bandwidth — and syncs
// the mirror, if any, to match.
func restoreDefaults(m *machine.Machine, tree *groupMirror) error {
	full := m.Config().FullMask()
	for _, name := range m.Apps() {
		if err := m.SetAllocation(name, machine.Alloc{CBM: full, MBALevel: membw.MaxLevel}); err != nil {
			return err
		}
	}
	if tree == nil {
		return nil
	}
	return tree.sync(m)
}
