// Package controlplane is copartd's embedded serving surface: an
// HTTP/JSON API (stdlib net/http only) for runtime admission — adding,
// removing, and reweighting consolidated applications while the
// controller runs — plus deterministic snapshot export, health and
// readiness probes wired to the resilience watchdog, and Prometheus
// text metrics.
//
// The central design constraint is that the controller is
// single-threaded and deterministic: the manager, the simulated
// machine, and the samplers are owned by the controller goroutine and
// are not safe for concurrent use. The control plane therefore never
// touches them from an HTTP handler. Mutating requests are validated,
// placed on a bounded queue, and applied by the controller itself
// between control periods (Manager.BetweenPeriods → Plane.Drain); the
// handler blocks on a reply channel with a timeout. The controller does
// not send those replies itself: it hands them to a reply relay, a
// goroutine the netpoller wakes on another P, so a controller that never
// blocks cannot hold an answered handler in its own run queue (see
// relay). Read-only surfaces (/healthz, /metrics, /apps) serve from a
// mutex-guarded mirror the controller refreshes once per period
// (Observe / Drain), so they cost the control loop nothing and block
// nobody.
package controlplane

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/eventlog"
)

// Rejection is a typed admission error: an HTTP status, a stable
// machine-readable code, and a human-readable detail. Every error the
// control plane produces on purpose is one of these; anything else
// surfaces as a 500.
type Rejection struct {
	Status int    `json:"-"`
	Code   string `json:"code"`
	Detail string `json:"error"`
}

// Rejection codes. Stable API surface: clients and tests match on
// these, not on detail strings.
const (
	CodeBadSpec      = "bad_spec"      // malformed or invalid request body
	CodeUnknownApp   = "unknown_app"   // app name not consolidated
	CodeDuplicateApp = "duplicate_app" // name already used (names are single-use)
	CodeMachineFull  = "machine_full"  // no way/core capacity for another app
	CodeLastApps     = "last_apps"     // removal would leave fewer than the minimum
	CodeQueueFull    = "queue_full"    // admission queue at capacity
	CodeDraining     = "draining"      // daemon is shutting down
	CodeTimeout      = "timeout"       // control loop did not drain in time
	CodeUnsupported  = "unsupported"   // operation impossible in this configuration
)

// Error implements error.
func (r *Rejection) Error() string { return r.Detail }

// Reject builds a Rejection.
func Reject(status int, code, format string, args ...interface{}) *Rejection {
	return &Rejection{Status: status, Code: code, Detail: fmt.Sprintf(format, args...)}
}

// Admitter applies admission operations to the controlled system. It is
// always called on the controller goroutine (from Plane.Drain), so
// implementations may touch the manager and machine freely.
type Admitter interface {
	// AddApp launches a new application.
	AddApp(spec AppSpec) error
	// RemoveApp terminates an application.
	RemoveApp(name string) error
	// Reweight changes an application's fairness weight.
	Reweight(name string, weight float64) error
	// Snapshot serializes the full controller+machine state.
	Snapshot() ([]byte, error)
}

// StatusSource exposes the controller's health; *core.Manager satisfies
// it. Reads are performed on the controller goroutine only (Drain).
type StatusSource interface {
	Phase() core.Phase
	FailStreak() int
}

// opKind enumerates queued operations.
type opKind int

const (
	opAdd opKind = iota
	opRemove
	opReweight
	opSnapshot
)

func (k opKind) String() string {
	switch k {
	case opAdd:
		return "add"
	case opRemove:
		return "remove"
	case opReweight:
		return "reweight"
	default:
		return "snapshot"
	}
}

// op is one queued admission operation.
type op struct {
	kind   opKind
	spec   AppSpec
	name   string
	weight float64
	reply  chan opResult // nil for fire-and-forget enqueues
}

type opResult struct {
	body []byte // snapshot payload
	err  error
}

// Plane is the control plane: the admission queue, the status mirror,
// and the HTTP surface over both.
type Plane struct {
	adm    Admitter
	src    StatusSource
	events *eventlog.Log
	ops    chan op
	opWait time.Duration

	mu         sync.Mutex
	last       core.PeriodReport
	haveReport bool
	phase      core.Phase
	failStreak int
	degraded   bool
	draining   bool
	profiled   bool // left the initial profiling phase at least once

	periods             uint64
	degradedTransitions uint64
	snapshots           uint64
	admissions          map[string]uint64 // "<op>_<outcome>" → count

	lats    []time.Duration // period wall-latency ring
	latPos  int
	latFull bool
	lastObs time.Time

	relayOnce sync.Once
	relay     relay // zero until the first submit starts it
}

// Option configures a Plane.
type Option func(*Plane)

// WithQueueDepth bounds the admission queue (default 64).
func WithQueueDepth(n int) Option {
	return func(p *Plane) { p.ops = make(chan op, n) }
}

// WithOpTimeout bounds how long an HTTP mutation waits for the control
// loop to drain the queue (default 10s).
func WithOpTimeout(d time.Duration) Option {
	return func(p *Plane) { p.opWait = d }
}

// New builds a control plane over an admitter and a status source.
// events may be nil (the /events endpoint then serves an empty list).
func New(adm Admitter, src StatusSource, events *eventlog.Log, opts ...Option) *Plane {
	p := &Plane{
		adm:        adm,
		src:        src,
		events:     events,
		ops:        make(chan op, 64),
		opWait:     10 * time.Second,
		admissions: make(map[string]uint64),
		lats:       make([]time.Duration, 128),
	}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Observe records one period report into the status mirror. Call it
// from the manager's OnPeriod hook (controller goroutine); readers see
// it through the mutex.
func (p *Plane) Observe(r core.PeriodReport) {
	now := time.Now() //copart:wallclock /metrics period-latency telemetry; never feeds a control decision
	p.mu.Lock()
	defer p.mu.Unlock()
	p.last = r
	p.haveReport = true
	p.periods++
	if !p.lastObs.IsZero() {
		p.lats[p.latPos] = now.Sub(p.lastObs)
		p.latPos = (p.latPos + 1) % len(p.lats)
		if p.latPos == 0 {
			p.latFull = true
		}
	}
	p.lastObs = now
}

// Drain applies every queued admission operation and refreshes the
// health mirror. It MUST run on the controller goroutine — wire it to
// Manager.BetweenPeriods, and call it once more after Run returns to
// answer stragglers (with SetDraining set, they are rejected). The
// replies themselves go out through the reply relay, woken once per
// Drain that answered a waiting handler.
func (p *Plane) Drain() {
	p.syncHealth()
	relayed := false
	for {
		select {
		case o := <-p.ops:
			res := p.apply(o)
			if o.reply != nil {
				relayed = p.relay.send(o.reply, res) || relayed
			}
		default:
			if relayed {
				p.relay.wake()
			}
			return
		}
	}
}

// syncHealth refreshes the mirrored phase and fail streak.
func (p *Plane) syncHealth() {
	if p.src == nil {
		return
	}
	phase, streak := p.src.Phase(), p.src.FailStreak()
	p.mu.Lock()
	defer p.mu.Unlock()
	deg := phase == core.PhaseDegraded
	if deg && !p.degraded {
		p.degradedTransitions++
	}
	if phase != core.PhaseProfile {
		p.profiled = true
	}
	p.degraded = deg
	p.phase = phase
	p.failStreak = streak
}

// apply executes one operation on the controller goroutine.
func (p *Plane) apply(o op) opResult {
	p.mu.Lock()
	draining := p.draining
	p.mu.Unlock()
	if draining && o.kind != opSnapshot {
		// Snapshots stay allowed during drain: flushing state on the way
		// out is the whole point of graceful shutdown.
		err := Reject(http.StatusServiceUnavailable, CodeDraining, "daemon is draining; admission closed")
		p.count(o.kind, err)
		return opResult{err: err}
	}
	var res opResult
	switch o.kind {
	case opAdd:
		res.err = p.adm.AddApp(o.spec)
	case opRemove:
		res.err = p.adm.RemoveApp(o.name)
	case opReweight:
		res.err = p.adm.Reweight(o.name, o.weight)
	case opSnapshot:
		res.body, res.err = p.adm.Snapshot()
		if res.err == nil {
			p.mu.Lock()
			p.snapshots++
			p.mu.Unlock()
		}
	}
	p.count(o.kind, res.err)
	if p.events.Enabled() {
		outcome := "ok"
		if res.err != nil {
			outcome = "rejected: " + res.err.Error()
		}
		// The controller's clock, as EnqueueDue's: the last period report
		// lags it by a period, and by a whole outage while reads fail.
		var t time.Duration
		if a, ok := p.adm.(*MachineAdmitter); ok {
			t = a.M.Now()
		}
		p.events.Appendf(t, eventlog.KindAdmission, o.opTarget(), "%s %s", o.kind, outcome)
	}
	return res
}

// opTarget names the app an operation concerns, for telemetry.
func (o op) opTarget() string {
	if o.kind == opAdd {
		return o.spec.Name
	}
	return o.name
}

// count tallies an operation outcome.
func (p *Plane) count(kind opKind, err error) {
	outcome := "ok"
	if err != nil {
		outcome = "rejected"
	}
	p.mu.Lock()
	p.admissions[kind.String()+"_"+outcome]++
	p.mu.Unlock()
}

// SetDraining closes admission: queued and future mutations are
// rejected with CodeDraining; snapshots still serve. Safe from any
// goroutine.
func (p *Plane) SetDraining() {
	p.mu.Lock()
	p.draining = true
	p.mu.Unlock()
}

// submit queues an operation and waits for the controller to apply it.
func (p *Plane) submit(o op) opResult {
	p.relayOnce.Do(p.startRelay)
	o.reply = make(chan opResult, 1)
	select {
	case p.ops <- o:
	default:
		err := Reject(http.StatusServiceUnavailable, CodeQueueFull,
			"admission queue full (%d pending); retry after the next control period", cap(p.ops))
		p.count(o.kind, err)
		return opResult{err: err}
	}
	timer := time.NewTimer(p.opWait)
	defer timer.Stop()
	select {
	case res := <-o.reply:
		return res
	case <-timer.C:
		// The op stays queued and may still apply later; the client just
		// stops waiting. With the daemon healthy this cannot happen — the
		// queue drains every control period.
		return opResult{err: Reject(http.StatusGatewayTimeout, CodeTimeout,
			"control loop did not drain the queue within %v (daemon stopped?)", p.opWait)}
	}
}

// EnqueueAdd queues an add without waiting for the result — the
// deterministic path for experiment drivers that apply churn from a
// BetweenPeriods hook (enqueue, then Drain, all on one goroutine).
func (p *Plane) EnqueueAdd(spec AppSpec) error {
	return p.enqueue(op{kind: opAdd, spec: spec})
}

// EnqueueRemove queues a removal without waiting.
func (p *Plane) EnqueueRemove(name string) error {
	return p.enqueue(op{kind: opRemove, name: name})
}

// EnqueueReweight queues a weight change without waiting.
func (p *Plane) EnqueueReweight(name string, weight float64) error {
	return p.enqueue(op{kind: opReweight, name: name, weight: weight})
}

// ScheduledOp is one admission operation due at a point of target time:
// a scripted curl against the daemon, minus the HTTP layer.
type ScheduledOp struct {
	At   time.Duration
	Kind string // "add", "remove", or "reweight"
	// Spec carries the app for "add"; "remove" and "reweight" read only
	// Spec.Name, and a remove naming no app takes the first live one.
	Spec   AppSpec
	Weight float64 // for "reweight"
}

// EnqueueDue queues, without waiting, every op of the time-ordered
// schedule sched from index next on that is due by now, and returns the
// index of the first op still pending. Call it on the controller
// goroutine right before Drain, with the target's clock: a schedule
// keyed on the last period report would stall while the controller
// profiles or rides out an outage. An op that cannot be queued is
// skipped and reported; the ops after it still replay.
func (p *Plane) EnqueueDue(sched []ScheduledOp, next int, now time.Duration) (int, error) {
	var errs []error
	for ; next < len(sched) && sched[next].At <= now; next++ {
		o := sched[next]
		var err error
		switch o.Kind {
		case "add":
			err = p.EnqueueAdd(o.Spec)
		case "remove":
			name := o.Spec.Name
			if name == "" {
				name = p.firstLive()
			}
			err = p.EnqueueRemove(name)
		case "reweight":
			err = p.EnqueueReweight(o.Spec.Name, o.Weight)
		default:
			err = fmt.Errorf("unknown kind %q", o.Kind)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("controlplane: scheduled op %d (%s %s): %w", next, o.Kind, o.Spec.Name, err))
		}
	}
	return next, errors.Join(errs...)
}

// firstLive names the first live application, the target of a
// scheduled remove that names none; "" when the admitter cannot list
// them. It reads the machine, so it runs on the controller goroutine.
func (p *Plane) firstLive() string {
	if a, ok := p.adm.(*MachineAdmitter); ok {
		if live := a.live(); len(live) > 0 {
			return live[0]
		}
	}
	return ""
}

func (p *Plane) enqueue(o op) error {
	select {
	case p.ops <- o:
		return nil
	default:
		err := Reject(http.StatusServiceUnavailable, CodeQueueFull,
			"admission queue full (%d pending)", cap(p.ops))
		p.count(o.kind, err)
		return err
	}
}

// Status is the mirrored controller state served by the read endpoints.
type Status struct {
	Phase      string  `json:"phase"`
	Degraded   bool    `json:"degraded"`
	Draining   bool    `json:"draining"`
	FailStreak int     `json:"failStreak"`
	Periods    uint64  `json:"periods"`
	Unfairness float64 `json:"unfairness"`
	Apps       int     `json:"apps"`
}

// Status returns the mirrored state.
func (p *Plane) Status() Status {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Status{
		Phase:      p.phase.String(),
		Degraded:   p.degraded,
		Draining:   p.draining,
		FailStreak: p.failStreak,
		Periods:    p.periods,
		Unfairness: p.last.Unfairness,
		Apps:       len(p.last.Apps),
	}
}

// AdmissionStats reports how many operations were applied and rejected.
func (p *Plane) AdmissionStats() (ok, rejected uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for k, v := range p.admissions {
		if len(k) > 3 && k[len(k)-3:] == "_ok" {
			ok += v
		} else {
			rejected += v
		}
	}
	return ok, rejected
}
