package controlplane

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"

	"repro/internal/eventlog"
)

// maxBodyBytes bounds mutation request bodies; admission specs are tiny.
const maxBodyBytes = 1 << 16

// Handler returns the control plane's HTTP mux:
//
//	GET    /healthz        200 unless the controller is degraded
//	GET    /readyz         200 once profiled, not degraded, not draining
//	GET    /metrics        Prometheus text metrics
//	GET    /status         controller status mirror (JSON)
//	GET    /apps           per-app view of the last control period (JSON)
//	POST   /apps           admit an application (AppSpec body)
//	DELETE /apps/{name}    remove an application
//	PATCH  /apps/{name}    reweight an application ({"weight": W} body)
//	GET    /snapshot       full deterministic state snapshot (JSON)
//	GET    /events?n=N     last N controller events (JSON)
//
// Mutations queue for the controller goroutine and block until the next
// control period drains them; reads serve from the mirror and never
// touch the controller.
func (p *Plane) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", p.handleHealthz)
	mux.HandleFunc("GET /readyz", p.handleReadyz)
	mux.HandleFunc("GET /metrics", p.handleMetrics)
	mux.HandleFunc("GET /status", p.handleStatus)
	mux.HandleFunc("GET /apps", p.handleApps)
	mux.HandleFunc("POST /apps", p.handleAddApp)
	mux.HandleFunc("DELETE /apps/{name}", p.handleRemoveApp)
	mux.HandleFunc("PATCH /apps/{name}", p.handleReweight)
	mux.HandleFunc("GET /snapshot", p.handleSnapshot)
	mux.HandleFunc("GET /events", p.handleEvents)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // nothing to do about a dead client
}

// writeErr renders an error: Rejections carry their own status and
// code; anything else is an internal error.
func writeErr(w http.ResponseWriter, err error) {
	var rej *Rejection
	if errors.As(err, &rej) {
		writeJSON(w, rej.Status, rej)
		return
	}
	writeJSON(w, http.StatusInternalServerError, &Rejection{
		Code: "internal", Detail: err.Error(),
	})
}

func (p *Plane) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Health is strictly "is the controller out of degraded mode":
	// PhaseDegraded means the resilience watchdog tripped and the safe EQ
	// allocation is programmed. Draining does NOT fail health — a
	// draining daemon is still healthy, just not ready.
	s := p.Status()
	if s.Degraded {
		writeJSON(w, http.StatusServiceUnavailable, map[string]interface{}{
			"status": "degraded", "failStreak": s.FailStreak,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (p *Plane) handleReadyz(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	degraded, draining, profiled := p.degraded, p.draining, p.profiled
	p.mu.Unlock()
	switch {
	case draining:
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case degraded:
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "degraded"})
	case !profiled:
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "profiling"})
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

func (p *Plane) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, p.Status())
}

// appView is one row of GET /apps: the mirror of the app's last period.
type appView struct {
	Name     string  `json:"name"`
	Slowdown float64 `json:"slowdown"`
	Ways     int     `json:"ways"`
	MBA      int     `json:"mbaLevel"`
}

func (p *Plane) handleApps(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	views := make([]appView, 0, len(p.last.Apps))
	for i, name := range p.last.Apps {
		v := appView{Name: name}
		if i < len(p.last.Slowdowns) {
			v.Slowdown = p.last.Slowdowns[i]
		}
		if i < len(p.last.State.Ways) {
			v.Ways = p.last.State.Ways[i]
		}
		if i < len(p.last.State.MBA) {
			v.MBA = p.last.State.MBA[i]
		}
		views = append(views, v)
	}
	have := p.haveReport
	p.mu.Unlock()
	if !have {
		writeJSON(w, http.StatusOK, []appView{})
		return
	}
	writeJSON(w, http.StatusOK, views)
}

func (p *Plane) handleAddApp(w http.ResponseWriter, r *http.Request) {
	var spec AppSpec
	if err := decodeBody(r, &spec); err != nil {
		writeErr(w, err)
		return
	}
	res := p.submit(op{kind: opAdd, spec: spec})
	if res.err != nil {
		writeErr(w, res.err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"status": "admitted", "name": spec.Name})
}

func (p *Plane) handleRemoveApp(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	res := p.submit(op{kind: opRemove, name: name})
	if res.err != nil {
		writeErr(w, res.err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "removed", "name": name})
}

func (p *Plane) handleReweight(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	weight, err := decodeWeight(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	res := p.submit(op{kind: opReweight, name: name, weight: weight})
	if res.err != nil {
		writeErr(w, res.err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"status": "reweighted", "name": name, "weight": weight,
	})
}

func (p *Plane) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	res := p.submit(op{kind: opSnapshot})
	if res.err != nil {
		writeErr(w, res.err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(res.body) //nolint:errcheck
}

func (p *Plane) handleEvents(w http.ResponseWriter, r *http.Request) {
	n := 100
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			writeErr(w, Reject(http.StatusBadRequest, CodeBadSpec, "n=%q is not a positive integer", q))
			return
		}
		n = v
	}
	events := p.events.Tail(n)
	if events == nil {
		events = []eventlog.Event{}
	}
	writeJSON(w, http.StatusOK, events)
}

// decodeBody strictly decodes a bounded JSON request body into v.
func decodeBody(r *http.Request, v interface{}) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return Reject(http.StatusBadRequest, CodeBadSpec, "malformed JSON body: %v", err)
	}
	// Reject trailing garbage so "two specs in one request" fails loudly.
	if dec.More() {
		return Reject(http.StatusBadRequest, CodeBadSpec, "request body has trailing data")
	}
	return nil
}

// decodeWeight decodes a reweight body, {"weight": W}. The value itself
// is checked by the admitter, on the controller goroutine.
func decodeWeight(r *http.Request) (float64, error) {
	var body struct {
		Weight *float64 `json:"weight"`
	}
	if err := decodeBody(r, &body); err != nil {
		return 0, err
	}
	if body.Weight == nil {
		return 0, Reject(http.StatusBadRequest, CodeBadSpec, `body needs {"weight": W}`)
	}
	return *body.Weight, nil
}
