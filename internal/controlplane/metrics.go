package controlplane

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"
)

// handleMetrics renders Prometheus text-format metrics. The encoding is
// hand-rolled (stdlib only) and emitted in a fixed order — metric
// families sorted, label sets sorted within a family — so scrapes are
// byte-stable for a given state and trivially diffable in tests.
func (p *Plane) handleMetrics(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	var b strings.Builder
	b.Grow(2048)

	writeMetric(&b, "copart_admission_ops_total",
		"counter", "Admission operations by op and outcome.", func(b *strings.Builder) {
			keys := make([]string, 0, len(p.admissions))
			for k := range p.admissions {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				i := strings.LastIndexByte(k, '_')
				fmt.Fprintf(b, "copart_admission_ops_total{op=%q,outcome=%q} %d\n",
					k[:i], k[i+1:], p.admissions[k])
			}
		})

	boolGauge := func(v bool) int {
		if v {
			return 1
		}
		return 0
	}
	writeMetric(&b, "copart_controller_degraded",
		"gauge", "1 while the resilience watchdog holds the safe EQ allocation.", func(b *strings.Builder) {
			fmt.Fprintf(b, "copart_controller_degraded %d\n", boolGauge(p.degraded))
		})
	writeMetric(&b, "copart_controller_degraded_transitions_total",
		"counter", "Transitions into degraded mode.", func(b *strings.Builder) {
			fmt.Fprintf(b, "copart_controller_degraded_transitions_total %d\n", p.degradedTransitions)
		})
	writeMetric(&b, "copart_controller_draining",
		"gauge", "1 once graceful shutdown has begun.", func(b *strings.Builder) {
			fmt.Fprintf(b, "copart_controller_draining %d\n", boolGauge(p.draining))
		})
	writeMetric(&b, "copart_controller_fail_streak",
		"gauge", "Consecutive failed control periods.", func(b *strings.Builder) {
			fmt.Fprintf(b, "copart_controller_fail_streak %d\n", p.failStreak)
		})
	writeMetric(&b, "copart_controller_phase",
		"gauge", "Controller phase (one-hot across phase labels).", func(b *strings.Builder) {
			cur := p.phase.String()
			for _, ph := range []string{"profiling", "exploration", "idle", "degraded"} {
				fmt.Fprintf(b, "copart_controller_phase{phase=%q} %d\n", ph, boolGauge(ph == cur))
			}
		})
	writeMetric(&b, "copart_periods_total",
		"counter", "Control periods observed by the control plane.", func(b *strings.Builder) {
			fmt.Fprintf(b, "copart_periods_total %d\n", p.periods)
		})

	if p.latFull || p.latPos > 0 {
		n := p.latPos
		if p.latFull {
			n = len(p.lats)
		}
		var sum time.Duration
		max := time.Duration(0)
		for _, d := range p.lats[:n] {
			sum += d
			if d > max {
				max = d
			}
		}
		writeMetric(&b, "copart_period_wall_seconds",
			"gauge", "Wall-clock seconds between recent control periods (mean and max over a 128-period window).",
			func(b *strings.Builder) {
				fmt.Fprintf(b, "copart_period_wall_seconds{stat=\"mean\"} %g\n",
					(sum / time.Duration(n)).Seconds())
				fmt.Fprintf(b, "copart_period_wall_seconds{stat=\"max\"} %g\n", max.Seconds())
			})
	}

	writeMetric(&b, "copart_snapshots_total",
		"counter", "State snapshots served.", func(b *strings.Builder) {
			fmt.Fprintf(b, "copart_snapshots_total %d\n", p.snapshots)
		})

	if p.haveReport {
		writeMetric(&b, "copart_unfairness",
			"gauge", "Unfairness (CoV of weighted slowdowns) at the last control period.", func(b *strings.Builder) {
				fmt.Fprintf(b, "copart_unfairness %g\n", p.last.Unfairness)
			})
		// App labels are quoted with %q, which writes only the text
		// format's \\ and \" escapes because AppSpec.validate admits
		// printable names only; anything else would come out as \x or \u.
		writeMetric(&b, "copart_app_slowdown",
			"gauge", "Per-application slowdown at the last control period.", func(b *strings.Builder) {
				// Report order is the manager's stable app order; keep it.
				for i, name := range p.last.Apps {
					if i < len(p.last.Slowdowns) {
						fmt.Fprintf(b, "copart_app_slowdown{app=%q} %g\n", name, p.last.Slowdowns[i])
					}
				}
			})
		writeMetric(&b, "copart_app_llc_ways",
			"gauge", "LLC ways allocated per application.", func(b *strings.Builder) {
				for i, name := range p.last.Apps {
					if i < len(p.last.State.Ways) {
						fmt.Fprintf(b, "copart_app_llc_ways{app=%q} %d\n", name, p.last.State.Ways[i])
					}
				}
			})
		writeMetric(&b, "copart_app_mba_level",
			"gauge", "MBA throttle level per application.", func(b *strings.Builder) {
				for i, name := range p.last.Apps {
					if i < len(p.last.State.MBA) {
						fmt.Fprintf(b, "copart_app_mba_level{app=%q} %d\n", name, p.last.State.MBA[i])
					}
				}
			})
	}
	p.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(b.String())) //nolint:errcheck
}

// writeMetric emits one metric family: HELP, TYPE, then samples.
func writeMetric(b *strings.Builder, name, typ, help string, samples func(*strings.Builder)) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	samples(b)
}
