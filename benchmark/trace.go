package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/machine"
)

// A span is one timed call across a layer boundary, recorded from this
// package around the public function that crosses it (spans inside the
// program are a later change). Times are nanoseconds since the tracer's
// epoch; Parent and Link are span IDs in the same file, -1 when absent.
// Link points an HTTP mutation at the Plane.Drain that answered it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Link   int    `json:"link"`
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

func (s span) dur() int64 { return s.End - s.Start }

// maxSpans bounds a tracer's memory (~100 B a span). The admission
// workload's controller produces ~60 spans per non-idle period and would
// otherwise hold hundreds of MB by the end of a run; once full, begin
// returns -1 and the rest of the run goes unrecorded.
const maxSpans = 250_000

// tracer holds spans in memory until the run ends. It is owned by one
// goroutine: the admission workload gives the controller and the client
// a tracer each (sharing an epoch), which is what lets the controller
// drop an idle period's spans with truncate without touching the
// client's. Every method accepts the -1 a full tracer hands out.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) begin(name string, parent int) int {
	id := len(t.spans)
	if id >= maxSpans {
		return -1
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Link: -1, Name: name, Start: t.now()})
	return id
}

func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].End = t.now()
	}
}

func (t *tracer) tag(id int, tag string) {
	if id >= 0 {
		t.spans[id].Tag = tag
	}
}

// truncate drops span id and everything recorded after it.
func (t *tracer) truncate(id int) {
	if id >= 0 {
		t.spans = t.spans[:id]
	}
}

// childTime sums the durations of id's direct children.
func (t *tracer) childTime(id int) int64 {
	var total int64
	for _, s := range t.spans[id+1:] {
		if s.Parent == id {
			total += s.dur()
		}
	}
	return total
}

// writeSpans writes the tracers' spans as one JSON array, renumbering
// each tracer's IDs after the previous one's so they stay unique. A Link
// always points into the first tracer, whose IDs do not move.
func writeSpans(path string, tracers ...*tracer) error {
	var all []span
	for _, t := range tracers {
		if t == nil {
			continue
		}
		off := len(all)
		for _, s := range t.spans {
			s.ID += off
			if s.Parent >= 0 {
				s.Parent += off
			}
			all = append(all, s)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(all); err != nil {
		f.Close()
		return fmt.Errorf("trace-out: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	return nil
}

// timedTarget is the tracing core.Target: *machine.Machine with a span
// around each of the three calls a control period makes into it. The
// embedded machine forwards everything else, including the optional
// interfaces the manager probes for (AppsInto, SolveCacheDetail,
// SteadyMeasurement, Snapshot), so the manager takes exactly the paths it
// takes on a bare machine — TestTimedTargetIsTransparent pins that.
type timedTarget struct {
	*machine.Machine
	tr *tracer
	// period is the open period span the calls nest under, -1 outside one.
	period int
}

func newTimedTarget(m *machine.Machine, tr *tracer) *timedTarget {
	return &timedTarget{Machine: m, tr: tr, period: -1}
}

func (t *timedTarget) Step(dt time.Duration) error {
	id := t.tr.begin("machine.Step", t.period)
	err := t.Machine.Step(dt)
	t.tr.end(id)
	return err
}

func (t *timedTarget) ReadCounters(name string) (machine.Counters, error) {
	id := t.tr.begin("machine.ReadCounters", t.period)
	c, err := t.Machine.ReadCounters(name)
	t.tr.end(id)
	return c, err
}

func (t *timedTarget) SetAllocation(name string, a machine.Alloc) error {
	id := t.tr.begin("machine.SetAllocation", t.period)
	err := t.Machine.SetAllocation(name, a)
	t.tr.end(id)
	return err
}

// openPeriod starts a period span; closePeriod ends the open one, tags it
// and returns its ID (-1 when none was open).
func (t *timedTarget) openPeriod() {
	t.period = t.tr.begin("core.period", -1)
}

func (t *timedTarget) closePeriod(tag string) int {
	id := t.period
	if id < 0 {
		return -1
	}
	t.tr.end(id)
	t.tr.tag(id, tag)
	t.period = -1
	return id
}
