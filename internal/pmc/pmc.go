// Package pmc turns cumulative performance-monitoring counters into the
// per-period rates CoPart consumes.
//
// The paper samples three counters through PAPI (§3.2): dynamically
// executed instructions, LLC accesses, and LLC misses. The controller
// never looks at absolutes — it works with per-second rates over its
// control period (IPS for slowdowns, the LLC access rate and miss ratio
// for the LLC classifier, the miss rate for the memory-traffic ratio).
// The Sampler here computes exactly those windowed rates from any counter
// Source; the machine simulator is one Source, and a PAPI- or
// perf-events-backed implementation would be another.
package pmc

import (
	"fmt"
	"time"

	"repro/internal/machine"
)

// Source provides cumulative counters per application. *machine.Machine
// satisfies this interface.
type Source interface {
	ReadCounters(app string) (machine.Counters, error)
}

// Rates are windowed per-second counter rates.
type Rates struct {
	// IPS is instructions per second over the window.
	IPS float64
	// AccessRate is LLC accesses per second.
	AccessRate float64
	// MissRate is LLC misses per second.
	MissRate float64
	// MissRatio is misses/accesses over the window (0 when no accesses).
	MissRatio float64
	// Window is the sampling interval the rates were computed over.
	Window time.Duration
}

// Sampler tracks the previous counter snapshot per application and
// produces rates on each sampling round. A controller samples its whole
// application set once per control period through SampleAll, which finds
// every snapshot by position and updates it in place: no name lookup, no
// map write, no allocation. Sample is SampleAll over one app, for
// one-off reads. A snapshot
// allocates once, the first time an application is seen; Reset recycles
// retired snapshots through a freelist, so a pooled controller's
// relaunch cycle allocates none at all.
type Sampler struct {
	src Source
	// names/snaps hold the tracked set in insertion order: SampleAll
	// matches a sweep against them positionally, and lookup scans them
	// while the set is small — comparisons of the same interned name
	// strings hit Go's pointer-equality shortcut and beat hashing, which
	// also keeps a pooled controller's relaunch cycle (insert a few
	// names, Reset, repeat) entirely off the map.
	names []string
	snaps []*sample
	// last is materialized lazily, only once the tracked set outgrows
	// smallScan; while empty, the slices are authoritative alone.
	last  map[string]*sample
	free  []*sample
	drops int
	// window/secs are SampleAll's last distinct window and its Seconds(),
	// kept across sweeps: a controller's window is its period, every app,
	// every sweep. secs is a pure function of window, so a stale pair is
	// still a correct one and Reset and RestoreSnapshot leave it alone.
	window time.Duration
	secs   float64
}

type sample struct {
	counters machine.Counters
	at       time.Duration
}

// smallScan bounds the linear-scan fast path (see Sampler.names).
const smallScan = 8

// lookup resolves app's snapshot: a linear scan while the set is small
// enough that the map was never materialized, the map afterwards.
//
//copart:noalloc
func (s *Sampler) lookup(app string) (*sample, bool) {
	if len(s.last) == 0 {
		for i, n := range s.names {
			if n == app {
				return s.snaps[i], true
			}
		}
		return nil, false
	}
	snap, ok := s.last[app]
	return snap, ok
}

// track starts a window for a new app at (cur, now), recycling a retired
// snapshot when there is one and spilling the whole set into the map
// once it outgrows the linear-scan bound.
//
//copart:noalloc
func (s *Sampler) track(app string, cur machine.Counters, now time.Duration) {
	var snap *sample
	if n := len(s.free); n > 0 {
		snap, s.free[n-1], s.free = s.free[n-1], nil, s.free[:n-1]
		snap.counters, snap.at = cur, now
	} else {
		snap = &sample{counters: cur, at: now} //copart:allocok first sighting of an app; Reset recycles the snapshot
	}
	s.names = append(s.names, app)  //copart:allocok amortized append growth; capacity is retained across resets
	s.snaps = append(s.snaps, snap) //copart:allocok amortized append growth; capacity is retained across resets
	if len(s.last) > 0 {
		s.last[app] = snap
		return
	}
	if len(s.names) > smallScan {
		if s.last == nil {
			s.last = make(map[string]*sample, 2*smallScan) //copart:allocok one-time spill past the linear-scan bound
		}
		for i, n := range s.names {
			s.last[n] = s.snaps[i]
		}
	}
}

// NewSampler creates a sampler over src.
func NewSampler(src Source) *Sampler {
	return &Sampler{src: src}
}

// rate is the one sampling arithmetic: it re-anchors snap at (cur, now)
// and writes the rates over the window that ends there — secs is
// window.Seconds(), passed in so SampleAll converts each distinct window
// once — into r. It reports false, counting a drop and leaving r alone,
// when a counter went backwards.
//
//copart:noalloc
func (s *Sampler) rate(snap *sample, cur machine.Counters, now, window time.Duration, secs float64, r *Rates) bool {
	dInstr := cur.Instructions - snap.counters.Instructions
	dAcc := cur.LLCAccesses - snap.counters.LLCAccesses
	dMiss := cur.LLCMisses - snap.counters.LLCMisses
	snap.counters, snap.at = cur, now
	if dInstr < 0 || dAcc < 0 || dMiss < 0 {
		// A negative delta means the hardware counter wrapped around or
		// was reset (the fd died and reopened, the app restarted). The
		// absolute values carry no usable window, so the sample is
		// dropped rather than turned into a bogus rate; the snapshot
		// update above re-anchors the next window at the post-wrap values.
		s.drops++
		return false
	}
	*r = Rates{IPS: dInstr / secs, AccessRate: dAcc / secs, MissRate: dMiss / secs, Window: window}
	if dAcc > 0 {
		r.MissRatio = dMiss / dAcc
	}
	return true
}

// Sample reads app's counters at virtual time now and returns the rates
// since the previous call: a one-app SampleAll. The boolean is false on
// the first call for an application (there is no window yet; the
// snapshot is still recorded), on a re-sample at the same instant (the
// snapshot stays anchored) and on a dropped sample.
func (s *Sampler) Sample(app string, now time.Duration) (Rates, bool, error) {
	apps, out := [1]string{app}, [1]Rates{}
	noWindow, err := s.SampleAll(apps[:], now, out[:])
	return out[0], err == nil && noWindow < 0, err
}

// SampleAll is one sampling sweep: it reads each of apps in order at
// virtual time now and writes the rates since that app's previous sample
// in place into out. An app's first sighting only records its snapshot;
// a re-sample at the same instant leaves the snapshot anchored where it
// was; a window that runs backwards is an error; a counter that went
// backwards drops the sample and re-anchors. Given an out it is a
// measuring sweep and stops at the first app whose read fails (err) or
// that has no usable window (first sighting, zero window, dropped
// sample). It returns that app's index, every later snapshot untouched,
// or -1 when out[:len(apps)] is complete. A nil out makes it an
// anchoring sweep, which only an error stops. When apps is the tracked
// set in insertion order — the shape a controller presents every period
// — each snapshot is found by position; any other app is looked up.
//
//copart:noalloc
func (s *Sampler) SampleAll(apps []string, now time.Duration, out []Rates) (noWindow int, err error) {
	aligned := len(apps) == len(s.names)
	var discard Rates // where an anchoring sweep's rates go
	for i, app := range apps {
		cur, err := s.src.ReadCounters(app)
		if err != nil {
			return i, err
		}
		var snap *sample
		if aligned && s.names[i] == app {
			snap = s.snaps[i]
		} else if snap, _ = s.lookup(app); snap == nil {
			s.track(app, cur, now)
		}
		ok := false
		if snap != nil && now != snap.at {
			w := now - snap.at
			if w < 0 {
				return i, negativeWindow(w, app)
			}
			if w != s.window {
				s.window, s.secs = w, w.Seconds()
			}
			r := &discard
			if out != nil {
				r = &out[i]
			}
			ok = s.rate(snap, cur, now, w, s.secs, r)
		}
		if !ok && out != nil {
			return i, nil
		}
	}
	return -1, nil
}

func negativeWindow(window time.Duration, app string) error {
	return fmt.Errorf("pmc: negative window %v for %s", window, app)
}

// Drops reports how many samples were discarded because a counter went
// backwards (wraparound or reset) since the sampler was created.
func (s *Sampler) Drops() int { return s.drops }

// Forget drops the stored snapshot for app (e.g. after the application
// terminates and a same-named one may launch later).
func (s *Sampler) Forget(app string) {
	delete(s.last, app)
	for i, n := range s.names {
		if n == app {
			s.names = append(s.names[:i], s.names[i+1:]...)
			s.snaps = append(s.snaps[:i], s.snaps[i+1:]...)
			break
		}
	}
	// The map, once materialized, stays authoritative even if the set
	// shrinks back under the scan bound — lookup switches on len(last).
}

// Reset drops all snapshots, recycling them through the freelist so the
// next tenant's first sightings allocate nothing (map buckets are kept
// too). Drops are cumulative across tenants, matching the doc on Drops.
//
//copart:noalloc
func (s *Sampler) Reset() {
	for i, snap := range s.snaps {
		*snap = sample{}
		s.free = append(s.free, snap) //copart:allocok amortized append growth; capacity is retained across resets
		s.names[i] = ""
		s.snaps[i] = nil
	}
	s.names = s.names[:0]
	s.snaps = s.snaps[:0]
	clear(s.last)
}
