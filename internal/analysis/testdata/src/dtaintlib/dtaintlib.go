// Package dtaintlib matches no scope prefix of the determinism fixture,
// but fixture/dtaint imports it, so it is deterministic code too: every
// source in it is a finding, called from the scoped package or not.
package dtaintlib

import (
	"math/rand"
	"time"
)

// Stamp is called by dtaint.Run.
func Stamp() time.Time {
	return time.Now() // want "wall-clock read time.Now in deterministic package"
}

// Draw uses the global rand source.
func Draw() int {
	return rand.Int() // want "top-level rand.Int draws from the global unseeded source"
}

// Unreached is called by nothing: a finding all the same.
func Unreached() time.Time {
	return time.Now() // want "wall-clock read time.Now in deterministic package"
}

// Suppressed is annotated at the source, where the fix would go.
func Suppressed() time.Time {
	return time.Now() //copart:wallclock fixture: out-of-band latency probe, never feeds results
}
