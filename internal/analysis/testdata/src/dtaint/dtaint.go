// Package dtaint is the scoped half of the import-closure fixture: its
// own sources are findings, and so are those of every module package it
// imports (fixture/dtaintlib), whether or not anything calls them.
package dtaint

import (
	"time"

	"fixture/dtaintlib"
)

// Run uses the imported package, which puts it in scope.
func Run() int64 {
	return dtaintlib.Stamp().UnixNano() + helper().UnixNano()
}

func helper() time.Time {
	return time.Now() // want "wall-clock read time.Now in deterministic package; inject a clock or annotate with //copart:wallclock <reason>$"
}

// orphan is unreachable from anything exported: still a finding.
func orphan() time.Time {
	return time.Now() // want "wall-clock read time.Now in deterministic package"
}

// suppressedInScope documents its intentional read.
func suppressedInScope() time.Time {
	return time.Now() //copart:wallclock fixture: latency telemetry, excluded from results
}
