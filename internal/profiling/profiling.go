// Package profiling wires the standard runtime profilers into the
// command-line tools. The heavy commands (evaluate, fleetbench) accept
// -cpuprofile/-memprofile flags so the experiment engine's hot paths can
// be inspected with `go tool pprof` without a test harness.
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling into cpuPath (when non-empty) and arranges
// for a heap profile to be written to memPath (when non-empty). The
// returned stop function must be called exactly once, after the workload
// finishes; it flushes both profiles. Either path may be empty, in which
// case that profile is skipped and stop is still safe to call.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("profiling: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("profiling: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("profiling: %w", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return fmt.Errorf("profiling: %w", err)
			}
			defer f.Close()
			// Get up-to-date allocation statistics before snapshotting.
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("profiling: %w", err)
			}
			return f.Close()
		}
		return nil
	}, nil
}
