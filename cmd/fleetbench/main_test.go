package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// runReport runs the tool and returns its report.
func runReport(t *testing.T, o options) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(&buf, o); err != nil {
		t.Fatal(err)
	}
	t.Log(buf.String())
	if !strings.Contains(buf.String(), "determinism:      verified") {
		t.Errorf("report lacks the determinism verdict")
	}
	return buf.String()
}

// TestRun also pins the runtime-pool line: every node of a run reuses a
// warm runtime or builds one, so hits + carries + misses is the node
// count, carries are printed, and the ratio counts them as warm — a
// block of 4 nodes carries 3, which a hits-only ratio reported as 0 %.
func TestRun(t *testing.T) {
	o := options{nodes: 8, periods: 10, workers: 1, seed: 1, block: 4, verify: true}
	runReport(t, o) // warm the pool: the second run below misses nothing
	report := runReport(t, o)
	var warm float64
	var hits, carries, misses, evictions, free int
	line := report[strings.Index(report, "runtime pool:"):]
	if _, err := fmt.Sscanf(line, "runtime pool: %f%% warm (%d hits, %d carries, %d misses, %d evictions, %d free)",
		&warm, &hits, &carries, &misses, &evictions, &free); err != nil {
		t.Fatalf("runtime pool line %q: %v", strings.SplitN(line, "\n", 2)[0], err)
	}
	if hits != 2 || carries != 6 || misses != 0 || warm != 100 {
		t.Errorf("warm 8-node run in blocks of 4: %.1f%% warm, %d hits, %d carries, %d misses; want 100%%, 2, 6, 0",
			warm, hits, carries, misses)
	}
}

func TestRunChurn(t *testing.T) {
	runReport(t, options{nodes: 16, periods: 4, workers: 2, seed: 1, verify: true, churn: true})
}
