package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/policies"
)

// checkGolden compares a figure's stdout, byte for byte, with
// testdata/<name>.golden. The files were captured from the commit before
// the ST oracle became a seeded branch and bound (PR 16's parent); a
// speed-only change must leave them alone, and a model change
// regenerates them with `go run ./cmd/evaluate <flags> > testdata/<name>.golden`.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: stdout differs from the golden\n--- got\n%s--- want\n%s", name, got, want)
	}
}

func TestRunFigure12(t *testing.T) {
	e0, s0 := policies.STStates()
	var out bytes.Buffer
	if err := run(&out, 12, 1, false); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig12", out.Bytes())
	// The oracle solves the seed of each of the seven mixes and the states
	// whose own bound does not exceed the optimum (DESIGN.md §9.1).
	if e1, s1 := policies.STStates(); e1-e0 != 215040 || s1-s0 != 7165 {
		t.Errorf("ST solved %d of %d states, want 7165 of 215040", s1-s0, e1-e0)
	}
	var line bytes.Buffer
	reportST(&line)
	if !regexp.MustCompile(`^ST: solved \d+ of \d+ states\n$`).Match(line.Bytes()) {
		t.Errorf("stderr line %q", line.String())
	}
}

func TestRunFigure12Extended(t *testing.T) {
	if testing.Short() {
		t.Skip("extended policy sweep")
	}
	var out bytes.Buffer
	if err := run(&out, 12, 1, true); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig12_extended", out.Bytes())
}

func TestRunSweepFigures(t *testing.T) {
	for _, fig := range []int{13, 14, 17} {
		var out bytes.Buffer
		if err := run(&out, fig, 1, false); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, fmt.Sprintf("fig%d", fig), out.Bytes())
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if err := run(io.Discard, 99, 1, false); err == nil {
		t.Error("unknown figure should error")
	}
}

func TestPaperHeadline(t *testing.T) {
	for _, base := range []string{"EQ", "CAT-only", "MBA-only"} {
		if paperHeadline(base) == "n/a" {
			t.Errorf("missing paper headline for %s", base)
		}
	}
	if paperHeadline("other") != "n/a" {
		t.Error("unknown base should be n/a")
	}
}

func TestRunDualSocket(t *testing.T) {
	var out bytes.Buffer
	if err := runDualSocket(&out, 1); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "dualsocket", out.Bytes())
}

func TestRunWritesSVG(t *testing.T) {
	dir := t.TempDir()
	svgOut = dir
	defer func() { svgOut = "" }()
	if err := run(io.Discard, 12, 1, false); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig12.svg")); err != nil {
		t.Errorf("missing SVG: %v", err)
	}
}
