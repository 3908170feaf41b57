package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/policies"
)

// wallClock matches a Figure 16 row, "apps  mean time (µs)  share of 1s
// period": its two timing columns are the only host-dependent bytes any
// experiment prints.
var wallClock = regexp.MustCompile(`(?m)^([3-6]) +[0-9.]+ +[0-9.e+-]+$`)

// goldenName is the testdata/<name>.golden an ID's stdout is compared with.
func goldenName(id string) string {
	switch {
	case id == "extended":
		return "fig12_extended"
	case id[0] >= '0' && id[0] <= '9':
		return "fig" + id
	}
	return id
}

// TestRunGolden compares every experiment's stdout, byte for byte, with
// testdata/<name>.golden. The files were captured from the seven commands
// this one replaced, at its parent commit (fig12, fig12_extended, fig13,
// fig14, fig17 and dualsocket earlier still, at PR 16's parent); a
// speed-only change must leave them alone, and a model change regenerates
// them with `go run ./cmd/evaluate -fig ID > testdata/<name>.golden`.
func TestRunGolden(t *testing.T) {
	ids := []string{"CG"}
	for _, f := range figures {
		ids = append(ids, f.id)
	}
	for _, id := range ids {
		t.Run(id, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(&out, id); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", goldenName(id)+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			got := out.Bytes()
			if id == "16" || id == "convergence" {
				got = wallClock.ReplaceAll(got, []byte("$1 <wall clock>"))
				want = wallClock.ReplaceAll(want, []byte("$1 <wall clock>"))
			}
			if !bytes.Equal(got, want) {
				t.Errorf("stdout differs from %s.golden\n--- got\n%s--- want\n%s", goldenName(id), got, want)
			}
		})
	}
}

func TestRunFigure12(t *testing.T) {
	e0, s0 := policies.STStates()
	if err := run(io.Discard, "12"); err != nil {
		t.Fatal(err)
	}
	// The oracle solves the seed of each of the seven mixes and the states
	// whose own bound does not exceed the optimum (DESIGN.md §9.1), up to
	// the first state in order at 0 on IS, where the search ends.
	if e1, s1 := policies.STStates(); e1-e0 != 215040 || s1-s0 != 5142 {
		t.Errorf("ST solved %d of %d states, want 5142 of 215040", s1-s0, e1-e0)
	}
	var line bytes.Buffer
	reportST(&line)
	if !regexp.MustCompile(`^ST: solved \d+ of \d+ states\n$`).Match(line.Bytes()) {
		t.Errorf("stderr line %q", line.String())
	}
}

// setOut points -out at dir for the rest of the test.
func setOut(t *testing.T, dir string) {
	outDir = dir
	t.Cleanup(func() { outDir = "" })
}

// TestRunFigure12Extended: the extended table's chart is its own file, so
// writing both into one -out directory keeps the seven-policy chart.
func TestRunFigure12Extended(t *testing.T) {
	dir := t.TempDir()
	setOut(t, dir)
	for _, id := range []string{"12", "extended"} {
		if err := run(io.Discard, id); err != nil {
			t.Fatal(err)
		}
	}
	plain, err := os.ReadFile(filepath.Join(dir, "fig12.svg"))
	if err != nil {
		t.Fatal(err)
	}
	ext, err := os.ReadFile(filepath.Join(dir, "fig12_extended.svg"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(plain, ext) {
		t.Error("fig12.svg and fig12_extended.svg are the same chart")
	}
}

// wantUnknown checks that each of ids is rejected with an error that lists
// the valid IDs.
func wantUnknown(t *testing.T, ids ...string) {
	t.Helper()
	for _, id := range ids {
		err := run(io.Discard, id)
		if err == nil {
			t.Errorf("-fig %q should error", id)
			continue
		}
		for _, valid := range []string{"table1", "11a", "convergence", "ablation", "CG"} {
			if !strings.Contains(err.Error(), valid) {
				t.Errorf("-fig %q: error %q does not list %s", id, err, valid)
			}
		}
	}
}

func TestRunUnknownFigure(t *testing.T) {
	wantUnknown(t, "99", "0", "fig12")
}

// TestRunErrors: nothing to do, a figure the paper does not have, and a
// benchmark Table 2 does not list (once characterize's three errors).
func TestRunErrors(t *testing.T) {
	wantUnknown(t, "", "9", "nope")
}

// TestRunUnknownFairnessFigure: only 4, 5 and 6 are fairness heatmaps.
func TestRunUnknownFairnessFigure(t *testing.T) {
	wantUnknown(t, "7", "fig4")
}

// TestRunUnknownSubFigure: Figure 11 has sub-figures a, b and c only.
func TestRunUnknownSubFigure(t *testing.T) {
	wantUnknown(t, "11d", "bogus", "perf")
}

// wantSVGs runs id with -out set and checks that each of files lands
// under it as an SVG, named on stdout.
func wantSVGs(t *testing.T, id string, files ...string) {
	t.Helper()
	dir := t.TempDir()
	setOut(t, dir)
	var out bytes.Buffer
	if err := run(&out, id); err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		path := filepath.Join(dir, name)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(b), "<svg") {
			t.Errorf("%s: not an SVG: %.40s", name, b)
		}
		if !strings.Contains(out.String(), path+"\n") {
			t.Errorf("-fig %s stdout does not name %s", id, path)
		}
	}
}

// TestRunWritesSVG: each chart lands under -out with its old file name,
// and stdout names it.
func TestRunWritesSVG(t *testing.T) {
	wantSVGs(t, "12", "fig12.svg")
	wantSVGs(t, "1", "perf_WN.svg", "perf_WS.svg", "perf_RT.svg")
	wantSVGs(t, "CG", "perf_CG.svg")
	wantSVGs(t, "13", "fig13.svg")
}

func TestRunWritesPerfSVG(t *testing.T) {
	wantSVGs(t, "WN", "perf_WN.svg")
}

func TestRunWritesFairnessSVG(t *testing.T) {
	wantSVGs(t, "4", "fig4.svg")
}

func TestRunWritesCaseStudySVG(t *testing.T) {
	wantSVGs(t, "15", "fig15.svg")
}

// TestRunWritesCSV: Figure 15's file is the full timeline, not the
// every-10th-period table stdout shows.
func TestRunWritesCSV(t *testing.T) {
	dir := t.TempDir()
	setOut(t, dir)
	if err := run(io.Discard, "15"); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "fig15.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) < 300 {
		t.Fatalf("CSV has %d lines, want the full timeline", len(lines))
	}
	if !strings.HasPrefix(lines[0], "t_seconds,load_rps") {
		t.Errorf("CSV header: %s", lines[0])
	}
	if !strings.Contains(string(b), "150000") {
		t.Error("CSV missing the high-load phase")
	}
}

func TestRunOutIsFile(t *testing.T) {
	file := filepath.Join(t.TempDir(), "regular")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	setOut(t, file)
	for _, id := range []string{"4", "15"} {
		if err := run(io.Discard, id); err == nil {
			t.Errorf("-fig %s with -out a regular file should error", id)
		}
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
