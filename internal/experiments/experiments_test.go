package experiments

import (
	"strings"
	"testing"

	"repro/internal/machine"
)

func cfg() machine.Config { return machine.DefaultConfig() }

func TestTable1(t *testing.T) {
	tab := Table1(cfg())
	out := tab.String()
	for _, want := range []string{"16 cores", "22MB", "11 ways", "28GB/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2(t *testing.T) {
	rows, tab, err := Table2(cfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("got %d rows, want 11", len(rows))
	}
	if tab.NumRows() != 11 {
		t.Fatalf("table has %d rows", tab.NumRows())
	}
	for _, r := range rows {
		if r.AccRate <= 0 || r.MissRate < 0 {
			t.Errorf("%s: non-positive rates %v/%v", r.Name, r.AccRate, r.MissRate)
		}
		if r.MissRate > r.AccRate {
			t.Errorf("%s: more misses than accesses", r.Name)
		}
	}
}

func TestFigureBenches(t *testing.T) {
	for fig := 1; fig <= 3; fig++ {
		names, err := FigureBenches(fig)
		if err != nil || len(names) != 3 {
			t.Errorf("FigureBenches(%d)=%v,%v", fig, names, err)
		}
	}
	if _, err := FigureBenches(9); err == nil {
		t.Error("unknown figure should error")
	}
}

func TestPerfHeatmapShapes(t *testing.T) {
	// Figure 1 shape for WN: strong ways gradient, flat MBA gradient at
	// full ways. Figure 2 shape for CG: the reverse.
	gridWN, hm, err := PerfHeatmap(cfg(), "WN")
	if err != nil {
		t.Fatal(err)
	}
	if hm.String() == "" {
		t.Error("empty heatmap rendering")
	}
	nW := len(gridWN.Ways)
	nL := len(gridWN.Levels)
	if gridWN.Norm[0][nL-1] > 0.85*gridWN.Norm[nW-1][nL-1] {
		t.Errorf("WN should lose >15%% from 11→1 ways: %v vs %v",
			gridWN.Norm[0][nL-1], gridWN.Norm[nW-1][nL-1])
	}
	if gridWN.Norm[nW-1][0] < 0.99*gridWN.Norm[nW-1][nL-1] {
		t.Errorf("WN at full ways should be MBA-insensitive: %v vs %v",
			gridWN.Norm[nW-1][0], gridWN.Norm[nW-1][nL-1])
	}

	gridCG, _, err := PerfHeatmap(cfg(), "CG")
	if err != nil {
		t.Fatal(err)
	}
	if gridCG.Norm[nW-1][0] > 0.85*gridCG.Norm[nW-1][nL-1] {
		t.Errorf("CG should lose >15%% from MBA 100→10: %v vs %v",
			gridCG.Norm[nW-1][0], gridCG.Norm[nW-1][nL-1])
	}
	if gridCG.Norm[0][nL-1] < 0.85*gridCG.Norm[nW-1][nL-1] {
		t.Errorf("CG should be nearly ways-insensitive: %v vs %v",
			gridCG.Norm[0][nL-1], gridCG.Norm[nW-1][nL-1])
	}
	// All tiles normalized into (0, 1].
	for _, grid := range []PerfGrid{gridWN, gridCG} {
		for i := range grid.Norm {
			for j := range grid.Norm[i] {
				v := grid.Norm[i][j]
				if v <= 0 || v > 1+1e-9 {
					t.Fatalf("tile (%d,%d)=%v out of range", i, j, v)
				}
			}
		}
	}
}

func TestPerfHeatmapUnknownBench(t *testing.T) {
	if _, _, err := PerfHeatmap(cfg(), "nope"); err == nil {
		t.Error("unknown benchmark should error")
	}
}

func TestFairnessHeatmapFig4(t *testing.T) {
	grid, hm, err := FairnessHeatmap(cfg(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if hm.String() == "" {
		t.Error("empty rendering")
	}
	if grid.NoneUnfair <= 0 {
		t.Fatalf("unpartitioned unfairness %v", grid.NoneUnfair)
	}
	// The paper's headline observation: for the LLC-sensitive mix, a
	// partitioning that matches the working sets — (5,3,2,1) — beats a
	// severely skewed one like (1,2,3,5) at full MBA.
	var good, bad float64 = -1, -1
	for r, ways := range grid.LLCParts {
		label := tupleLabel(ways)
		if label == "(5,3,2,1)" {
			good = grid.Norm[r][0]
		}
		if label == "(1,2,3,5)" {
			bad = grid.Norm[r][0]
		}
	}
	if good < 0 || bad < 0 {
		t.Fatal("expected partitions missing from the grid")
	}
	if good >= bad {
		t.Errorf("(5,3,2,1) should be fairer than (1,2,3,5): %v vs %v", good, bad)
	}
}

func TestFairnessHeatmapFig5BWDominated(t *testing.T) {
	grid, _, err := FairnessHeatmap(cfg(), 5)
	if err != nil {
		t.Fatal(err)
	}
	// For the BW-sensitive mix, at the equal LLC split, throttling the
	// two most BW-hungry apps to 10 % — column (10,10,10,10) vs
	// (100,100,100,100) — must hurt fairness.
	row := 0 // (3,3,3,2) equal split
	colFree, colStarved := -1, -1
	for c, mba := range grid.MBAParts {
		switch tupleLabel(mba) {
		case "(100,100,100,100)":
			colFree = c
		case "(10,10,10,10)":
			colStarved = c
		}
	}
	if colFree < 0 || colStarved < 0 {
		t.Fatal("expected MBA columns missing")
	}
	if grid.Norm[row][colStarved] <= grid.Norm[row][colFree] {
		t.Errorf("starving BW-sensitive apps should raise unfairness: %v vs %v",
			grid.Norm[row][colStarved], grid.Norm[row][colFree])
	}
}

func TestFairnessHeatmapUnknownFig(t *testing.T) {
	if _, _, err := FairnessHeatmap(cfg(), 12); err == nil {
		t.Error("unknown figure should error")
	}
}

// TestSTFirstIsPermutation pins the fairness matrix's dispatch order: every
// cell is handed out exactly once, the ST policy's first.
func TestSTFirstIsPermutation(t *testing.T) {
	for mixes := 1; mixes <= 8; mixes++ {
		for pols := 1; pols <= 7; pols++ {
			for st := -1; st < pols; st++ {
				seen := make(map[[2]int]bool)
				for k := 0; k < mixes*pols; k++ {
					mi, pi := stFirst(k, mixes, pols, st)
					if mi < 0 || mi >= mixes || pi < 0 || pi >= pols || seen[[2]int{mi, pi}] {
						t.Fatalf("%d mixes, %d policies, ST at %d: cell %d is (%d, %d), out of range or repeated", mixes, pols, st, k, mi, pi)
					}
					seen[[2]int{mi, pi}] = true
					if st >= 0 && (k < mixes) != (pi == st) {
						t.Errorf("%d mixes, %d policies, ST at %d: cell %d is policy %d", mixes, pols, st, k, pi)
					}
				}
			}
		}
	}
}
