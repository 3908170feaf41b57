package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/membw"
)

func rng() *rand.Rand { return rand.New(rand.NewSource(1)) }

func TestAllocStateValidate(t *testing.T) {
	ok := AllocState{Ways: []int{5, 3, 2, 1}, MBA: []int{100, 50, 20, 10}}
	if err := ok.Validate(11); err != nil {
		t.Fatal(err)
	}
	bads := []struct {
		name string
		st   AllocState
	}{
		{"length mismatch", AllocState{Ways: []int{1}, MBA: []int{10, 10}}},
		{"zero ways", AllocState{Ways: []int{0, 2}, MBA: []int{10, 10}}},
		{"oversubscribed", AllocState{Ways: []int{6, 6}, MBA: []int{10, 10}}},
		{"bad mba", AllocState{Ways: []int{1, 1}, MBA: []int{10, 15}}},
	}
	for _, b := range bads {
		if err := b.st.Validate(11); err == nil {
			t.Errorf("%s: should be invalid", b.name)
		}
	}
}

func TestAllocStateCloneEqual(t *testing.T) {
	a := AllocState{Ways: []int{2, 3}, MBA: []int{40, 60}}
	b := a.Clone()
	if !a.Equal(b) {
		t.Error("clone should equal original")
	}
	b.Ways[0] = 9
	if a.Ways[0] == 9 {
		t.Error("clone must not share storage")
	}
	if a.Equal(b) {
		t.Error("modified clone should differ")
	}
	if a.Equal(AllocState{Ways: []int{2}, MBA: []int{40}}) {
		t.Error("different lengths should differ")
	}
	c := a.Clone()
	c.MBA[1] = 100
	if a.Equal(c) {
		t.Error("MBA difference should be detected")
	}
}

func TestGetNextSystemStateTransfersWay(t *testing.T) {
	// App 0 supplies LLC, app 1 demands it and is more slowed.
	cur := AllocState{Ways: []int{6, 5}, MBA: []int{50, 50}}
	apps := []AppInfo{
		{LLCState: Supply, MBAState: Maintain, Slowdown: 1.1},
		{LLCState: Demand, MBAState: Maintain, Slowdown: 2.0},
	}
	next, err := GetNextSystemState(cur, apps, 11, rng())
	if err != nil {
		t.Fatal(err)
	}
	if next.Ways[0] != 5 || next.Ways[1] != 6 {
		t.Errorf("expected one way to move 0→1, got %v", next.Ways)
	}
	if next.MBA[0] != 50 || next.MBA[1] != 50 {
		t.Errorf("MBA should be untouched, got %v", next.MBA)
	}
}

func TestGetNextSystemStateTransfersMBA(t *testing.T) {
	cur := AllocState{Ways: []int{6, 5}, MBA: []int{50, 50}}
	apps := []AppInfo{
		{LLCState: Maintain, MBAState: Supply, Slowdown: 1.0},
		{LLCState: Maintain, MBAState: Demand, Slowdown: 1.8},
	}
	next, err := GetNextSystemState(cur, apps, 11, rng())
	if err != nil {
		t.Fatal(err)
	}
	if next.MBA[0] != 40 || next.MBA[1] != 60 {
		t.Errorf("expected one MBA step 0→1, got %v", next.MBA)
	}
	if next.Ways[0] != 6 || next.Ways[1] != 5 {
		t.Errorf("ways should be untouched, got %v", next.Ways)
	}
}

func TestGetNextSystemStateNoProducersNoChange(t *testing.T) {
	cur := AllocState{Ways: []int{6, 5}, MBA: []int{50, 50}}
	apps := []AppInfo{
		{LLCState: Demand, MBAState: Demand, Slowdown: 2.0},
		{LLCState: Demand, MBAState: Demand, Slowdown: 2.1},
	}
	next, err := GetNextSystemState(cur, apps, 11, rng())
	if err != nil {
		t.Fatal(err)
	}
	if !next.Equal(cur) {
		t.Errorf("no producers: state should be unchanged, got %+v", next)
	}
}

func TestGetNextSystemStateLastWayNotSupplied(t *testing.T) {
	// A Supply app holding a single way cannot give it (min 1 way/CLOS).
	cur := AllocState{Ways: []int{1, 10}, MBA: []int{50, 50}}
	apps := []AppInfo{
		{LLCState: Supply, MBAState: Maintain, Slowdown: 1.0},
		{LLCState: Demand, MBAState: Maintain, Slowdown: 2.0},
	}
	next, err := GetNextSystemState(cur, apps, 11, rng())
	if err != nil {
		t.Fatal(err)
	}
	if !next.Equal(cur) {
		t.Errorf("single-way supplier should not yield, got %+v", next)
	}
}

func TestGetNextSystemStateMinMBANotSupplied(t *testing.T) {
	cur := AllocState{Ways: []int{6, 5}, MBA: []int{10, 50}}
	apps := []AppInfo{
		{LLCState: Maintain, MBAState: Supply, Slowdown: 1.0},
		{LLCState: Maintain, MBAState: Demand, Slowdown: 2.0},
	}
	next, err := GetNextSystemState(cur, apps, 11, rng())
	if err != nil {
		t.Fatal(err)
	}
	if !next.Equal(cur) {
		t.Errorf("min-MBA supplier should not yield, got %+v", next)
	}
}

func TestGetNextSystemStateFavorsHighestSlowdown(t *testing.T) {
	// One producer, two LLC demanders: the more slowed one must win.
	cur := AllocState{Ways: []int{5, 3, 3}, MBA: []int{50, 50, 50}}
	apps := []AppInfo{
		{LLCState: Supply, MBAState: Maintain, Slowdown: 1.0},
		{LLCState: Demand, MBAState: Maintain, Slowdown: 1.5},
		{LLCState: Demand, MBAState: Maintain, Slowdown: 3.0},
	}
	next, err := GetNextSystemState(cur, apps, 11, rng())
	if err != nil {
		t.Fatal(err)
	}
	if next.Ways[2] != 4 {
		t.Errorf("most slowed demander should receive the way: %v", next.Ways)
	}
	if next.Ways[1] != 3 {
		t.Errorf("less slowed demander should not: %v", next.Ways)
	}
}

func TestGetNextSystemStateReclaimsFromLeastSlowed(t *testing.T) {
	// Two producers, one consumer: the way comes from the LEAST slowed
	// producer (second step of Algorithm 2).
	cur := AllocState{Ways: []int{4, 4, 3}, MBA: []int{50, 50, 50}}
	apps := []AppInfo{
		{LLCState: Supply, MBAState: Maintain, Slowdown: 1.4},
		{LLCState: Supply, MBAState: Maintain, Slowdown: 1.1},
		{LLCState: Demand, MBAState: Maintain, Slowdown: 2.5},
	}
	next, err := GetNextSystemState(cur, apps, 11, rng())
	if err != nil {
		t.Fatal(err)
	}
	if next.Ways[1] != 3 {
		t.Errorf("least slowed producer should yield: %v", next.Ways)
	}
	if next.Ways[0] != 4 {
		t.Errorf("more slowed producer should keep its ways: %v", next.Ways)
	}
	if next.Ways[2] != 4 {
		t.Errorf("consumer should gain: %v", next.Ways)
	}
}

func TestGetNextSystemStateANYProducerServesEither(t *testing.T) {
	// App 0 supplies both; app 1 demands only MBA. The ANY pool serves it.
	cur := AllocState{Ways: []int{6, 5}, MBA: []int{50, 50}}
	apps := []AppInfo{
		{LLCState: Supply, MBAState: Supply, Slowdown: 1.0},
		{LLCState: Maintain, MBAState: Demand, Slowdown: 2.0},
	}
	next, err := GetNextSystemState(cur, apps, 11, rng())
	if err != nil {
		t.Fatal(err)
	}
	if next.MBA[1] != 60 || next.MBA[0] != 40 {
		t.Errorf("ANY producer should supply the MBA demand: %+v", next)
	}
}

func TestGetNextSystemStateDualConsumer(t *testing.T) {
	// A dual demander against a dual supplier receives exactly one unit
	// (of either kind) per round.
	cur := AllocState{Ways: []int{6, 5}, MBA: []int{50, 50}}
	apps := []AppInfo{
		{LLCState: Supply, MBAState: Supply, Slowdown: 1.0},
		{LLCState: Demand, MBAState: Demand, Slowdown: 2.0},
	}
	next, err := GetNextSystemState(cur, apps, 11, rng())
	if err != nil {
		t.Fatal(err)
	}
	wayMoved := next.Ways[1] == 6 && next.Ways[0] == 5
	mbaMoved := next.MBA[1] == 60 && next.MBA[0] == 40
	if wayMoved == mbaMoved { // exactly one must hold
		t.Errorf("dual consumer should receive exactly one unit: %+v", next)
	}
}

func TestGetNextSystemStateValidation(t *testing.T) {
	cur := AllocState{Ways: []int{6, 5}, MBA: []int{50, 50}}
	if _, err := GetNextSystemState(cur, []AppInfo{{}}, 11, rng()); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := GetNextSystemState(cur, make([]AppInfo, 2), 11, nil); err == nil {
		t.Error("nil rng should error")
	}
	bad := AllocState{Ways: []int{0, 5}, MBA: []int{50, 50}}
	if _, err := GetNextSystemState(bad, make([]AppInfo, 2), 11, rng()); err == nil {
		t.Error("invalid current state should error")
	}
}

// Property: the allocator always returns a valid state that conserves the
// total way count, changes each application's ways by at most 1 and MBA
// by at most one step, and never violates the floors/ceilings.
func TestGetNextSystemStateProperty(t *testing.T) {
	f := func(seed int64, nRaw, statesRaw uint32) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw)%5 + 2 // 2..6 apps
		totalWays := 11
		// Random valid current state.
		ways := make([]int, n)
		rem := totalWays - n
		for i := range ways {
			ways[i] = 1
		}
		for rem > 0 {
			ways[r.Intn(n)]++
			rem--
		}
		mba := make([]int, n)
		for i := range mba {
			mba[i] = (r.Intn(10) + 1) * 10
		}
		cur := AllocState{Ways: ways, MBA: mba}
		apps := make([]AppInfo, n)
		for i := range apps {
			apps[i] = AppInfo{
				LLCState: State(r.Intn(3)),
				MBAState: State(r.Intn(3)),
				Slowdown: 1 + r.Float64()*3,
			}
		}
		next, err := GetNextSystemState(cur, apps, totalWays, r)
		if err != nil {
			return false
		}
		if err := next.Validate(totalWays); err != nil {
			return false
		}
		sumBefore, sumAfter := 0, 0
		for i := range ways {
			sumBefore += cur.Ways[i]
			sumAfter += next.Ways[i]
			if abs(next.Ways[i]-cur.Ways[i]) > 1 {
				return false
			}
			if abs(next.MBA[i]-cur.MBA[i]) > membw.Granularity {
				return false
			}
			// Supply-side floors.
			if next.Ways[i] < 1 || next.MBA[i] < membw.MinLevel || next.MBA[i] > membw.MaxLevel {
				return false
			}
			// Producers only lose, consumers only gain.
			if next.Ways[i] < cur.Ways[i] && apps[i].LLCState != Supply {
				return false
			}
			if next.Ways[i] > cur.Ways[i] && apps[i].LLCState != Demand {
				return false
			}
			if next.MBA[i] < cur.MBA[i] && apps[i].MBAState != Supply {
				return false
			}
			if next.MBA[i] > cur.MBA[i] && apps[i].MBAState != Demand {
				return false
			}
		}
		return sumBefore == sumAfter
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: the most-slowed consumer is never starved — whenever an
// application demands a resource some producer can supply, the demander
// with the highest slowdown receives a unit (Algorithm 2's entire point:
// favor the most slowed).
func TestMostSlowedConsumerNeverStarvedProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(5) + 2
		totalWays := 11
		ways := make([]int, n)
		rem := totalWays - n
		for i := range ways {
			ways[i] = 1
		}
		for rem > 0 {
			ways[r.Intn(n)]++
			rem--
		}
		mba := make([]int, n)
		for i := range mba {
			mba[i] = (r.Intn(10) + 1) * 10
		}
		cur := AllocState{Ways: ways, MBA: mba}
		apps := make([]AppInfo, n)
		for i := range apps {
			apps[i] = AppInfo{
				LLCState: State(r.Intn(3)),
				MBAState: State(r.Intn(3)),
				Slowdown: 1 + r.Float64()*3,
			}
		}
		// Find the most-slowed app that demands something suppliable.
		canSupplyLLC, canSupplyMBA := false, false
		for i, a := range apps {
			if a.LLCState == Supply && cur.Ways[i] > 1 {
				canSupplyLLC = true
			}
			if a.MBAState == Supply && cur.MBA[i] > membw.MinLevel {
				canSupplyMBA = true
			}
		}
		best, bestSlow := -1, 0.0
		for i, a := range apps {
			demandsLLC := a.LLCState == Demand && canSupplyLLC
			demandsMBA := a.MBAState == Demand && cur.MBA[i] < membw.MaxLevel && canSupplyMBA
			if (demandsLLC || demandsMBA) && a.Slowdown > bestSlow {
				best, bestSlow = i, a.Slowdown
			}
		}
		next, err := GetNextSystemState(cur, apps, totalWays, r)
		if err != nil {
			return false
		}
		if best < 0 {
			return true // nothing demandable
		}
		return next.Ways[best] > cur.Ways[best] || next.MBA[best] > cur.MBA[best]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestNeighborState(t *testing.T) {
	cur := AllocState{Ways: []int{5, 6}, MBA: []int{50, 50}}
	r := rng()
	distinct := 0
	for i := 0; i < 50; i++ {
		next, err := NeighborState(cur, 11, r)
		if err != nil {
			t.Fatal(err)
		}
		if err := next.Validate(11); err != nil {
			t.Fatalf("neighbor invalid: %v", err)
		}
		if !next.Equal(cur) {
			distinct++
		}
	}
	if distinct < 45 {
		t.Errorf("neighbor rarely differs: %d/50", distinct)
	}
}

func TestNeighborStateSingleAppAtBounds(t *testing.T) {
	// One app holding everything at MBA extremes: only MBA moves remain.
	cur := AllocState{Ways: []int{11}, MBA: []int{100}}
	next, err := NeighborState(cur, 11, rng())
	if err != nil {
		t.Fatal(err)
	}
	if next.Ways[0] != 11 {
		t.Errorf("single app cannot move ways: %v", next.Ways)
	}
	if next.MBA[0] != 90 && next.MBA[0] != 100 {
		t.Errorf("MBA move should stay legal: %v", next.MBA)
	}
}

func TestNeighborStateValidation(t *testing.T) {
	if _, err := NeighborState(AllocState{Ways: []int{0}, MBA: []int{10}}, 11, rng()); err == nil {
		t.Error("invalid state should error")
	}
	if _, err := NeighborState(AllocState{Ways: []int{1}, MBA: []int{10}}, 11, nil); err == nil {
		t.Error("nil rng should error")
	}
	empty, err := NeighborState(AllocState{}, 11, rng())
	if err != nil || len(empty.Ways) != 0 {
		t.Errorf("empty state: %+v, %v", empty, err)
	}
}

func TestEqualMBAShare(t *testing.T) {
	tests := []struct{ n, want int }{
		{1, 100}, {2, 50}, {3, 40}, {4, 30}, {5, 20}, {6, 20}, {10, 10}, {20, 10}, {0, 100},
	}
	for _, tt := range tests {
		if got := EqualMBAShare(tt.n); got != tt.want {
			t.Errorf("EqualMBAShare(%d)=%d want %d", tt.n, got, tt.want)
		}
	}
}

func TestEqualAllocs(t *testing.T) {
	tests := []struct {
		env  Envelope
		n    int
		want []machine.Alloc
	}{
		{Envelope{Ways: 11}, 4, []machine.Alloc{{CBM: 0x7, MBALevel: 30}, {CBM: 0x38, MBALevel: 30},
			{CBM: 0x1c0, MBALevel: 30}, {CBM: 0x600, MBALevel: 30}}},
		{Envelope{LoWay: 3, Ways: 5}, 2, []machine.Alloc{{CBM: 0x38, MBALevel: 50}, {CBM: 0xc0, MBALevel: 50}}},
		{Envelope{LoWay: 2, Ways: 1}, 1, []machine.Alloc{{CBM: 0x4, MBALevel: 100}}},
	}
	for _, tt := range tests {
		got, err := EqualAllocs(tt.env, tt.n)
		if err != nil {
			t.Fatalf("%+v n=%d: %v", tt.env, tt.n, err)
		}
		if !slices.Equal(got, tt.want) {
			t.Errorf("%+v n=%d: %+v want %+v", tt.env, tt.n, got, tt.want)
		}
	}
	if _, err := EqualAllocs(Envelope{LoWay: 3, Ways: 5}, 6); err == nil {
		t.Error("6 apps in 5 ways should error")
	}
	if _, err := EqualAllocs(Envelope{Ways: 11}, 0); err == nil {
		t.Error("0 apps should error")
	}
}
