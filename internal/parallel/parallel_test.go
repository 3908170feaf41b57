package parallel

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// withWorkers runs f with the pool bound set to n, restoring the
// default afterwards.
func withWorkers(t *testing.T, n int, f func()) {
	t.Helper()
	SetWorkers(n)
	defer SetWorkers(0)
	f()
}

func TestForEachCoversAllIndices(t *testing.T) {
	for _, w := range []int{1, 2, 4, 16} {
		withWorkers(t, w, func() {
			const n = 1000
			seen := make([]int32, n)
			if err := ForEach(n, func(i int) error {
				atomic.AddInt32(&seen[i], 1)
				return nil
			}); err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("workers=%d: index %d ran %d times", w, i, c)
				}
			}
		})
	}
}

func TestForEachZeroAndNegative(t *testing.T) {
	calls := 0
	if err := ForEach(0, func(int) error { calls++; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := ForEach(-3, func(int) error { calls++; return nil }); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("fn called %d times for empty ranges", calls)
	}
}

func TestForEachErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	for _, w := range []int{1, 4} {
		withWorkers(t, w, func() {
			err := ForEach(100, func(i int) error {
				if i == 37 {
					return fmt.Errorf("cell %d: %w", i, boom)
				}
				return nil
			})
			if !errors.Is(err, boom) {
				t.Fatalf("workers=%d: got %v, want wrapped boom", w, err)
			}
		})
	}
}

func TestForEachErrorCancelsRemaining(t *testing.T) {
	withWorkers(t, 2, func() {
		var ran atomic.Int32
		_ = ForEach(10000, func(i int) error {
			ran.Add(1)
			return errors.New("immediate")
		})
		// Cancellation is best-effort; with 2 workers only a handful of
		// cells may start after the first error.
		if n := ran.Load(); n > 100 {
			t.Fatalf("%d cells ran after an immediate error", n)
		}
	})
}

func TestConcurrencyBound(t *testing.T) {
	const w = 3
	withWorkers(t, w, func() {
		var cur, max atomic.Int32
		if err := ForEach(200, func(i int) error {
			c := cur.Add(1)
			for {
				m := max.Load()
				if c <= m || max.CompareAndSwap(m, c) {
					break
				}
			}
			cur.Add(-1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if m := max.Load(); m > w {
			t.Fatalf("observed %d concurrent cells, bound is %d", m, w)
		}
	})
}

func TestNestedForEachDoesNotDeadlockAndStaysBounded(t *testing.T) {
	const w = 4
	withWorkers(t, w, func() {
		var cur, max atomic.Int32
		body := func() {
			c := cur.Add(1)
			for {
				m := max.Load()
				if c <= m || max.CompareAndSwap(m, c) {
					break
				}
			}
			cur.Add(-1)
		}
		if err := ForEach(8, func(i int) error {
			return ForEach(8, func(j int) error {
				body()
				return nil
			})
		}); err != nil {
			t.Fatal(err)
		}
		// The caller of each nested ForEach participates without a
		// token, so the hard bound is Workers() executing cells.
		if m := max.Load(); m > w {
			t.Fatalf("observed %d concurrent nested cells, bound is %d", m, w)
		}
	})
}

func TestForEachBlockCoversAllIndicesExactlyOnce(t *testing.T) {
	for _, w := range []int{1, 2, 4, 16} {
		for _, block := range []int{1, 3, 7, 64, 1000, 2000, 0, -5} {
			withWorkers(t, w, func() {
				const n = 1000
				seen := make([]int32, n)
				if err := ForEachBlock(n, block, func(lo, hi int) error {
					if lo < 0 || hi > n || lo >= hi {
						return fmt.Errorf("bad block [%d, %d)", lo, hi)
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&seen[i], 1)
					}
					return nil
				}); err != nil {
					t.Fatalf("workers=%d block=%d: %v", w, block, err)
				}
				for i, c := range seen {
					if c != 1 {
						t.Fatalf("workers=%d block=%d: index %d covered %d times", w, block, i, c)
					}
				}
			})
		}
	}
}

func TestForEachBlockBounds(t *testing.T) {
	// Block bounds are a pure function of (n, block) — never of the
	// worker count — which is what lets callers stripe per-block state
	// deterministically.
	type span struct{ lo, hi int }
	collect := func(w int) []span {
		var mu sync.Mutex
		var out []span
		withWorkers(t, w, func() {
			if err := ForEachBlock(10, 4, func(lo, hi int) error {
				mu.Lock()
				out = append(out, span{lo, hi})
				mu.Unlock()
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
		want := map[span]bool{{0, 4}: true, {4, 8}: true, {8, 10}: true}
		if len(out) != len(want) {
			t.Fatalf("workers=%d: %d blocks, want %d", w, len(out), len(want))
		}
		for _, s := range out {
			if !want[s] {
				t.Fatalf("workers=%d: unexpected block [%d, %d)", w, s.lo, s.hi)
			}
		}
		return out
	}
	collect(1)
	collect(4)
}

func TestForEachBlockErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	for _, w := range []int{1, 4} {
		withWorkers(t, w, func() {
			err := ForEachBlock(100, 10, func(lo, hi int) error {
				if lo == 30 {
					return fmt.Errorf("block %d: %w", lo, boom)
				}
				return nil
			})
			if !errors.Is(err, boom) {
				t.Fatalf("workers=%d: got %v, want wrapped boom", w, err)
			}
		})
	}
	if err := ForEachBlock(0, 4, func(lo, hi int) error { return errors.New("x") }); err != nil {
		t.Fatalf("empty range invoked fn: %v", err)
	}
}

// TestForEachBlockSequentialAllocFree pins the property the fleet's
// zero-alloc dispatch rests on: with one worker, ForEachBlock invokes a
// package-level function value inline without allocating.
func TestForEachBlockSequentialAllocFree(t *testing.T) {
	withWorkers(t, 1, func() {
		avg := testing.AllocsPerRun(100, func() {
			if err := ForEachBlock(64, 8, discardBlock); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Errorf("sequential ForEachBlock allocates %.1f times per call, want 0", avg)
		}
	})
}

// discardBlock is a package-level funcval so passing it allocates
// nothing (closures materialize per call; named functions do not).
func discardBlock(lo, hi int) error { return nil }

func TestSetWorkersConcurrentWithForEach(t *testing.T) {
	// Resizing the pool while work is in flight must not race or leak.
	defer SetWorkers(0)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= 8; i++ {
			SetWorkers(i)
		}
	}()
	for r := 0; r < 8; r++ {
		if err := ForEach(100, func(i int) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

func TestWorkersDefault(t *testing.T) {
	SetWorkers(0)
	if Workers() < 1 {
		t.Fatalf("Workers()=%d", Workers())
	}
	SetWorkers(5)
	defer SetWorkers(0)
	if Workers() != 5 {
		t.Fatalf("Workers()=%d, want 5", Workers())
	}
}
