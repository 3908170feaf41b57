// Package parallel provides the bounded worker pool behind the
// experiment harness. Every figure/table generator fans independent
// cells (grid points, mixes, sweep points) through ForEach; the pool
// bounds the *total* number of concurrently executing cells across
// all nested calls, so a sweep that parallelizes over points whose
// bodies themselves parallelize over mixes cannot oversubscribe the
// machine or deadlock.
//
// Determinism contract: ForEach only decides *when* fn(i) runs,
// never with what inputs; callers write results by index. As long as
// fn(i) is a pure function of i (each cell builds its own
// machine.Machine and seeds its own RNG), the results are bit-identical
// for every worker count, including 1. The experiments package's
// determinism tests pin this.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// configured holds the configured worker count; 0 selects GOMAXPROCS.
var configured atomic.Int32

// tokens gates helper goroutines. It holds Workers()-1 tokens: the
// goroutine calling ForEach always participates in the work without a
// token, so nested ForEach calls degrade to sequential execution in the
// caller instead of deadlocking when the pool is saturated.
var tokens struct {
	mu sync.Mutex
	ch chan struct{}
}

// SetWorkers sets the global worker bound. n <= 0 restores the default
// (GOMAXPROCS at the time of each call). The cmd tools expose this as
// -parallel N.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	configured.Store(int32(n))
	tokens.mu.Lock()
	tokens.ch = nil // rebuilt lazily at the new size
	tokens.mu.Unlock()
}

// Workers reports the current worker bound.
func Workers() int {
	if n := configured.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// acquire tries to take a helper token without blocking; it returns a
// release function on success. Non-blocking acquisition is what makes
// nesting safe: a saturated pool simply yields no helpers.
func acquire() (release func(), ok bool) {
	tokens.mu.Lock()
	if tokens.ch == nil {
		n := Workers() - 1
		if n < 0 {
			n = 0
		}
		tokens.ch = make(chan struct{}, n)
	}
	ch := tokens.ch
	tokens.mu.Unlock()
	select {
	case ch <- struct{}{}:
		return func() { <-ch }, true
	default:
		return nil, false
	}
}

// ForEach runs fn(0), …, fn(n-1), fanning the calls across up to
// Workers() concurrently executing cells (including the caller). The
// first error — from the lowest index among the cells that ran —
// cancels the remaining unstarted cells and is returned. fn must be
// safe for concurrent invocation with distinct indices.
func ForEach(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if Workers() == 1 || n == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next     atomic.Int64
		stop     atomic.Bool
		errMu    sync.Mutex
		errIdx   = -1
		firstErr error
		wg       sync.WaitGroup
	)
	work := func() {
		for !stop.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := fn(i); err != nil {
				errMu.Lock()
				if errIdx < 0 || i < errIdx {
					errIdx, firstErr = i, err
				}
				errMu.Unlock()
				stop.Store(true)
				return
			}
		}
	}
	// Spawn at most n-1 helpers (the caller handles the rest), each
	// holding one global token for its lifetime.
	for g := 0; g < n-1; g++ {
		release, ok := acquire()
		if !ok {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer release()
			work()
		}()
	}
	work()
	wg.Wait()
	return firstErr
}

// ForEachBlock partitions [0, n) into contiguous blocks of the given
// size — [0, block), [block, 2·block), … (the last block may be short)
// — and runs fn(lo, hi) over them under the same pool and determinism
// contract as ForEach: the pool decides only *when* a block runs,
// never its bounds, so as long as fn is a pure function of its range
// the results are bit-identical at any worker count. block <= 0 (or
// >= n) selects a single block covering [0, n).
//
// Blocks are the fleet's dispatch unit: batching nodes amortizes the
// per-cell scheduling cost of ForEach, and — because the single-worker
// and single-block paths below call fn inline, without wrapping it in
// a closure — the sequential steady state stays allocation-free, which
// per-index ForEach cannot offer (its callers close over their result
// slices). The first error, from the lowest-indexed block among those
// that ran, wins, as in ForEach.
func ForEachBlock(n, block int, fn func(lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	if block <= 0 || block > n {
		block = n
	}
	nb := (n + block - 1) / block
	if nb == 1 || Workers() == 1 {
		for lo := 0; lo < n; lo += block {
			hi := lo + block
			if hi > n {
				hi = n
			}
			if err := fn(lo, hi); err != nil {
				return err
			}
		}
		return nil
	}
	return ForEach(nb, func(b int) error {
		lo := b * block
		hi := lo + block
		if hi > n {
			hi = n
		}
		return fn(lo, hi)
	})
}
