// Package runner fans independent simulation sweep points out across
// OS-level workers. The paper's figures are grids of (configuration,
// document, client-count) points, and every point is a self-contained
// deterministic simulation — its own engine, its own seeded RNGs, its own
// observability sinks — so the grid is embarrassingly parallel. The
// runner exploits that while keeping the results bit-identical to a
// serial run: work is handed out by index from an atomic counter, every
// result lands in its own slot of a pre-sized slice, and nothing about a
// point's computation can observe which worker ran it or in what order
// points completed.
//
// Determinism contract for point functions: fn(i) must depend only on i
// (and on data that is read-only for the duration of the call). It must
// not read wall-clock time, the global math/rand generator, or shared
// mutable state — the escort-lint determinism analyzer enforces the first
// two for this package and its callers (see STATIC_ANALYSIS.md).
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers is the worker count escort-bench sweeps with: one
// worker per schedulable CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// MapErr runs fn(i) for every i in [0, n) on up to workers concurrent
// goroutines and returns the results in index order. workers <= 1 runs
// serially on the calling goroutine; any setting produces identical
// results. All points run to completion; the error returned is the one
// from the lowest failing index, regardless of completion order, so
// error reporting is as deterministic as the results. A panic in fn is
// re-raised on the caller, tagged with the lowest panicking index so
// even failures are deterministic.
func MapErr[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	run(n, workers, func(i int) { out[i], errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func run(n, workers int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next   atomic.Int64
		wg     sync.WaitGroup
		panics = make([]any, n)
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panics[i] = r
						}
					}()
					fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	for i, r := range panics {
		if r != nil {
			panic(fmt.Sprintf("runner: point %d panicked: %v", i, r))
		}
	}
}
