// Package executor provides the pluggable execution backends behind the
// experiments streaming runner: a bounded local worker pool (Local), the
// job-range split of a sweep across machines (ShardRange), the
// work-stealing coordinator's directory protocol, and the byte-level
// stores behind the warm-start result cache (Disk, Memory).
//
// The package is deliberately generic: a job is a dense global integer ID
// and the runner supplies the function that executes one. The runner
// decides which IDs run (a whole sweep, a shard, a coordinator's cell, an
// adaptive round) and an executor decides how (how many workers, what to
// do around each job). That keeps the execution policy fully separated
// from the experiment semantics (what a job simulates and how its result
// aggregates), and it keeps this package free of any dependency on the
// experiments types.
package executor

import (
	"runtime"
	"sync"
)

// Executor runs a set of jobs identified by global job IDs. Execute runs
// every ID it is given, calling run exactly once per ID, and never invents
// IDs; run must be safe for concurrent calls. Every job runs even after
// another job fails; the first error is returned.
type Executor interface {
	Execute(ids []int, run func(id int) error) error
}

// Local executes every given job on a bounded goroutine pool — the
// single-host backend wrapping the same worker-pool discipline the batch
// sweep engine always used.
type Local struct {
	// Workers bounds the pool; 0 or less means GOMAXPROCS.
	Workers int
}

// Execute runs all ids with bounded parallelism, returning the first
// error after every job has finished.
func (l Local) Execute(ids []int, run func(id int) error) error {
	workers := l.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
		if workers < 1 {
			workers = 1
		}
	}
	errs := make([]error, len(ids))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i, id int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = run(id)
		}(i, id)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ShardRange returns the [lo,hi) job-ID range of shard i of n over a
// matrix of total jobs: contiguous, non-overlapping, sizes within one job
// of each other, and the union of all n ranges is exactly [0,total).
func ShardRange(total, i, n int) (lo, hi int) {
	return i * total / n, (i + 1) * total / n
}
