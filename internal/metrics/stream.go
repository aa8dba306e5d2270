package metrics

import "fmt"

// This file is the streaming side of the aggregation layer. The sweep
// runner finalizes every (scenario, algorithm) cell the moment its last
// replication lands and drops the full per-run state immediately, so the
// per-replication record it retains must be small, serializable (the
// warm-start cell cache and shard files store it as JSON) and mergeable
// out of order (replications complete in nondeterministic pool order, and
// a distributed sweep delivers them split across shards).

// RunStats is the reduced per-replication record the streaming runner
// keeps in place of a full experiment Result: the final snapshot and
// submitted count feed the cell aggregates, and the per-snapshot series
// feed the figures' error bars. A few hundred bytes, versus a Result that
// retains its Collector, Setting and the shared topology.
type RunStats struct {
	Final      Snapshot  `json:"final"`
	Submitted  int       `json:"submitted"`
	CCR        float64   `json:"ccr"`
	Hours      []float64 `json:"hours,omitempty"`
	Throughput []float64 `json:"throughput,omitempty"`
	ACT        []float64 `json:"act,omitempty"`
	AE         []float64 `json:"ae,omitempty"`
}

// ReduceRun flattens one run's collected series into a RunStats record.
// Float64 values survive a JSON round trip exactly, so aggregates computed
// from cached or shard-shipped records are bit-identical to aggregates
// computed from the live run.
func ReduceRun(c *Collector, final Snapshot, submitted int, ccr float64) RunStats {
	st := RunStats{Final: final, Submitted: submitted, CCR: ccr}
	if n := len(c.Snapshots); n > 0 {
		st.Hours = make([]float64, n)
		st.Throughput = make([]float64, n)
		for i, s := range c.Snapshots {
			st.Hours[i] = s.TimeHours
			st.Throughput[i] = float64(s.Completed)
		}
		st.ACT = c.ACTSeries()
		st.AE = c.AESeries()
	}
	return st
}

// CellAccumulator assembles one cell's replications incrementally and out
// of order. Add accepts replication r whenever run r finishes (pool
// completion order, a cache hit, or a merged shard); Aggregate always
// iterates replications in index order, so the result is bit-identical to
// a batch AggregateRuns call over the same runs regardless of arrival
// order.
type CellAccumulator struct {
	stats []RunStats
	have  []bool
	n     int
}

// NewCellAccumulator prepares an accumulator for the given replication
// count.
func NewCellAccumulator(reps int) *CellAccumulator {
	return &CellAccumulator{stats: make([]RunStats, reps), have: make([]bool, reps)}
}

// Add records replication rep. Out-of-range and duplicate replications are
// errors: both indicate a job-accounting bug (or overlapping shards).
func (a *CellAccumulator) Add(rep int, st RunStats) error {
	if rep < 0 || rep >= len(a.stats) {
		return fmt.Errorf("metrics: replication %d outside [0,%d)", rep, len(a.stats))
	}
	if a.have[rep] {
		return fmt.Errorf("metrics: replication %d added twice", rep)
	}
	a.stats[rep] = st
	a.have[rep] = true
	a.n++
	return nil
}

// Has reports whether replication rep has landed.
func (a *CellAccumulator) Has(rep int) bool {
	return rep >= 0 && rep < len(a.have) && a.have[rep]
}

// Get returns replication rep's record, if it has landed.
func (a *CellAccumulator) Get(rep int) (RunStats, bool) {
	if !a.Has(rep) {
		return RunStats{}, false
	}
	return a.stats[rep], true
}

// Count returns the number of replications recorded so far.
func (a *CellAccumulator) Count() int { return a.n }

// Done reports whether every replication has landed.
func (a *CellAccumulator) Done() bool { return a.n == len(a.stats) }

// Stats returns the records in replication order. The slice aliases the
// accumulator's storage; entries for replications that have not landed are
// zero values (call Done first when completeness matters).
func (a *CellAccumulator) Stats() []RunStats { return a.stats }

// Aggregate summarizes the replications recorded so far, in replication
// order. For a Done accumulator it equals AggregateRuns over the same
// finals bit-for-bit.
func (a *CellAccumulator) Aggregate() RunAggregate {
	finals := make([]Snapshot, 0, a.n)
	submitted := make([]int, 0, a.n)
	for r, ok := range a.have {
		if !ok {
			continue
		}
		finals = append(finals, a.stats[r].Final)
		submitted = append(submitted, a.stats[r].Submitted)
	}
	return AggregateRuns(finals, submitted)
}
