// Package obs is the deterministic observability layer shared by batch
// runs, the scheduler daemon and sweep workers: fixed-bucket histograms
// over the VIRTUAL clock, fed by GridMetrics as a tap on the grid, a
// Prometheus text exposition writer (counters, gauges and histograms),
// and a Chrome trace-event span builder over the internal/trace event
// stream.
//
// Two properties are contractual:
//
//   - Zero cost when disabled. A grid without a tap pays one nil check
//     per event (grid.Config.Tap); a run that does not install the
//     metrics observes nothing and allocates nothing for them.
//   - Invisible to artifacts. Observation never feeds back into
//     simulation state, and all JSON surfaces grow only omitempty
//     fields, so goldens, SpecHash, cache keys and soak digests are
//     byte-identical with observability on or off.
//
// Histograms measure virtual seconds (or pure counts), never wall time:
// the same run observes the same distribution on any machine, which is
// what lets sweep summaries live inside byte-identical result JSON.
package obs

import (
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/trace"
)

// Histogram is a fixed-bucket histogram: Bounds holds the strictly
// increasing finite upper bounds, and an implicit +Inf bucket catches the
// rest. Observe is a short linear scan (every family here has at most a
// dozen buckets) with no allocation, so the enabled path stays cheap; a
// run without the metrics tap never reaches it.
type Histogram struct {
	bounds []float64
	counts []uint64 // len(bounds)+1; last is the +Inf bucket
	sum    float64
	count  uint64
}

// NewHistogram builds a histogram over the given finite upper bounds,
// which must be strictly increasing.
func NewHistogram(bounds ...float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not increasing: %v", bounds))
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one value. NaN observations are dropped (they would
// poison the sum); negative values land in the first bucket like any
// other small value.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.count++
	h.sum += v
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum }

// Bounds returns the finite upper bounds (aliased, do not mutate).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// Counts returns the per-bucket (non-cumulative) counts, the +Inf bucket
// last (aliased, do not mutate).
func (h *Histogram) Counts() []uint64 { return h.counts }

// Clone returns an independent copy (nil-safe): the lock-safe snapshot a
// concurrent scrape surface hands to its renderer.
func (h *Histogram) Clone() *Histogram {
	if h == nil {
		return nil
	}
	c := &Histogram{
		bounds: h.bounds, // immutable after construction
		counts: make([]uint64, len(h.counts)),
		sum:    h.sum,
		count:  h.count,
	}
	copy(c.counts, h.counts)
	return c
}

// Merge folds o into h. The bucket layouts must match; merging is
// order-sensitive only in the float sum, so callers that need
// byte-identical merged summaries must merge in a deterministic order
// (the sweep runner merges replications in replication order).
func (h *Histogram) Merge(o *Histogram) error {
	if o == nil || o.count == 0 {
		return nil
	}
	if len(o.bounds) != len(h.bounds) {
		return fmt.Errorf("obs: merging histograms with %d vs %d buckets", len(o.bounds), len(h.bounds))
	}
	for i, b := range o.bounds {
		if b != h.bounds[i] {
			return fmt.Errorf("obs: merging histograms with different bounds (%v vs %v)", h.bounds, o.bounds)
		}
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.sum += o.sum
	h.count += o.count
	return nil
}

// HistogramSummary is the JSON reduction of a histogram: enough to
// reconstruct the full distribution (bounds plus per-bucket counts, +Inf
// last) without any float beyond the exact observation sum. It is the
// omitempty payload sweep cells carry when observability is on.
type HistogramSummary struct {
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
}

// Summary reduces the histogram, or nil when nothing was observed (so
// omitempty drops empty families from JSON).
func (h *Histogram) Summary() *HistogramSummary {
	if h == nil || h.count == 0 {
		return nil
	}
	s := &HistogramSummary{
		Count:  h.count,
		Sum:    h.sum,
		Bounds: make([]float64, len(h.bounds)),
		Counts: make([]uint64, len(h.counts)),
	}
	copy(s.Bounds, h.bounds)
	copy(s.Counts, h.counts)
	return s
}

// Mean returns the mean observation (0 for an empty summary).
func (s *HistogramSummary) Mean() float64 {
	if s == nil || s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// The histogram families of one grid run. Bounds are virtual seconds
// except Phase1Candidates (a pure count). The latency ladders are
// roughly geometric, sized for Table-I workloads where tasks run
// minutes, workflows run hours and gossip records expire within a few
// cycles; distribution mass beyond the last bound still lands in +Inf
// and keeps exact count/sum.
var (
	workflowCompletionBounds = []float64{60, 300, 900, 1800, 3600, 7200, 14400, 28800, 57600}
	queueWaitBounds          = []float64{1, 10, 60, 300, 900, 1800, 3600, 7200}
	execTimeBounds           = []float64{10, 30, 60, 120, 300, 600, 1200, 2400, 4800}
	transferTimeBounds       = []float64{1, 5, 15, 30, 60, 120, 300, 600}
	gossipStalenessBounds    = []float64{5, 10, 20, 40, 80, 160, 320, 640}
	phase1CandidateBounds    = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}
)

// GridMetrics bundles the virtual-time histogram families of one grid.
// It is a grid.Tap: install it as (or among) grid.Config.Tap. Histogram
// float sums are order-sensitive, so the observations must happen in the
// engine's deterministic event order, which is the order a tap sees.
type GridMetrics struct {
	// WorkflowCompletion is admission-to-completion latency per workflow.
	WorkflowCompletion *Histogram
	// QueueWait is per-task data-ready-to-CPU wait.
	QueueWait *Histogram
	// ExecTime is per-task pure execution time.
	ExecTime *Histogram
	// TransferTime is per-task dispatch-to-data-complete input streaming.
	TransferTime *Histogram
	// GossipStaleness is the age of the scheduler's cached state record
	// for the chosen node, sampled at each dispatch.
	GossipStaleness *Histogram
	// Phase1Candidates is the DBC phase-1 candidate-set size per
	// scheduling decision.
	Phase1Candidates *Histogram
}

// NewGridMetrics builds the standard family set.
func NewGridMetrics() *GridMetrics {
	return &GridMetrics{
		WorkflowCompletion: NewHistogram(workflowCompletionBounds...),
		QueueWait:          NewHistogram(queueWaitBounds...),
		ExecTime:           NewHistogram(execTimeBounds...),
		TransferTime:       NewHistogram(transferTimeBounds...),
		GossipStaleness:    NewHistogram(gossipStalenessBounds...),
		Phase1Candidates:   NewHistogram(phase1CandidateBounds...),
	}
}

// Event implements grid.Tap: each family observes its span of a task's
// or workflow's life when the span ends, and the other kinds pass by.
func (m *GridMetrics) Event(g *grid.Grid, e grid.Event) {
	switch e.Kind {
	case trace.KindDispatch:
		// The age of the scheduler's cached record of the chosen node:
		// how stale the placement's information was. Self-dispatch has
		// no cached record (a node is not in its own RSS) and is skipped.
		if age, ok := g.Gossip.RecordAge(e.WF.Home, e.Node); ok {
			m.GossipStaleness.Observe(age)
		}
	case trace.KindReady:
		m.TransferTime.Observe(e.Time - e.Task.DispatchedAt)
	case trace.KindExecStart:
		m.QueueWait.Observe(e.Time - e.Task.ReadyAt)
	case trace.KindExecEnd:
		m.ExecTime.Observe(e.Time - e.Task.StartedAt)
	case trace.KindWorkflowDone:
		m.WorkflowCompletion.Observe(e.Time - e.WF.SubmittedAt)
	case trace.KindCandidates:
		m.Phase1Candidates.Observe(float64(e.Candidates))
	}
}

// Clone returns an independent copy (nil-safe).
func (m *GridMetrics) Clone() *GridMetrics {
	if m == nil {
		return nil
	}
	return &GridMetrics{
		WorkflowCompletion: m.WorkflowCompletion.Clone(),
		QueueWait:          m.QueueWait.Clone(),
		ExecTime:           m.ExecTime.Clone(),
		TransferTime:       m.TransferTime.Clone(),
		GossipStaleness:    m.GossipStaleness.Clone(),
		Phase1Candidates:   m.Phase1Candidates.Clone(),
	}
}

// Merge folds o into m family by family. The standard constructor makes
// layouts identical, so errors indicate mixed versions.
func (m *GridMetrics) Merge(o *GridMetrics) error {
	if o == nil {
		return nil
	}
	pairs := []struct{ dst, src *Histogram }{
		{m.WorkflowCompletion, o.WorkflowCompletion},
		{m.QueueWait, o.QueueWait},
		{m.ExecTime, o.ExecTime},
		{m.TransferTime, o.TransferTime},
		{m.GossipStaleness, o.GossipStaleness},
		{m.Phase1Candidates, o.Phase1Candidates},
	}
	for _, p := range pairs {
		if err := p.dst.Merge(p.src); err != nil {
			return err
		}
	}
	return nil
}

// Summary is the JSON reduction of a GridMetrics: one omitempty
// HistogramSummary per family, so empty families vanish and a fully
// empty summary reduces to nil. This is the distribution block sweep
// cells embed.
type Summary struct {
	WorkflowCompletionSeconds *HistogramSummary `json:"workflow_completion_seconds,omitempty"`
	QueueWaitSeconds          *HistogramSummary `json:"queue_wait_seconds,omitempty"`
	ExecSeconds               *HistogramSummary `json:"exec_seconds,omitempty"`
	TransferSeconds           *HistogramSummary `json:"transfer_seconds,omitempty"`
	GossipStalenessSeconds    *HistogramSummary `json:"gossip_staleness_seconds,omitempty"`
	Phase1Candidates          *HistogramSummary `json:"phase1_candidates,omitempty"`
}

// Summary reduces the metrics, or nil when every family is empty (so an
// omitempty pointer field drops the whole block).
func (m *GridMetrics) Summary() *Summary {
	if m == nil {
		return nil
	}
	s := &Summary{
		WorkflowCompletionSeconds: m.WorkflowCompletion.Summary(),
		QueueWaitSeconds:          m.QueueWait.Summary(),
		ExecSeconds:               m.ExecTime.Summary(),
		TransferSeconds:           m.TransferTime.Summary(),
		GossipStalenessSeconds:    m.GossipStaleness.Summary(),
		Phase1Candidates:          m.Phase1Candidates.Summary(),
	}
	if *s == (Summary{}) {
		return nil
	}
	return s
}
