package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/grid"
	"repro/internal/heuristics"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/wire"
	"repro/internal/workload"
)

// This file declares the multi-seed scenario sweep: a SweepSpec is a matrix
// of scenario axes (scale x churn x load factor x CCR x arrival x SLA) crossed with an
// algorithm axis and replicated over independent seeds. The spec side is
// pure data — canonical expansion order (Scenarios, Jobs), seed derivation
// and content hashing (SpecHash) — while execution lives in runner.go
// behind the Executor interface.

// CodeVersion fingerprints the simulation semantics and participates in
// SpecHash and in every warm-start cache key. Bump it whenever a change
// moves the golden metrics (new RNG consumption, scheduling semantics,
// metric definitions): stale cache entries and shard files from the old
// semantics then miss/fail instead of silently mixing with new runs.
const CodeVersion = "p2pgridsim-sim/v1"

// SweepSpec declares one sweep. Zero values select sensible defaults:
// nil Algorithms means all eight paper algorithms, nil axis slices collapse
// the axis to its single default point, Reps < 1 means one replication.
type SweepSpec struct {
	// Name labels the sweep in JSON output.
	Name string

	// Scales is the system-scale axis; it must contain at least one scale.
	Scales []Scale

	// Algorithms are heuristics legend names (see heuristics.Names);
	// nil means all eight.
	Algorithms []string

	// Reps is the number of independent seed replications per cell.
	Reps int

	// Seed is the root seed; the whole matrix is a pure function of it.
	Seed int64

	// LoadFactors is the workflows-per-home axis; 0 keeps the scale's
	// default (nil collapses to {0}).
	LoadFactors []int

	// ChurnFactors is the dynamic-factor axis; 0 is the static system
	// (nil collapses to {0}). Dynamic cells follow the Fig. 12-14 layout:
	// half the nodes stay stable and host all homes at twice the load
	// factor, keeping the submitted-workflow total equal to static cells.
	ChurnFactors []float64

	// ChurnLayout keeps the Fig. 12-14 half-homes layout even at churn
	// factor 0, so a churn-axis sweep's static baseline (the paper's df=0
	// curve) is directly comparable to its dynamic cells.
	ChurnLayout bool

	// Reschedule enables the failed-task rescheduling extension (the
	// paper's future work) in every cell.
	Reschedule bool

	// CCRCases is the workload-shape axis; nil collapses to the default
	// Table I generator.
	CCRCases []CCRCase

	// Arrivals is the arrival-process axis; nil collapses to the batch
	// load (everything submitted at t=0, the paper's setting and this
	// simulator's historical behavior — cells with the zero ArrivalCase
	// are bit-identical to pre-arrival sweeps).
	Arrivals []ArrivalCase

	// SLAs is the economic axis: each case attaches an SLA spec and a
	// pricing model to every cell it generates. Unlike the other axes this
	// one is never materialized by withDefaults — nil (and the all-default
	// single case, which collapses to nil) must keep the marshaled spec,
	// its SpecHash and every warm-start cell key byte-identical to sweeps
	// that predate the economic layer. The json tag makes the absent axis
	// disappear from the canonical encoding for the same reason.
	SLAs []SLACase `json:",omitempty"`
}

// withDefaults normalizes the spec without mutating the caller's slices.
func (sp SweepSpec) withDefaults() SweepSpec {
	if sp.Reps < 1 {
		sp.Reps = 1
	}
	if len(sp.Algorithms) == 0 {
		sp.Algorithms = heuristics.Names()
	}
	if len(sp.LoadFactors) == 0 {
		sp.LoadFactors = []int{0}
	}
	if len(sp.ChurnFactors) == 0 {
		sp.ChurnFactors = []float64{0}
	}
	if len(sp.CCRCases) == 0 {
		sp.CCRCases = []CCRCase{{}}
	}
	if len(sp.Arrivals) == 0 {
		sp.Arrivals = []ArrivalCase{{}}
	} else {
		// Canonicalize arrival specs so equal-behavior spellings (explicit
		// "batch", mmpp burst 8, ...) share one SpecHash and one warm-start
		// cache identity. Copied, not mutated in place: the caller's slice
		// stays untouched like every other axis here.
		norm := make([]ArrivalCase, len(sp.Arrivals))
		for i, ac := range sp.Arrivals {
			ac.Spec = ac.Spec.Normalize()
			norm[i] = ac
		}
		sp.Arrivals = norm
	}
	switch {
	case len(sp.SLAs) == 1 && sp.SLAs[0].isDefault():
		// A single all-default case is the absent axis: collapse it so the
		// spec hashes (and cell-caches) identically to a nil SLAs slice.
		sp.SLAs = nil
	case len(sp.SLAs) > 0:
		norm := make([]SLACase, len(sp.SLAs))
		for i, c := range sp.SLAs {
			c.SLA = c.SLA.Normalize()
			norm[i] = c
		}
		sp.SLAs = norm
	}
	return sp
}

// maxSweepJobs bounds a spec's job matrix. It admits every sweep the CLI
// can declare at up to three replications (all seven axes at paper scale
// make 320,000 cells) while capping what a spec decoded from a shard file,
// a cache or a work directory can make the runner expand.
const maxSweepJobs = 1 << 20

var (
	// ErrTooManyReps rejects a spec whose replication count exceeds
	// adaptiveRepCeiling, the bound the adaptive driver also stops at.
	ErrTooManyReps = errors.New("experiments: sweep replication count above the ceiling")

	// ErrTooManyJobs rejects a spec whose job matrix exceeds maxSweepJobs.
	ErrTooManyJobs = errors.New("experiments: sweep job matrix above the limit")
)

// jobCount returns the size of the normalized spec's job matrix, the
// product of its axis lengths and Reps, without expanding any axis. Each
// factor is checked against maxSweepJobs before it multiplies, so the
// product never overflows.
func (sp SweepSpec) jobCount() (int, error) {
	if sp.Reps > adaptiveRepCeiling {
		return 0, fmt.Errorf("%w: %d replications, at most %d", ErrTooManyReps, sp.Reps, adaptiveRepCeiling)
	}
	n := sp.Reps
	for _, axis := range []int{len(sp.Scales), len(sp.ChurnFactors), len(sp.LoadFactors), len(sp.CCRCases),
		len(sp.Arrivals), max(len(sp.SLAs), 1), len(sp.Algorithms)} {
		if axis > 0 && n > maxSweepJobs/axis {
			return 0, fmt.Errorf("%w: more than %d jobs", ErrTooManyJobs, maxSweepJobs)
		}
		n *= axis
	}
	return n, nil
}

func (sp SweepSpec) validate() error {
	if len(sp.Scales) == 0 {
		return fmt.Errorf("experiments: sweep needs at least one scale")
	}
	if _, err := sp.jobCount(); err != nil {
		return err
	}
	for _, name := range sp.Algorithms {
		if _, err := heuristics.ByName(name); err != nil {
			return err
		}
	}
	for _, df := range sp.ChurnFactors {
		if df < 0 || df > 1 {
			return fmt.Errorf("experiments: churn factor %v outside [0,1]", df)
		}
	}
	for _, lf := range sp.LoadFactors {
		if lf < 0 {
			return fmt.Errorf("experiments: negative load factor %d", lf)
		}
	}
	for i, ac := range sp.Arrivals {
		if err := ac.validate(); err != nil {
			return fmt.Errorf("experiments: arrival case %d: %w", i, err)
		}
	}
	for i, c := range sp.SLAs {
		if err := c.validate(); err != nil {
			return fmt.Errorf("experiments: SLA case %d: %w", i, err)
		}
	}
	return nil
}

// SpecHash fingerprints the normalized spec: a SHA-256 over CodeVersion
// plus the canonical JSON encoding of the spec with defaults applied.
// Equal hashes mean byte-identical sweep output; the shard merger refuses
// to combine partials whose hashes differ (different spec, different
// flags, or a binary with different simulation semantics).
func (sp SweepSpec) SpecHash() string {
	data, err := json.Marshal(sp.withDefaults())
	if err != nil {
		// A SweepSpec is plain data (no cycles, channels or functions);
		// Marshal cannot fail on it.
		panic(fmt.Sprintf("experiments: spec hash: %v", err))
	}
	h := sha256.New()
	h.Write([]byte(CodeVersion))
	h.Write([]byte{'\n'})
	h.Write(data)
	return hex.EncodeToString(h.Sum(nil))
}

// Scenario is one cell of the matrix minus the algorithm axis: every
// algorithm faces the identical scenario (same topology, workload and churn
// schedule per replication), so per-replication comparisons are paired.
type Scenario struct {
	ScaleIndex int // index into the spec's scale axis (seed derivation)
	Scale      Scale
	LoadFactor int     // 0 = the scale's default
	Churn      float64 // 0 = static
	CCR        CCRCase // zero Label = default Table I generator

	// Arrival is the arrival-process cell; the zero value is the batch
	// load at t=0 (the default axis point).
	Arrival ArrivalCase

	// ChurnLayout forces the half-homes layout even at Churn == 0 (the
	// df=0 cell of a churn-axis sweep, see SweepSpec.ChurnLayout).
	ChurnLayout bool

	// SLA is the economic cell, nil outside SLA sweeps. A pointer with
	// omitempty — not a struct value — because the scenario's canonical
	// JSON is the warm-start cell-cache key (sweepPlan.cellKey): the absent axis
	// must leave every pre-economy cache identity byte-identical.
	SLA *SLACase `json:",omitempty"`
}

// Label renders the scenario compactly for tables and JSON.
func (sc Scenario) Label() string {
	s := "scale=" + sc.Scale.Name
	if sc.LoadFactor > 0 {
		s += fmt.Sprintf(" lf=%d", sc.LoadFactor)
	}
	if sc.Churn > 0 || sc.ChurnLayout {
		s += fmt.Sprintf(" churn=%.1f", sc.Churn)
	}
	if sc.CCR.Label != "" {
		s += " ccr=" + sc.CCR.Label
	}
	if sc.Arrival.Label != "" {
		s += " arrival=" + sc.Arrival.Label
	}
	if sc.SLA != nil && sc.SLA.Label != "" {
		s += " sla=" + sc.SLA.Label
	}
	return s
}

// setting materializes the scenario for one replication seed, sharing the
// prebuilt topology.
func (sc Scenario) setting(seed int64, net *topology.Network, reschedule bool) Setting {
	s := NewSetting(sc.Scale, seed)
	s.Net = net
	s.RescheduleFailed = reschedule
	if sc.LoadFactor > 0 {
		s.Scale.LoadFactor = sc.LoadFactor
	}
	if sc.CCR.Label != "" {
		s.Gen = workload.CCRScenario(sc.CCR.LoadMI, sc.CCR.DataMb)
	}
	s.Arrival = sc.Arrival.Spec
	s.Trace = sc.Arrival.Trace
	if sc.SLA != nil {
		s.SLA = sc.SLA.SLA
		s.Price = sc.SLA.Price
	}
	if sc.Churn > 0 || sc.ChurnLayout {
		stable := sc.Scale.Nodes / 2
		s.Homes = stable
		// Fig. 12-14 layout: half the homes at twice the load factor keeps
		// the workflow total equal to the static cells of the same sweep.
		s.Scale.LoadFactor *= 2
		if sc.Churn > 0 {
			s.Churn = grid.ChurnConfig{
				DynamicFactor: sc.Churn,
				StableCount:   stable,
				Seed:          stats.SplitSeed(seed, uint64(sc.Churn*1000)),
			}
		}
	}
	return s
}

// Scenarios expands the spec's scenario axes in a fixed documented order:
// scale (outer), churn, load factor, CCR, arrival, SLA (inner). The order
// is part of the determinism contract - cells, seeds and JSON all follow
// it. The absent SLA axis expands to one nil pointer, not a default case,
// keeping non-economic scenarios (and their cache keys) exactly as before.
func (sp SweepSpec) Scenarios() []Scenario {
	sp = sp.withDefaults()
	slas := []*SLACase{nil}
	if len(sp.SLAs) > 0 {
		slas = make([]*SLACase, len(sp.SLAs))
		for i := range sp.SLAs {
			slas[i] = &sp.SLAs[i]
		}
	}
	var out []Scenario
	for si, scale := range sp.Scales {
		for _, df := range sp.ChurnFactors {
			for _, lf := range sp.LoadFactors {
				for _, ccr := range sp.CCRCases {
					for _, ac := range sp.Arrivals {
						for _, sla := range slas {
							out = append(out, Scenario{
								ScaleIndex: si, Scale: scale,
								LoadFactor: lf, Churn: df, CCR: ccr,
								Arrival:     ac,
								ChurnLayout: sp.ChurnLayout,
								SLA:         sla,
							})
						}
					}
				}
			}
		}
	}
	return out
}

// SweepJob locates one replication of one cell in the canonical expansion
// order. Job IDs are dense and global: scenario-major, then algorithm,
// then replication, exactly the order Scenarios and the spec's Algorithms
// declare. The ID space is the sharding contract — every worker derives
// the same enumeration from the same spec, so a [lo,hi) ID range names the
// same simulations on every machine.
type SweepJob struct {
	ID       int // global job ID, 0 <= ID < NumJobs
	Cell     int // cell index: ID / Reps
	Scenario Scenario
	Algo     string
	Rep      int   // replication index within the cell
	Seed     int64 // the (scale, rep) pair seed this run consumes
}

// Jobs returns the full canonical job enumeration of the spec.
func (sp SweepSpec) Jobs() ([]SweepJob, error) {
	plan, err := newSweepPlan(sp)
	if err != nil {
		return nil, err
	}
	jobs := make([]SweepJob, plan.numJobs())
	for id := range jobs {
		jobs[id] = plan.job(id)
	}
	return jobs, nil
}

// NumJobs validates the spec and returns the size of its job matrix
// (scenarios x algorithms x replications) without expanding it.
func (sp SweepSpec) NumJobs() (int, error) {
	sp = sp.withDefaults()
	if err := sp.validate(); err != nil {
		return 0, err
	}
	return sp.jobCount()
}

// pairKey identifies one (scale, replication) pair: the unit that shares a
// topology and a derived seed across every scenario and algorithm.
type pairKey struct{ scale, rep int }

// sweepSeed derives the run seed of one (scale, replication) pair. The
// first replication at the first scale uses the root seed unchanged, so
// cell (0, 0) of any sweep reproduces the corresponding single-seed figure
// run exactly (the golden determinism contract); every other pair gets an
// independent ChainSeed stream. Scenario axes other than scale share the
// pair's seed: load-factor, CCR and churn cells of one replication face the
// same topology and base randomness (common random numbers).
func sweepSeed(root int64, scaleIdx, rep int) int64 {
	if scaleIdx == 0 && rep == 0 {
		return root
	}
	return stats.ChainSeed(root, 0xA1E5+uint64(scaleIdx), 0x5EED+uint64(rep))
}

// Cell is one aggregated (scenario, algorithm) cell of a completed sweep.
type Cell struct {
	Index    int // cell index in scenario-major, algorithm-minor order
	Scenario Scenario
	Algo     string
	Seeds    []int64 // per-replication run seeds (shared across algorithms)

	// Stats holds the reduced per-replication records (replication order):
	// everything aggregates, summary tables and figure series need.
	Stats []metrics.RunStats

	// Runs holds the full per-replication Results. The streaming runner
	// drops them the moment the cell finalizes; they are populated only
	// when the caller opts into retention (RunOptions.RetainRuns).
	Runs []Result

	Agg metrics.RunAggregate

	// Obs is the merged virtual-time distribution block of the cell's
	// replications, nil unless the sweep ran with RunOptions.Obs. Pure
	// observation: it rides the artifact as an omitempty field and never
	// participates in cache keys or spec hashes.
	Obs *obs.Summary
}

// SweepResult is a completed sweep: cells in scenario-major, algorithm-minor
// order (both following the spec's declared order).
type SweepResult struct {
	Spec      SweepSpec
	Scenarios []Scenario
	Cells     []Cell
}

// Series extracts one error-bar curve per algorithm of a single-scenario
// sweep: the pointwise mean across replications with 95% CI half-widths
// (Err is nil for single-replication sweeps - no dispersion information).
func (r *SweepResult) Series(title, xlabel, ylabel string, extract func(*metrics.RunStats) []float64) SeriesSet {
	return r.SeriesBy(title, xlabel, ylabel, extract, func(c *Cell) string { return c.Algo })
}

// SeriesBy is Series with a caller-chosen curve label per cell — the churn
// figures label curves by dynamic factor rather than by algorithm.
func (r *SweepResult) SeriesBy(title, xlabel, ylabel string, extract func(*metrics.RunStats) []float64, label func(*Cell) string) SeriesSet {
	set := SeriesSet{Title: title, XLabel: xlabel, YLabel: ylabel}
	if len(r.Cells) == 0 || len(r.Cells[0].Stats) == 0 {
		return set
	}
	set.X = append(set.X, r.Cells[0].Stats[0].Hours...)
	for i := range r.Cells {
		c := &r.Cells[i]
		series := make([][]float64, len(c.Stats))
		for j := range c.Stats {
			series[j] = extract(&c.Stats[j])
		}
		ests := metrics.EstimateSeries(series)
		ls := LabeledSeries{Label: label(c), Y: make([]float64, len(ests))}
		if len(c.Stats) > 1 {
			ls.Err = make([]float64, len(ests))
		}
		for j, e := range ests {
			ls.Y[j] = e.Mean
			if ls.Err != nil {
				ls.Err[j] = e.CI95
			}
		}
		set.Series = append(set.Series, ls)
	}
	return set
}

// Table flattens the sweep into one row per cell with mean ± 95% CI
// columns.
func (r *SweepResult) Table(title string) Table {
	t := Table{
		Title:  title,
		Header: []string{"scenario", "algorithm", "reps", "ACT(s)", "AE", "completion"},
	}
	for _, c := range r.Cells {
		t.Rows = append(t.Rows, []string{
			c.Scenario.Label(),
			c.Algo,
			fmt.Sprintf("%d", c.Agg.Reps),
			formatEstimate(c.Agg.ACT, 0),
			formatEstimate(c.Agg.AE, 3),
			formatEstimate(c.Agg.CompletionRate, 3),
		})
	}
	return t
}

// SummaryTable condenses a single-scenario sweep into the classic
// final-state comparison; with one replication it matches the single-run
// layout exactly, with more it reports mean ± 95% CI.
func (r *SweepResult) SummaryTable(title string) Table {
	return r.summaryTable(title, func(c *Cell) string { return c.Algo })
}

func (r *SweepResult) summaryTable(title string, label func(*Cell) string) Table {
	t := Table{
		Title:  title,
		Header: []string{"algorithm", "completed", "failed", "ACT(s)", "AE"},
	}
	for i := range r.Cells {
		c := &r.Cells[i]
		if r.Spec.Reps == 1 {
			// Single replication: the exact single-run layout (plain ints).
			final := c.Stats[0].Final
			t.Rows = append(t.Rows, []string{
				label(c),
				fmt.Sprintf("%d", final.Completed),
				fmt.Sprintf("%d", final.Failed),
				fmt.Sprintf("%.0f", final.ACT),
				fmt.Sprintf("%.3f", final.AE),
			})
			continue
		}
		t.Rows = append(t.Rows, []string{
			label(c),
			formatEstimate(c.Agg.Completed, 1),
			formatEstimate(c.Agg.Failed, 1),
			formatEstimate(c.Agg.ACT, 0),
			formatEstimate(c.Agg.AE, 3),
		})
	}
	return t
}

// formatEstimate renders "mean" for single replications and "mean ± ci95"
// otherwise, with the given decimal precision.
func formatEstimate(e metrics.Estimate, prec int) string {
	if e.N < 2 {
		return fmt.Sprintf("%.*f", prec, e.Mean)
	}
	return fmt.Sprintf("%.*f ± %.*f", prec, e.Mean, prec, e.CI95)
}

// The sweep artifact envelope lives in internal/wire (the single source of
// truth for every versioned schema); the aliases keep the call sites and
// the artifact bytes exactly as they were. Every field is a pure function
// of the spec, so marshaling the same spec twice produces byte-identical
// output (the CI snapshot contract) — whether the cells came from one
// host, from merged shards, or from the warm-start cache.
type (
	sweepJSON     = wire.Sweep
	sweepCellJSON = wire.SweepCell
)

// JSON marshals the sweep result into the stable machine-readable schema
// (indented, trailing newline).
func (r *SweepResult) JSON() ([]byte, error) {
	out := sweepJSON{
		Schema:     wire.SweepV1,
		Name:       r.Spec.Name,
		Seed:       r.Spec.Seed,
		Reps:       r.Spec.Reps,
		Algorithms: r.Spec.Algorithms,
	}
	for _, c := range r.Cells {
		lf := c.Scenario.LoadFactor
		if lf == 0 {
			lf = c.Scenario.Scale.LoadFactor
		}
		cellReps := 0
		if c.Agg.Reps != r.Spec.Reps {
			cellReps = c.Agg.Reps
		}
		slaLabel := ""
		if c.Scenario.SLA != nil {
			slaLabel = c.Scenario.SLA.Label
		}
		out.Cells = append(out.Cells, sweepCellJSON{
			Scenario:   c.Scenario.Label(),
			Scale:      c.Scenario.Scale.Name,
			Nodes:      c.Scenario.Scale.Nodes,
			LoadFactor: lf,
			Churn:      c.Scenario.Churn,
			CCR:        c.Scenario.CCR.Label,
			Arrival:    c.Scenario.Arrival.Label,
			SLA:        slaLabel,
			Algo:       c.Algo,
			Reps:       cellReps,
			Seeds:      c.Seeds,
			Aggregate:  c.Agg,
			Obs:        c.Obs,
		})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("experiments: sweep json: %w", err)
	}
	return append(data, '\n'), nil
}
