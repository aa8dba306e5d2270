package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"repro/internal/experiments/executor"
	"repro/internal/heuristics"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/topology"
	"repro/internal/wire"
)

// This file is the streaming runner: the execution half of the sweep API.
// A normalized spec expands into a deterministic job matrix (sweep.go);
// runMatrix runs a set of its job IDs behind the pluggable
// executor.Executor interface and is the only code that hands jobs to an
// executor. A plain sweep is every ID, a shard (RunShard) or coordinator
// work unit (RunCellUnit) an ID range, and each round of the adaptive
// driver (RunAdaptiveCells) the IDs of its open cells. Each (scenario,
// algorithm) cell is finalized and aggregated the moment its last
// replication lands (CellObserver), per-run Results are dropped
// immediately unless the caller opts into retention, topologies are built
// lazily per (scale, replication) pair and released when the pair's last
// job completes, and a content-addressed cell cache lets a re-run with one
// changed axis execute only the missing cells. MergeShards reassembles
// partials into a SweepResult that is byte-identical to a single-host run.

// CellObserver receives each finalized cell as soon as its last
// replication lands. Calls are serialized by the runner but arrive in
// nondeterministic completion order — use Cell.Index to reorder. The
// pointed-to Cell is owned by the runner's result; observers must not
// mutate it.
type CellObserver func(*Cell)

// RunOptions configures one streaming run. The zero value executes the
// whole matrix on the local bounded pool with no cache, no observer and no
// run retention.
type RunOptions struct {
	// Executor runs the jobs the runner hands it and must run every one;
	// nil means executor.Local{} (a bounded pool of GOMAXPROCS workers).
	Executor executor.Executor

	// Cache, when non-nil, memoizes finalized cells by content hash: a
	// re-run of an overlapping spec loads hits (prefix replications
	// included) and executes only the missing jobs.
	Cache executor.Cache

	// Observer streams finalized cells.
	Observer CellObserver

	// Progress is invoked serially after every accounted job (executed or
	// cache-restored) with the running done count and the number of jobs
	// the call accounts for: the whole matrix for a sweep, the range for a
	// shard or cell unit, one round's jobs for the adaptive driver.
	Progress func(done, total int)

	// RetainRuns keeps every full per-run Result on its cell. Off by
	// default: a paper-scale sweep's peak memory must not grow with the
	// replication count.
	RetainRuns bool

	// Shards is ignored: every simulation runs one serial gossip cycle.
	//
	// Deprecated: nothing reads it.
	Shards int

	// Obs collects the virtual-time latency histograms of every
	// replication and attaches the merged distribution block to each
	// finalized cell (Cell.Obs, replication-order merge, so the summary
	// is deterministic). Off by default: with Obs false every run skips
	// observation entirely and the sweep artifact is byte-identical to
	// pre-observability output. Cache-restored replications carry no
	// observations (the cell cache schema predates them), and the
	// adaptive driver ignores Obs like it ignores RetainRuns, so the
	// flag is for plain single-host sweeps.
	Obs bool
}

// sweepPlan is a normalized, validated spec with its scenario axes
// expanded: the pure-data side every runner entry point shares.
type sweepPlan struct {
	spec  SweepSpec // normalized
	scens []Scenario
}

func newSweepPlan(spec SweepSpec) (*sweepPlan, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	return &sweepPlan{spec: spec, scens: spec.Scenarios()}, nil
}

func (p *sweepPlan) numCells() int { return len(p.scens) * len(p.spec.Algorithms) }
func (p *sweepPlan) numJobs() int  { return p.numCells() * p.spec.Reps }

// job decodes a global job ID (cell-major, replication-minor).
func (p *sweepPlan) job(id int) SweepJob {
	cell := id / p.spec.Reps
	rep := id % p.spec.Reps
	sc := p.scens[cell/len(p.spec.Algorithms)]
	return SweepJob{
		ID:       id,
		Cell:     cell,
		Scenario: sc,
		Algo:     p.spec.Algorithms[cell%len(p.spec.Algorithms)],
		Rep:      rep,
		Seed:     sweepSeed(p.spec.Seed, sc.ScaleIndex, rep),
	}
}

// cellSeeds returns the per-replication seeds of one cell.
func (p *sweepPlan) cellSeeds(cell int) []int64 {
	sc := p.scens[cell/len(p.spec.Algorithms)]
	seeds := make([]int64, p.spec.Reps)
	for r := range seeds {
		seeds[r] = sweepSeed(p.spec.Seed, sc.ScaleIndex, r)
	}
	return seeds
}

// cellKey is the warm-start cache key of one cell: a SHA-256 over the
// code version and every parameter that determines the cell's runs —
// scenario, algorithm, the seed-deriving tuple (root seed, scale index)
// and the spec-level switches. The replication count is deliberately
// excluded: rep seeds are a pure function of (root, scale index, rep), so
// a higher-Reps run extends a cached prefix instead of missing it, which
// is what the adaptive driver's rounds rely on.
func (p *sweepPlan) cellKey(cell int) string {
	sc := p.scens[cell/len(p.spec.Algorithms)]
	algo := p.spec.Algorithms[cell%len(p.spec.Algorithms)]
	doc := struct {
		Version    string
		RootSeed   int64
		Scenario   Scenario
		Reschedule bool
		Algo       string
	}{CodeVersion, p.spec.Seed, sc, p.spec.Reschedule, algo}
	data, err := json.Marshal(doc)
	if err != nil {
		panic(fmt.Sprintf("experiments: cell key: %v", err)) // plain data, cannot fail
	}
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

// cellCacheJSON is the on-disk schema of one cached cell (envelope in
// internal/wire; alias keeps the bytes identical).
type cellCacheJSON = wire.CellCache

const cellCacheSchema = wire.CellCacheV1

// loadCellStats returns a cached cell's per-replication records, or nil on
// any miss (absent, unreadable, or foreign schema — all treated the same:
// the cell simply runs).
func loadCellStats(cache executor.Cache, key string) []metrics.RunStats {
	data, ok := cache.Get(key)
	if !ok {
		return nil
	}
	var doc cellCacheJSON
	if err := json.Unmarshal(data, &doc); err != nil || doc.Schema != cellCacheSchema {
		return nil
	}
	return doc.Stats
}

func storeCellStats(cache executor.Cache, key string, sts []metrics.RunStats) error {
	data, err := json.Marshal(cellCacheJSON{Schema: cellCacheSchema, Stats: sts})
	if err != nil {
		return fmt.Errorf("experiments: cell cache encode: %w", err)
	}
	if err := cache.Put(key, data); err != nil {
		return fmt.Errorf("experiments: cell cache store: %w", err)
	}
	return nil
}

// pairNet lazily materializes the shared topology of one (scale,
// replication) pair on whichever pool worker needs it first, and releases
// it once the pair's last scheduled job completes — a multi-scale sweep
// holds at most one scale's replications' topologies at a time instead of
// the whole matrix's.
type pairNet struct {
	once    sync.Once
	net     *topology.Network
	err     error
	pending int // scheduled jobs not yet finished; guarded by sweepState.mu
}

// cellState tracks one cell mid-flight.
type cellState struct {
	acc       *metrics.CellAccumulator // nil until the cell's first ID comes up
	runs      []Result                 // populated only under RetainRuns
	obs       []*obs.GridMetrics       // per-replication metrics, only under Obs
	cachedLen int                      // replication count of the cache entry we loaded
	final     *Cell                    // set on finalization
}

// sweepState is one streaming execution in progress.
type sweepState struct {
	plan *sweepPlan
	opts RunOptions

	mu    sync.Mutex
	cells []cellState
	pairs map[pairKey]*pairNet
	done  int
	total int // jobs this run accounts for: the IDs it was given
}

// runMatrix runs the given job IDs of the plan, in increasing order: every
// ID for RunSweepStream, an ID range for RunShard and RunCellUnit, the open
// cells' IDs for each round of RunAdaptiveCells. It is the only code that
// hands jobs to an executor. A cell opens, and its cache entry is
// restored, when its first ID comes up, so a per-cell work unit never
// probes the cache for the sweep's other cells (that would make a
// cache-backed worker quadratic in cell count). Only the IDs the cache
// lacks execute; Progress counts all the given IDs, restored ones included.
func runMatrix(plan *sweepPlan, opts RunOptions, ids []int) (*sweepState, error) {
	st := &sweepState{
		plan:  plan,
		opts:  opts,
		cells: make([]cellState, plan.numCells()),
		pairs: make(map[pairKey]*pairNet),
		total: len(ids),
	}
	// Schedule the missing jobs and count them per pair so each pair's
	// topology can be released the moment its last job finishes.
	var run []int
	for _, id := range ids {
		j := plan.job(id)
		cs := &st.cells[j.Cell]
		if cs.acc == nil {
			if err := st.openCell(j.Cell); err != nil {
				return nil, err
			}
		}
		if cs.acc.Has(j.Rep) {
			st.done++ // restored from the cache
			continue
		}
		run = append(run, id)
		pk := pairKey{j.Scenario.ScaleIndex, j.Rep}
		pn := st.pairs[pk]
		if pn == nil {
			pn = &pairNet{}
			st.pairs[pk] = pn
		}
		pn.pending++
	}
	if st.done > 0 && opts.Progress != nil {
		opts.Progress(st.done, st.total)
	}
	if len(run) == 0 {
		return st, nil
	}
	exec := opts.Executor
	if exec == nil {
		exec = executor.Local{}
	}
	if err := exec.Execute(run, st.runJob); err != nil {
		return nil, err
	}
	return st, nil
}

// openCell prepares cell c and restores its cached replications, finalizing
// the cell when the cache holds all of them (its entry then needs no
// rewrite). runMatrix calls it before any job runs, so no lock is needed.
func (st *sweepState) openCell(c int) error {
	reps := st.plan.spec.Reps
	cs := &st.cells[c]
	cs.acc = metrics.NewCellAccumulator(reps)
	if st.opts.RetainRuns {
		cs.runs = make([]Result, reps)
	}
	if st.opts.Obs {
		cs.obs = make([]*obs.GridMetrics, reps)
	}
	if st.opts.Cache == nil {
		return nil
	}
	cached := loadCellStats(st.opts.Cache, st.plan.cellKey(c))
	cs.cachedLen = len(cached)
	for r := 0; r < len(cached) && r < reps; r++ {
		if err := cs.acc.Add(r, cached[r]); err != nil {
			return err
		}
	}
	if cs.acc.Done() {
		st.finalizeCellLocked(c)
	}
	return nil
}

// executeSweepJob simulates one job: build-or-reuse the pair's shared
// topology (first caller generates it), run the algorithm, and reduce the
// outcome. The full Result is returned alongside the reduced record for
// callers that retain runs, and the run's histograms when opts.Obs is set.
func (st *sweepState) executeSweepJob(j SweepJob, pn *pairNet) (metrics.RunStats, Result, *obs.GridMetrics, error) {
	sc := j.Scenario
	pn.once.Do(func() {
		pn.net, pn.err = topology.Generate(topoConfig(sc.Scale.Nodes, j.Seed))
	})
	if pn.err != nil {
		return metrics.RunStats{}, Result{}, nil, fmt.Errorf("experiments: sweep topology (scale %s, rep %d): %w",
			sc.Scale.Name, j.Rep, pn.err)
	}
	a, err := heuristics.ByName(j.Algo)
	if err != nil {
		return metrics.RunStats{}, Result{}, nil, err // unreachable after validate; belt and braces
	}
	setting := sc.setting(j.Seed, pn.net, st.plan.spec.Reschedule)
	var gm *obs.GridMetrics
	if st.opts.Obs {
		gm = obs.NewGridMetrics()
		setting.Tap = gm
	}
	res, err := Run(setting, a)
	if err != nil {
		return metrics.RunStats{}, Result{}, nil, err
	}
	return metrics.ReduceRun(&res.Collector, res.Final, res.Submitted, res.CCR), res, gm, nil
}

// runJob executes one job on a pool worker: simulate via executeSweepJob
// and fold the outcome into the cell.
func (st *sweepState) runJob(id int) error {
	j := st.plan.job(id)
	pk := pairKey{j.Scenario.ScaleIndex, j.Rep}
	st.mu.Lock()
	pn := st.pairs[pk]
	st.mu.Unlock()
	sts, res, gm, err := st.executeSweepJob(j, pn)
	if err != nil {
		return err
	}

	st.mu.Lock()
	cs := &st.cells[j.Cell]
	if err := cs.acc.Add(j.Rep, sts); err != nil {
		st.mu.Unlock()
		return err
	}
	if st.opts.RetainRuns {
		cs.runs[j.Rep] = res
	}
	if st.opts.Obs {
		cs.obs[j.Rep] = gm
	}
	st.done++
	if st.opts.Progress != nil {
		st.opts.Progress(st.done, st.total)
	}
	var toStore *Cell
	if cs.acc.Done() {
		toStore = st.finalizeCellLocked(j.Cell)
	}
	pn.pending--
	if pn.pending == 0 {
		// Last job of the pair: release the topology (each retained Result
		// still references it when the caller opted into retention).
		pn.net = nil
	}
	st.mu.Unlock()
	if toStore != nil {
		return storeCellStats(st.opts.Cache, st.plan.cellKey(j.Cell), toStore.Stats)
	}
	return nil
}

// finalizeCellLocked aggregates a completed cell and streams it to the
// observer, returning the cell if the caller should persist it to the
// cache. Caller holds st.mu (or is still single-goroutine in openCell),
// which serializes observer calls; the cache write itself happens
// outside the lock so disk latency never stalls the worker pool.
func (st *sweepState) finalizeCellLocked(c int) (toStore *Cell) {
	cs := &st.cells[c]
	plan := st.plan
	cell := &Cell{
		Index:    c,
		Scenario: plan.scens[c/len(plan.spec.Algorithms)],
		Algo:     plan.spec.Algorithms[c%len(plan.spec.Algorithms)],
		Seeds:    plan.cellSeeds(c),
		Stats:    cs.acc.Stats(),
		Runs:     cs.runs,
		Agg:      cs.acc.Aggregate(),
	}
	if st.opts.Obs {
		// Merge in replication order — not completion order — so the
		// float sums (and therefore the artifact bytes) are deterministic.
		merged := obs.NewGridMetrics()
		for _, gm := range cs.obs {
			if err := merged.Merge(gm); err != nil {
				// Unreachable: every GridMetrics here came from the
				// standard constructor, so layouts always match.
				panic(fmt.Sprintf("experiments: cell %d obs merge: %v", c, err))
			}
		}
		cell.Obs = merged.Summary()
	}
	cs.final = cell
	if st.opts.Observer != nil {
		st.opts.Observer(cell)
	}
	if st.opts.Cache != nil && len(cell.Stats) > cs.cachedLen {
		return cell
	}
	return nil
}

// final returns finalized cell c, or an error if some of its given IDs
// never ran: an executor must run every ID it is given.
func (st *sweepState) final(c int) (*Cell, error) {
	cs := &st.cells[c]
	if cs.final == nil {
		return nil, fmt.Errorf("experiments: cell %d incomplete (%d/%d replications) — executor did not run every job it was given",
			c, cs.acc.Count(), st.plan.spec.Reps)
	}
	return cs.final, nil
}

// result assembles the finalized cells into a SweepResult.
func (st *sweepState) result() (*SweepResult, error) {
	res := &SweepResult{Spec: st.plan.spec, Scenarios: st.plan.scens}
	res.Cells = make([]Cell, len(st.cells))
	for c := range st.cells {
		cell, err := st.final(c)
		if err != nil {
			return nil, err
		}
		res.Cells[c] = *cell
	}
	return res, nil
}

// idRange returns the job IDs [lo,hi).
func idRange(lo, hi int) []int {
	ids := make([]int, hi-lo)
	for i := range ids {
		ids[i] = lo + i
	}
	return ids
}

// RunSweepStream executes the full job matrix through the streaming
// runner. It is the primary entry point of the redesigned API: cells
// finalize (aggregate + cache + observer) the moment their last
// replication lands, and per-run Results are dropped immediately unless
// opts.RetainRuns is set, so peak memory is bounded by the in-flight runs
// rather than by the matrix size.
func RunSweepStream(spec SweepSpec, opts RunOptions) (*SweepResult, error) {
	plan, err := newSweepPlan(spec)
	if err != nil {
		return nil, err
	}
	st, err := runMatrix(plan, opts, idRange(0, plan.numJobs()))
	if err != nil {
		return nil, err
	}
	return st.result()
}

// ShardResult is the mergeable partial result of one shard: the reduced
// per-job records of the contiguous window [Lo,Hi) of a spec's job matrix
// (a -shard i/n split or one cell unit of the work-stealing coordinator),
// plus enough of the spec to reassemble (and cross-check) the full sweep.
type ShardResult struct {
	Spec SweepSpec
	Hash string // SpecHash of Spec at production time
	Lo   int    // first job ID covered (inclusive)
	Hi   int    // one past the last job ID covered (exclusive)
	Jobs int    // total job count of the full matrix
	// Stats[i] is the record of job Lo+i.
	Stats []metrics.RunStats
}

// RunShard executes only shard `shard` of `shards` over the spec's job
// matrix: the [lo,hi) ID range of the canonical enumeration, as split by
// executor.ShardRange.
func RunShard(spec SweepSpec, shard, shards int, opts RunOptions) (*ShardResult, error) {
	if shards < 1 || shard < 0 || shard >= shards {
		return nil, fmt.Errorf("experiments: shard %d/%d invalid (want 0 <= shard < shards)", shard, shards)
	}
	plan, err := newSweepPlan(spec)
	if err != nil {
		return nil, err
	}
	lo, hi := executor.ShardRange(plan.numJobs(), shard, shards)
	return runRange(plan, opts, lo, hi)
}

// runRange runs the job IDs [lo,hi) of the plan and returns their records
// as a mergeable partial: the body RunShard and RunCellUnit share. Cells
// that complete inside the range still finalize (observer and cache fire);
// the others stay partial and are completed by MergeShards.
func runRange(plan *sweepPlan, opts RunOptions, lo, hi int) (*ShardResult, error) {
	st, err := runMatrix(plan, opts, idRange(lo, hi))
	if err != nil {
		return nil, err
	}
	out := &ShardResult{
		Spec:  plan.spec,
		Hash:  plan.spec.SpecHash(),
		Lo:    lo,
		Hi:    hi,
		Jobs:  plan.numJobs(),
		Stats: make([]metrics.RunStats, hi-lo),
	}
	for id := lo; id < hi; id++ {
		j := plan.job(id)
		sts, ok := st.cells[j.Cell].acc.Get(j.Rep)
		if !ok {
			return nil, fmt.Errorf("experiments: job %d (cell %d, replication %d) missing after execution", id, j.Cell, j.Rep)
		}
		out.Stats[id-lo] = sts
	}
	return out, nil
}

// shardJSON is the on-disk schema of a shard partial result (envelope in
// internal/wire, instantiated with this package's spec type; the alias
// keeps the bytes identical).
type shardJSON = wire.Shard[SweepSpec]

const shardSchema = wire.ShardV1

// JSON marshals the shard partial result (indented, trailing newline).
func (s *ShardResult) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(shardJSON{
		Schema: shardSchema,
		Hash:   s.Hash,
		Lo:     s.Lo,
		Hi:     s.Hi,
		Jobs:   s.Jobs,
		Spec:   s.Spec,
		Stats:  s.Stats,
	}, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("experiments: shard json: %w", err)
	}
	return append(data, '\n'), nil
}

// DecodeShard parses and verifies a shard partial result. The recorded
// spec hash is recomputed from the embedded spec by the *decoding* binary:
// a shard produced under different simulation semantics (CodeVersion) or a
// different spec fails here instead of corrupting a merge.
func DecodeShard(data []byte) (*ShardResult, error) {
	var doc shardJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("experiments: shard decode: %w", err)
	}
	if err := wire.Expect(doc.Schema, shardSchema); err != nil {
		return nil, fmt.Errorf("experiments: shard: %w", err)
	}
	s := &ShardResult{Spec: doc.Spec, Hash: doc.Hash, Lo: doc.Lo, Hi: doc.Hi, Jobs: doc.Jobs, Stats: doc.Stats}
	if got := s.Spec.SpecHash(); got != s.Hash {
		return nil, fmt.Errorf("experiments: shard spec hash %.12s… does not match recorded %.12s… (different spec or simulator version)", got, s.Hash)
	}
	if s.Hi-s.Lo != len(s.Stats) {
		return nil, fmt.Errorf("experiments: shard window [%d,%d) holds %d stats", s.Lo, s.Hi, len(s.Stats))
	}
	if n, err := s.Spec.NumJobs(); err != nil {
		return nil, err
	} else if n != s.Jobs {
		return nil, fmt.Errorf("experiments: shard records %d total jobs, spec expands to %d", s.Jobs, n)
	}
	return s, nil
}

// MergeShards reassembles shard partials into a complete SweepResult. The
// shards must share one spec hash and their windows must tile [0,Jobs)
// exactly: no gaps, no overlaps. Aggregation feeds the same records through the same
// accumulators in the same replication order as a single-host run, so the
// merged result's JSON is byte-identical to it.
func MergeShards(parts ...*ShardResult) (*SweepResult, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("experiments: no shards to merge")
	}
	sorted := make([]*ShardResult, len(parts))
	copy(sorted, parts)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Lo < sorted[j].Lo })
	first := sorted[0]
	for _, p := range sorted[1:] {
		if p.Hash != first.Hash {
			return nil, fmt.Errorf("experiments: shard spec hashes differ (%.12s… vs %.12s…)", p.Hash, first.Hash)
		}
	}
	seen := make([]bool, first.Jobs)
	covered := 0
	for _, p := range sorted {
		for id := p.Lo; id < p.Hi; id++ {
			if id < 0 || id >= len(seen) {
				return nil, fmt.Errorf("experiments: shard job ID %d outside [0,%d)", id, len(seen))
			}
			if seen[id] {
				return nil, fmt.Errorf("experiments: shards overlap at job %d", id)
			}
			seen[id] = true
			covered++
		}
	}
	if covered != first.Jobs {
		for id, ok := range seen {
			if !ok {
				return nil, fmt.Errorf("experiments: shard coverage gap: job %d missing (%d of %d covered)", id, covered, first.Jobs)
			}
		}
	}

	plan, err := newSweepPlan(first.Spec)
	if err != nil {
		return nil, err
	}
	if plan.numJobs() != first.Jobs {
		return nil, fmt.Errorf("experiments: merged spec expands to %d jobs, shards cover %d", plan.numJobs(), first.Jobs)
	}
	accs := make([]*metrics.CellAccumulator, plan.numCells())
	for c := range accs {
		accs[c] = metrics.NewCellAccumulator(plan.spec.Reps)
	}
	for _, p := range sorted {
		for i, sts := range p.Stats {
			j := plan.job(p.Lo + i)
			if err := accs[j.Cell].Add(j.Rep, sts); err != nil {
				return nil, err
			}
		}
	}
	res := &SweepResult{Spec: plan.spec, Scenarios: plan.scens}
	res.Cells = make([]Cell, plan.numCells())
	for c := range res.Cells {
		res.Cells[c] = Cell{
			Index:    c,
			Scenario: plan.scens[c/len(plan.spec.Algorithms)],
			Algo:     plan.spec.Algorithms[c%len(plan.spec.Algorithms)],
			Seeds:    plan.cellSeeds(c),
			Stats:    accs[c].Stats(),
			Agg:      accs[c].Aggregate(),
		}
	}
	return res, nil
}

// precisionMet reports whether one ACT interval estimate meets the
// relative precision target: CI95 ≤ precision × |mean|. A zero mean only
// converges with a zero half-width (no meaningful relative precision
// exists for it), and a single replication never converges.
func precisionMet(e metrics.Estimate, precision float64) bool {
	if e.N < 2 {
		return false
	}
	mean := e.Mean
	if mean < 0 {
		mean = -mean
	}
	if mean == 0 {
		return e.CI95 == 0
	}
	return e.CI95 <= precision*mean
}

// RunCellUnit executes every replication of one (scenario, algorithm) cell
// and returns its mergeable partial: the work unit of the file-based
// coordinator. Cells are contiguous job-ID ranges in the canonical
// enumeration, so the partial is a classic [Lo,Hi) shard and merges with
// any mix of other units or shards.
func RunCellUnit(spec SweepSpec, cell int, opts RunOptions) (*ShardResult, error) {
	plan, err := newSweepPlan(spec)
	if err != nil {
		return nil, err
	}
	if cell < 0 || cell >= plan.numCells() {
		return nil, fmt.Errorf("experiments: cell %d outside [0,%d)", cell, plan.numCells())
	}
	reps := plan.spec.Reps
	return runRange(plan, opts, cell*reps, (cell+1)*reps)
}

// adaptiveRepFloor is the smallest replication count the per-cell stopper
// accepts as evidence: 3 replications are the smallest batch with a
// non-degenerate t-interval plus one.
const adaptiveRepFloor = 3

// adaptiveRepCeiling bounds an uncapped adaptive run. A cell that has not
// met any sane precision target after this many replications is pinned by
// structural variance, not sampling noise; the ceiling turns a hypothetical
// infinite loop into a finished (if wide) estimate. SweepSpec.validate
// holds every spec to the same bound, so both drivers share it.
const adaptiveRepCeiling = 1 << 14

// RunAdaptiveCells grows every cell's replication count independently
// until that cell's ACT 95% confidence half-width is at most precision ×
// |mean ACT|: per-cell sequential stopping. It runs in rounds on
// runMatrix. Every open cell has the same target, which starts at
// adaptiveRepFloor replications (maxReps if that is smaller) and doubles
// each round, so a round is one fixed-Reps plan over the open cells' job
// IDs. After a round, converged cells and cells at maxReps close
// (non-positive maxReps means uncapped, bounded only by
// adaptiveRepCeiling); the rest go on to the next round. A sweep thus
// stops spending seeds on already-tight cells while a high-variance cell
// keeps sampling.
//
// The result is ragged: each cell carries exactly the replications it
// needed (Spec.Reps reports the largest cell), which the sweep JSON
// records per cell (the uniform case stays byte-identical). The cell
// cache carries earlier rounds' replications forward — opts.Cache when
// provided, otherwise a process-local memory cache — so a round executes
// only its added replications and rewrites the entry of each cell it
// grows. A warm re-run replays cached replications in place of executing
// them, so cold and warm runs produce identical results. Inside rounds
// the observer, opts.RetainRuns and opts.Obs stay off (the driver never
// holds full Results); opts.Observer fires once per cell at the end, in
// cell order, and opts.Progress counts each round's jobs.
func RunAdaptiveCells(spec SweepSpec, precision float64, maxReps int, opts RunOptions) (*SweepResult, error) {
	if precision <= 0 {
		return nil, fmt.Errorf("experiments: adaptive precision must be positive, got %v", precision)
	}
	plan, err := newSweepPlan(spec)
	if err != nil {
		return nil, err
	}
	if maxReps <= 0 || maxReps > adaptiveRepCeiling {
		maxReps = adaptiveRepCeiling
	}
	if opts.Cache == nil {
		opts.Cache = executor.NewMemory()
	}
	observer := opts.Observer
	opts.Observer, opts.RetainRuns, opts.Obs = nil, false, false

	cells := make([]*Cell, plan.numCells())
	open := idRange(0, len(cells))
	for target := min(adaptiveRepFloor, maxReps); len(open) > 0; target = min(2*target, maxReps) {
		round := &sweepPlan{spec: plan.spec, scens: plan.scens}
		round.spec.Reps = target
		ids := make([]int, 0, len(open)*target)
		for _, c := range open {
			for r := 0; r < target; r++ {
				ids = append(ids, c*target+r)
			}
		}
		st, err := runMatrix(round, opts, ids)
		if err != nil {
			return nil, err
		}
		next := open[:0]
		for _, c := range open {
			cell, err := st.final(c)
			if err != nil {
				return nil, err
			}
			if target >= maxReps || (target >= adaptiveRepFloor && precisionMet(cell.Agg.ACT, precision)) {
				cells[c] = cell
			} else {
				next = append(next, c)
			}
		}
		open = next
	}

	// Assemble the ragged result: Spec.Reps reports the largest cell so
	// the JSON's top-level reps bounds every per-cell count.
	res := &SweepResult{Spec: plan.spec, Scenarios: plan.scens, Cells: make([]Cell, len(cells))}
	res.Spec.Reps = 0
	for c, cell := range cells {
		res.Cells[c] = *cell
		res.Spec.Reps = max(res.Spec.Reps, cell.Agg.Reps)
		if observer != nil {
			observer(&res.Cells[c])
		}
	}
	return res, nil
}
