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
// here jobs run behind the pluggable executor.Executor interface, each
// (scenario, algorithm) cell is finalized and aggregated the moment its
// last replication lands (CellObserver), per-run Results are dropped
// immediately unless the caller opts into retention, topologies are built
// lazily per (scale, replication) pair and released when the pair's last
// job completes, and a content-addressed cell cache lets a re-run with one
// changed axis execute only the missing cells. RunShard/MergeShards split
// the same matrix across machines by job-ID range and reassemble partials
// into a SweepResult that is byte-identical to a single-host run.

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
	// Executor runs the job matrix; nil means executor.Local{} (a bounded
	// pool of GOMAXPROCS workers).
	Executor executor.Executor

	// Cache, when non-nil, memoizes finalized cells by content hash: a
	// re-run of an overlapping spec loads hits (prefix replications
	// included) and executes only the missing jobs.
	Cache executor.Cache

	// Observer streams finalized cells.
	Observer CellObserver

	// Progress is invoked serially after every accounted job (executed or
	// cache-restored) with the running done count and the matrix total.
	Progress func(done, total int)

	// RetainRuns keeps every full per-run Result on its cell. Off by
	// default: a paper-scale sweep's peak memory must not grow with the
	// replication count.
	RetainRuns bool

	// Shards spreads every simulation's gossip cycle over this many
	// workers (values <= 1: serial). Results and artifacts are
	// bit-identical across shard counts, so Shards is not part of any
	// cache key or spec hash.
	Shards int

	// Obs collects the virtual-time latency histograms of every
	// replication and attaches the merged distribution block to each
	// finalized cell (Cell.Obs, replication-order merge, so the summary
	// is deterministic). Off by default: with Obs false every run skips
	// observation entirely and the sweep artifact is byte-identical to
	// pre-observability output. Cache-restored replications carry no
	// observations (the cell cache schema predates them), and the
	// adaptive drivers ignore Obs like they ignore RetainRuns, so the
	// flag is for plain single-host sweeps.
	Obs bool
}

// sweepPlan is a normalized, validated spec with its expansion
// precomputed: the pure-data side every runner entry point shares.
type sweepPlan struct {
	spec      SweepSpec // normalized
	scens     []Scenario
	pairSeeds map[pairKey]int64
}

func newSweepPlan(spec SweepSpec) (*sweepPlan, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	p := &sweepPlan{
		spec:      spec,
		scens:     spec.Scenarios(),
		pairSeeds: make(map[pairKey]int64, len(spec.Scales)*spec.Reps),
	}
	for si := range spec.Scales {
		for r := 0; r < spec.Reps; r++ {
			p.pairSeeds[pairKey{si, r}] = sweepSeed(spec.Seed, si, r)
		}
	}
	return p, nil
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
		Seed:     p.pairSeeds[pairKey{sc.ScaleIndex, rep}],
	}
}

// cellSeeds returns the per-replication seeds of one cell.
func (p *sweepPlan) cellSeeds(cell int) []int64 {
	sc := p.scens[cell/len(p.spec.Algorithms)]
	seeds := make([]int64, p.spec.Reps)
	for r := range seeds {
		seeds[r] = p.pairSeeds[pairKey{sc.ScaleIndex, r}]
	}
	return seeds
}

// cellKey is the warm-start cache key of one cell: a SHA-256 over the
// code version and every parameter that determines the cell's runs —
// scenario, algorithm, the seed-deriving tuple (root seed, scale index)
// and the spec-level switches. The replication count is deliberately
// excluded: rep seeds are a pure function of (root, scale index, rep), so
// a higher-Reps run extends a cached prefix instead of missing it, which
// is what adaptive replication batches rely on.
func (p *sweepPlan) cellKey(cell int) string {
	sc := p.scens[cell/len(p.spec.Algorithms)]
	return cellKeyFor(p.spec, sc, p.spec.Algorithms[cell%len(p.spec.Algorithms)])
}

// cellKeyFor computes the cache key of one cell from a normalized spec:
// the shared implementation behind sweepPlan.cellKey and the per-cell
// adaptive driver (which sizes cells dynamically and so never builds a
// fixed-Reps plan).
func cellKeyFor(spec SweepSpec, sc Scenario, algo string) string {
	doc := struct {
		Version    string
		RootSeed   int64
		Scenario   Scenario
		Reschedule bool
		Algo       string
	}{CodeVersion, spec.Seed, sc, spec.Reschedule, algo}
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
	acc       *metrics.CellAccumulator
	runs      []Result           // populated only under RetainRuns
	obs       []*obs.GridMetrics // per-replication metrics, only under Obs
	cachedLen int                // replication count of the cache entry we loaded
	final     *Cell              // set on finalization
}

// sweepState is one streaming execution in progress.
type sweepState struct {
	plan *sweepPlan
	opts RunOptions

	mu    sync.Mutex
	cells []cellState
	pairs map[pairKey]*pairNet
	done  int
}

// runMatrix executes the [lo,hi) job-ID window of the plan: the shared
// engine behind RunSweepStream (full window) and RunShard/RunCellUnit
// (partial). Cache hits are restored first — but only for cells that
// intersect the window: a per-cell work unit probing every cell of a
// paper-scale sweep would turn a cache-backed worker quadratic in cell
// count. Only missing in-window jobs execute.
func runMatrix(plan *sweepPlan, opts RunOptions, lo, hi int) (*sweepState, error) {
	st := &sweepState{
		plan:  plan,
		opts:  opts,
		cells: make([]cellState, plan.numCells()),
		pairs: make(map[pairKey]*pairNet, len(plan.pairSeeds)),
	}
	reps := plan.spec.Reps
	total := plan.numJobs()
	cellLo, cellHi := lo/reps, (hi+reps-1)/reps // cells intersecting [lo,hi)

	// Cache pass: restore every in-window hit, finalize fully-cached cells.
	for c := range st.cells {
		cs := &st.cells[c]
		cs.acc = metrics.NewCellAccumulator(reps)
		if opts.RetainRuns {
			cs.runs = make([]Result, reps)
		}
		if opts.Obs {
			cs.obs = make([]*obs.GridMetrics, reps)
		}
		if opts.Cache == nil || c < cellLo || c >= cellHi {
			continue
		}
		cached := loadCellStats(opts.Cache, plan.cellKey(c))
		if cached == nil {
			continue
		}
		cs.cachedLen = len(cached)
		for r := 0; r < len(cached) && r < reps; r++ {
			if err := cs.acc.Add(r, cached[r]); err != nil {
				return nil, err
			}
			st.done++
		}
		if cs.acc.Done() {
			if toStore := st.finalizeCellLocked(c); toStore != nil {
				if err := storeCellStats(opts.Cache, plan.cellKey(c), toStore.Stats); err != nil {
					return nil, err
				}
			}
		}
	}
	if st.done > 0 && opts.Progress != nil {
		opts.Progress(st.done, total)
	}

	// Schedule the missing in-window jobs and count them per pair so each
	// pair's topology can be released the moment its last job finishes.
	var ids []int
	for id := lo; id < hi; id++ {
		j := plan.job(id)
		if st.cells[j.Cell].acc.Has(j.Rep) {
			continue
		}
		ids = append(ids, id)
		pk := pairKey{j.Scenario.ScaleIndex, j.Rep}
		pn := st.pairs[pk]
		if pn == nil {
			pn = &pairNet{}
			st.pairs[pk] = pn
		}
		pn.pending++
	}
	if len(ids) == 0 {
		return st, nil
	}
	exec := opts.Executor
	if exec == nil {
		exec = executor.Local{}
	}
	if lo > 0 || hi < total {
		// Belt and braces for shard windows: whatever executor the caller
		// supplied must not run out-of-window jobs.
		exec = executor.Shard{Lo: lo, Hi: hi, Inner: exec}
	}
	if err := exec.Execute(ids, st.runJob); err != nil {
		return nil, err
	}
	return st, nil
}

// executeSweepJob simulates one replication of one cell: build-or-reuse
// the pair's shared topology (first caller generates it), run the
// algorithm, and reduce the outcome. It is the single simulate-and-reduce
// sequence behind both the fixed-matrix runner (runJob) and the per-cell
// adaptive driver; the full Result is returned alongside the reduced
// record for callers that retain runs.
func executeSweepJob(sc Scenario, algo string, rep int, seed int64, reschedule bool, shards int, observe bool, pn *pairNet) (metrics.RunStats, Result, error) {
	pn.once.Do(func() {
		pn.net, pn.err = topology.Generate(topoConfig(sc.Scale.Nodes, seed))
	})
	if pn.err != nil {
		return metrics.RunStats{}, Result{}, fmt.Errorf("experiments: sweep topology (scale %s, rep %d): %w",
			sc.Scale.Name, rep, pn.err)
	}
	a, err := heuristics.ByName(algo)
	if err != nil {
		return metrics.RunStats{}, Result{}, err // unreachable after validate; belt and braces
	}
	setting := sc.setting(seed, pn.net, reschedule)
	setting.Shards = shards
	if observe {
		// The collected metrics travel back on the returned Result's
		// Setting (Run copies the setting verbatim), so no extra return
		// threads through the executor plumbing.
		setting.Obs = obs.NewGridMetrics()
	}
	res, err := Run(setting, a)
	if err != nil {
		return metrics.RunStats{}, Result{}, err
	}
	return metrics.ReduceRun(&res.Collector, res.Final, res.Submitted, res.CCR), res, nil
}

// runJob executes one job on a pool worker: simulate via executeSweepJob
// and fold the outcome into the cell.
func (st *sweepState) runJob(id int) error {
	j := st.plan.job(id)
	pk := pairKey{j.Scenario.ScaleIndex, j.Rep}
	st.mu.Lock()
	pn := st.pairs[pk]
	st.mu.Unlock()
	sts, res, err := executeSweepJob(j.Scenario, j.Algo, j.Rep, j.Seed, st.plan.spec.Reschedule, st.opts.Shards, st.opts.Obs, pn)
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
		cs.obs[j.Rep] = res.Setting.Obs
	}
	st.done++
	if st.opts.Progress != nil {
		st.opts.Progress(st.done, st.plan.numJobs())
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
// cache. Caller holds st.mu (or is still single-goroutine in the cache
// pass), which serializes observer calls; the cache write itself happens
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

// result assembles the finalized cells into a SweepResult.
func (st *sweepState) result() (*SweepResult, error) {
	res := &SweepResult{Spec: st.plan.spec, Scenarios: st.plan.scens}
	res.Cells = make([]Cell, len(st.cells))
	for c := range st.cells {
		if st.cells[c].final == nil {
			return nil, fmt.Errorf("experiments: cell %d incomplete (%d/%d replications) — executor did not cover the full job matrix",
				c, st.cells[c].acc.Count(), st.plan.spec.Reps)
		}
		res.Cells[c] = *st.cells[c].final
	}
	return res, nil
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
	st, err := runMatrix(plan, opts, 0, plan.numJobs())
	if err != nil {
		return nil, err
	}
	return st.result()
}

// ShardResult is the mergeable partial result of one shard: the reduced
// per-job records of part of a spec's job matrix, plus enough of the spec
// to reassemble (and cross-check) the full sweep. Coverage is either the
// contiguous window [Lo,Hi) — the classic -shard i/n split — or, when IDs
// is non-nil, an arbitrary strictly-increasing job-ID set (the
// work-stealing coordinator's per-cell units and any future custom split
// both reduce to this).
type ShardResult struct {
	Spec SweepSpec
	Hash string // SpecHash of Spec at production time
	Lo   int    // first job ID covered (inclusive)
	Hi   int    // one past the last job ID covered (exclusive)
	Jobs int    // total job count of the full matrix
	// IDs, when non-nil, lists the covered job IDs in increasing order;
	// nil means the contiguous range [Lo,Hi).
	IDs []int
	// Stats[i] is the record of job IDs[i] (or Lo+i when IDs is nil).
	Stats []metrics.RunStats
}

// NumCovered returns the number of jobs this shard covers.
func (s *ShardResult) NumCovered() int {
	if s.IDs != nil {
		return len(s.IDs)
	}
	return s.Hi - s.Lo
}

// jobID maps a Stats index to its global job ID.
func (s *ShardResult) jobID(i int) int {
	if s.IDs != nil {
		return s.IDs[i]
	}
	return s.Lo + i
}

// RunShard executes only shard `shard` of `shards` over the spec's job
// matrix: the [lo,hi) ID range of the canonical enumeration, as split by
// executor.ShardRange. Cells that complete entirely inside the window
// still finalize (observer and cache fire); boundary cells stay partial
// and are completed by MergeShards.
func RunShard(spec SweepSpec, shard, shards int, opts RunOptions) (*ShardResult, error) {
	if shards < 1 || shard < 0 || shard >= shards {
		return nil, fmt.Errorf("experiments: shard %d/%d invalid (want 0 <= shard < shards)", shard, shards)
	}
	plan, err := newSweepPlan(spec)
	if err != nil {
		return nil, err
	}
	total := plan.numJobs()
	lo, hi := executor.ShardRange(total, shard, shards)
	st, err := runMatrix(plan, opts, lo, hi)
	if err != nil {
		return nil, err
	}
	out := &ShardResult{
		Spec:  plan.spec,
		Hash:  plan.spec.SpecHash(),
		Lo:    lo,
		Hi:    hi,
		Jobs:  total,
		Stats: make([]metrics.RunStats, hi-lo),
	}
	for id := lo; id < hi; id++ {
		j := plan.job(id)
		sts, ok := st.cells[j.Cell].acc.Get(j.Rep)
		if !ok {
			return nil, fmt.Errorf("experiments: shard job %d missing after execution", id)
		}
		out.Stats[id-lo] = sts
	}
	return out, nil
}

// shardJSON is the on-disk schema of a shard partial result (envelope in
// internal/wire, instantiated with this package's spec type; the alias
// keeps the bytes identical). The optional ids field (schema-compatible
// extension: absent on classic contiguous shards, whose files stay
// byte-identical) carries arbitrary ID-set coverage.
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
		IDs:    s.IDs,
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
	s := &ShardResult{Spec: doc.Spec, Hash: doc.Hash, Lo: doc.Lo, Hi: doc.Hi, Jobs: doc.Jobs, IDs: doc.IDs, Stats: doc.Stats}
	if got := s.Spec.SpecHash(); got != s.Hash {
		return nil, fmt.Errorf("experiments: shard spec hash %.12s… does not match recorded %.12s… (different spec or simulator version)", got, s.Hash)
	}
	if s.IDs != nil {
		if len(s.IDs) == 0 {
			return nil, fmt.Errorf("experiments: shard ID set is empty")
		}
		if len(s.IDs) != len(s.Stats) {
			return nil, fmt.Errorf("experiments: shard covers %d job IDs but holds %d stats", len(s.IDs), len(s.Stats))
		}
		for i, id := range s.IDs {
			if id < 0 || id >= s.Jobs {
				return nil, fmt.Errorf("experiments: shard job ID %d outside [0,%d)", id, s.Jobs)
			}
			if i > 0 && id <= s.IDs[i-1] {
				return nil, fmt.Errorf("experiments: shard job IDs not strictly increasing at index %d", i)
			}
		}
		// Lo/Hi are derived for ID-set shards: the recorded values are
		// display hints, the set is authoritative.
		s.Lo, s.Hi = s.IDs[0], s.IDs[len(s.IDs)-1]+1
	} else if s.Hi-s.Lo != len(s.Stats) {
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
// shards must share one spec hash and their coverage — contiguous windows,
// arbitrary ID sets, or a mix — must tile [0,Jobs) exactly: no gaps, no
// overlaps. Aggregation feeds the same records through the same
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
		for i := 0; i < p.NumCovered(); i++ {
			id := p.jobID(i)
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
			j := plan.job(p.jobID(i))
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
	lo, hi := cell*reps, (cell+1)*reps
	st, err := runMatrix(plan, opts, lo, hi)
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
		sts, ok := st.cells[cell].acc.Get(id - lo)
		if !ok {
			return nil, fmt.Errorf("experiments: cell %d replication %d missing after execution", cell, id-lo)
		}
		out.Stats[id-lo] = sts
	}
	return out, nil
}

// adaptiveRepFloor is the smallest replication count the per-cell stopper
// accepts as evidence: 3 replications are the smallest batch with a
// non-degenerate t-interval plus one.
const adaptiveRepFloor = 3

// adaptiveRepCeiling bounds an uncapped adaptive run. A cell that has not
// met any sane precision target after this many replications is pinned by
// structural variance, not sampling noise; the ceiling turns a hypothetical
// infinite loop into a finished (if wide) estimate.
const adaptiveRepCeiling = 1 << 14

// RunAdaptiveCells grows every cell's replication count independently
// until that cell's ACT 95% confidence half-width is at most precision ×
// |mean ACT|: per-cell sequential stopping. Cells start at
// adaptiveRepFloor replications and double until they converge or hit
// maxReps (non-positive maxReps means uncapped, bounded only by
// adaptiveRepCeiling), so a sweep stops spending seeds on already-tight
// cells while a high-variance cell keeps sampling.
//
// The result is ragged: each cell carries exactly the replications it
// needed (Spec.Reps reports the largest cell), which the sweep JSON
// records per cell (the uniform case stays byte-identical). Batches reuse
// work through the cell cache — opts.Cache when provided, otherwise a
// process-local memory cache — and a warm re-run replays cached
// replications in place of executing them, so cold and warm runs produce
// identical results. opts.RetainRuns is not supported here (the driver
// never holds full Results) and is ignored; opts.Executor must execute
// every id it is given (do not pass executor.Shard).
func RunAdaptiveCells(spec SweepSpec, precision float64, maxReps int, opts RunOptions) (*SweepResult, error) {
	if precision <= 0 {
		return nil, fmt.Errorf("experiments: adaptive precision must be positive, got %v", precision)
	}
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if maxReps <= 0 || maxReps > adaptiveRepCeiling {
		maxReps = adaptiveRepCeiling
	}
	if opts.Cache == nil {
		opts.Cache = executor.NewMemory()
	}
	exec := opts.Executor
	if exec == nil {
		exec = executor.Local{}
	}

	scens := spec.Scenarios()
	algos := spec.Algorithms
	type cellRun struct {
		acc       *metrics.CellAccumulator
		key       string
		target    int  // replications this cell should reach next
		stopped   bool // converged or capped: no further issuance
		probed    bool // cache probed
		cached    []metrics.RunStats
		cachedLen int // cache-entry length at probe time
	}
	cells := make([]cellRun, len(scens)*len(algos))
	start := adaptiveRepFloor
	if start > maxReps {
		start = maxReps
	}
	for c := range cells {
		cells[c] = cellRun{
			acc:    metrics.NewCellAccumulator(0),
			key:    cellKeyFor(spec, scens[c/len(algos)], algos[c%len(algos)]),
			target: start,
		}
	}

	type pendJob struct {
		cell, rep int
		seed      int64
	}
	var (
		mu   sync.Mutex
		done int
	)
	for {
		// Issue the missing replications of every open cell, replaying
		// cached records instead of executing where the cache has them (a
		// warm adaptive run is bit-identical to its cold ancestor).
		var pend []pendJob
		pairs := make(map[pairKey]*pairNet)
		for c := range cells {
			cr := &cells[c]
			if cr.stopped {
				continue
			}
			cr.acc.Grow(cr.target)
			if !cr.probed {
				cr.probed = true
				cr.cached = loadCellStats(opts.Cache, cr.key)
				cr.cachedLen = len(cr.cached)
			}
			sc := scens[c/len(algos)]
			for r := 0; r < cr.target; r++ {
				if cr.acc.Has(r) {
					continue
				}
				if r < len(cr.cached) {
					if err := cr.acc.Add(r, cr.cached[r]); err != nil {
						return nil, err
					}
					done++
					continue
				}
				pend = append(pend, pendJob{cell: c, rep: r, seed: sweepSeed(spec.Seed, sc.ScaleIndex, r)})
				pk := pairKey{sc.ScaleIndex, r}
				pn := pairs[pk]
				if pn == nil {
					pn = &pairNet{}
					pairs[pk] = pn
				}
				pn.pending++
			}
		}
		if len(pend) > 0 {
			ids := make([]int, len(pend))
			for i := range ids {
				ids[i] = i
			}
			issued := done + len(pend)
			if err := exec.Execute(ids, func(i int) error {
				j := pend[i]
				sc := scens[j.cell/len(algos)]
				pk := pairKey{sc.ScaleIndex, j.rep}
				mu.Lock()
				pn := pairs[pk]
				mu.Unlock()
				sts, _, err := executeSweepJob(sc, algos[j.cell%len(algos)], j.rep, j.seed, spec.Reschedule, opts.Shards, false, pn)
				if err != nil {
					return err
				}
				mu.Lock()
				defer mu.Unlock()
				if err := cells[j.cell].acc.Add(j.rep, sts); err != nil {
					return err
				}
				done++
				if opts.Progress != nil {
					opts.Progress(done, issued)
				}
				pn.pending--
				if pn.pending == 0 {
					pn.net = nil
				}
				return nil
			}); err != nil {
				return nil, err
			}
		}

		// Stopping rule, per cell: converged (CI ≤ precision·|mean| at ≥
		// the floor) or capped cells finalize; the rest double their target.
		open := 0
		for c := range cells {
			cr := &cells[c]
			if cr.stopped {
				continue
			}
			agg := cr.acc.Aggregate()
			switch {
			case cr.acc.Count() >= adaptiveRepFloor && precisionMet(agg.ACT, precision),
				cr.target >= maxReps:
				cr.stopped = true
				if cr.acc.Count() > cr.cachedLen {
					if err := storeCellStats(opts.Cache, cr.key, cr.acc.Stats()); err != nil {
						return nil, err
					}
				}
			default:
				cr.target *= 2
				if cr.target > maxReps {
					cr.target = maxReps
				}
				open++
			}
		}
		if open == 0 {
			break
		}
	}

	// Assemble the ragged result: Spec.Reps reports the largest cell so
	// the JSON's top-level reps bounds every per-cell count.
	maxCount := 0
	for c := range cells {
		if n := cells[c].acc.Count(); n > maxCount {
			maxCount = n
		}
	}
	spec.Reps = maxCount
	res := &SweepResult{Spec: spec, Scenarios: scens}
	res.Cells = make([]Cell, len(cells))
	for c := range cells {
		sc := scens[c/len(algos)]
		n := cells[c].acc.Count()
		seeds := make([]int64, n)
		for r := range seeds {
			seeds[r] = sweepSeed(spec.Seed, sc.ScaleIndex, r)
		}
		res.Cells[c] = Cell{
			Index:    c,
			Scenario: sc,
			Algo:     algos[c%len(algos)],
			Seeds:    seeds,
			Stats:    cells[c].acc.Stats(),
			Agg:      cells[c].acc.Aggregate(),
		}
		if opts.Observer != nil {
			opts.Observer(&res.Cells[c])
		}
	}
	return res, nil
}
