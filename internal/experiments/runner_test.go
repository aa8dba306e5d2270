package experiments

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/experiments/executor"
	"repro/internal/grid"
	"repro/internal/heuristics"
	"repro/internal/stats"
	"repro/internal/workload/arrival"
)

// countingExecutor wraps an executor and counts the jobs handed to it —
// the observable the warm-start cache tests pin ("a second run executes
// zero jobs").
type countingExecutor struct {
	mu    sync.Mutex
	inner executor.Executor
	jobs  int
}

func (c *countingExecutor) Execute(ids []int, run func(int) error) error {
	c.mu.Lock()
	c.jobs += len(ids)
	c.mu.Unlock()
	inner := c.inner
	if inner == nil {
		inner = executor.Local{}
	}
	return inner.Execute(ids, run)
}

// skippingExecutor breaks the executor contract on purpose: it drops the
// first ID of every call.
type skippingExecutor struct{}

func (skippingExecutor) Execute(ids []int, run func(int) error) error {
	return executor.Local{}.Execute(ids[1:], run)
}

// TestExecutorSkippingAnIDFails pins that a job the executor never ran
// fails every driver with an error, never yielding a cell with a zero
// record or a short aggregate.
func TestExecutorSkippingAnIDFails(t *testing.T) {
	spec := microSpec([]string{"DSMF", "min-min"}, 2, 7)
	opts := RunOptions{Executor: skippingExecutor{}}
	if _, err := RunSweepStream(spec, opts); err == nil {
		t.Error("RunSweepStream accepted a skipped job")
	}
	if res, err := RunAdaptiveCells(spec, 0.3, 0, opts); err == nil {
		t.Errorf("RunAdaptiveCells accepted a skipped job: cell 0 has %d stats, %d seeds, %d reps",
			len(res.Cells[0].Stats), len(res.Cells[0].Seeds), res.Cells[0].Agg.Reps)
	}
	if _, err := RunShard(spec, 0, 2, opts); err == nil {
		t.Error("RunShard accepted a skipped job")
	}
	if _, err := RunCellUnit(spec, 1, opts); err == nil {
		t.Error("RunCellUnit accepted a skipped job")
	}
}

func microSpec(algos []string, reps int, seed int64) SweepSpec {
	return SweepSpec{
		Name:       "runner-test",
		Scales:     []Scale{microScale},
		Algorithms: algos,
		Reps:       reps,
		Seed:       seed,
	}
}

func mustJSON(t *testing.T, r *SweepResult) []byte {
	t.Helper()
	data, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestJobsCanonicalEnumeration(t *testing.T) {
	spec := microSpec([]string{"DSMF", "min-min"}, 3, 2010)
	spec.LoadFactors = []int{1, 2}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	// 2 scenarios x 2 algorithms x 3 reps.
	if len(jobs) != 12 {
		t.Fatalf("%d jobs, want 12", len(jobs))
	}
	n, err := spec.NumJobs()
	if err != nil || n != len(jobs) {
		t.Fatalf("NumJobs=%d err=%v, want %d", n, err, len(jobs))
	}
	for i, j := range jobs {
		if j.ID != i {
			t.Fatalf("job %d carries ID %d", i, j.ID)
		}
		if j.Cell != i/3 || j.Rep != i%3 {
			t.Fatalf("job %d: cell=%d rep=%d, want cell-major/rep-minor", i, j.Cell, j.Rep)
		}
	}
	// Scenario-major, algorithm-minor, replication innermost; rep 0 at the
	// base scale consumes the root seed (golden continuity).
	if jobs[0].Algo != "DSMF" || jobs[3].Algo != "min-min" || jobs[6].Scenario.LoadFactor != 2 {
		t.Fatalf("expansion order wrong: %+v", jobs[:7])
	}
	if jobs[0].Seed != 2010 {
		t.Fatalf("job 0 seed %d, want root", jobs[0].Seed)
	}
	if jobs[1].Seed == jobs[0].Seed {
		t.Fatal("replications share a seed")
	}
	if jobs[3].Seed != jobs[0].Seed {
		t.Fatal("algorithms of one replication must share the pair seed (paired comparisons)")
	}
}

func TestSpecHashNormalizesAndDiscriminates(t *testing.T) {
	a := microSpec(nil, 1, 7)
	b := microSpec(heuristics.Names(), 1, 7)
	if a.SpecHash() != b.SpecHash() {
		t.Fatal("hash distinguishes a nil algorithm axis from its normalized form")
	}
	edits := []SweepSpec{
		microSpec(nil, 2, 7),              // reps
		microSpec(nil, 1, 8),              // seed
		microSpec([]string{"DSMF"}, 1, 7), // algorithms
		{Name: "runner-test", Scales: []Scale{TinyScale}, Reps: 1, Seed: 7}, // scale (Name held fixed)
	}
	for i, e := range edits {
		if e.SpecHash() == a.SpecHash() {
			t.Errorf("edit %d did not change the spec hash", i)
		}
	}
}

// TestSpecHashEqualBehaviorArrivalSpellings pins the arrival-axis side of
// spec-hash normalization: spellings that schedule identically (explicit
// "batch" kind, mmpp's documented default burst/dwell, diurnal's default
// period) share one SpecHash — and therefore one warm-start cache
// identity — while a genuinely different parameter still splits it.
func TestSpecHashEqualBehaviorArrivalSpellings(t *testing.T) {
	withArrival := func(s arrival.Spec) SweepSpec {
		sp := microSpec([]string{"DSMF"}, 1, 7)
		label := "case"
		if s.IsBatch() {
			label = "" // batch cases need no label
		}
		sp.Arrivals = []ArrivalCase{{Label: label, Spec: s}}
		return sp
	}
	equal := []struct {
		name string
		a, b arrival.Spec
	}{
		{"explicit-batch", arrival.Spec{Kind: arrival.KindBatch}, arrival.Spec{}},
		{"mmpp-default-burst",
			arrival.Spec{Kind: arrival.KindMMPP, RatePerHour: 30, Burst: 8},
			arrival.Spec{Kind: arrival.KindMMPP, RatePerHour: 30}},
		{"mmpp-default-dwell",
			arrival.Spec{Kind: arrival.KindMMPP, RatePerHour: 30, DwellHours: 1},
			arrival.Spec{Kind: arrival.KindMMPP, RatePerHour: 30}},
		{"diurnal-default-period",
			arrival.Spec{Kind: arrival.KindDiurnal, RatePerHour: 30, PeriodHours: 24},
			arrival.Spec{Kind: arrival.KindDiurnal, RatePerHour: 30}},
	}
	for _, tc := range equal {
		t.Run(tc.name, func(t *testing.T) {
			if withArrival(tc.a).SpecHash() != withArrival(tc.b).SpecHash() {
				t.Errorf("equal-behavior spellings %+v and %+v hash apart", tc.a, tc.b)
			}
		})
	}
	base := withArrival(arrival.Spec{Kind: arrival.KindMMPP, RatePerHour: 30})
	diff := withArrival(arrival.Spec{Kind: arrival.KindMMPP, RatePerHour: 30, Burst: 4})
	if base.SpecHash() == diff.SpecHash() {
		t.Error("behavior-changing burst did not change the spec hash")
	}
}

// TestShardMergeByteIdentical is the distributed-sweep acceptance test: a
// tiny sweep split into three uneven shards, JSON round-tripped (as files
// would be) and merged, must produce byte-identical sweep JSON to the
// single-host run — with or without retained runs.
func TestShardMergeByteIdentical(t *testing.T) {
	spec := microSpec([]string{"DSMF", "min-min"}, 2, 7)
	single, err := RunSweepStream(spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, single)

	retained, err := RunSweepStream(spec, RunOptions{RetainRuns: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, mustJSON(t, retained)) {
		t.Fatal("retaining runs changed the sweep JSON")
	}

	// 4 jobs over 3 shards: ranges [0,1), [1,2), [2,4) — deliberately
	// uneven, and the last one straddles the cell boundary.
	const shards = 3
	var parts []*ShardResult
	sizes := map[int]bool{}
	for i := 0; i < shards; i++ {
		part, err := RunShard(spec, i, shards, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sizes[part.Hi-part.Lo] = true
		data, err := part.JSON()
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := DecodeShard(data)
		if err != nil {
			t.Fatalf("shard %d round trip: %v", i, err)
		}
		parts = append(parts, decoded)
	}
	if !sizes[1] || !sizes[2] {
		t.Fatalf("expected uneven shards over 4 jobs, got sizes %v", sizes)
	}
	merged, err := MergeShards(parts[2], parts[0], parts[1]) // any order
	if err != nil {
		t.Fatal(err)
	}
	got := mustJSON(t, merged)
	if !bytes.Equal(want, got) {
		t.Fatalf("merged JSON differs from single-host run:\n%s\nvs\n%s", got, want)
	}
}

func TestMergeShardsValidation(t *testing.T) {
	spec := microSpec([]string{"DSMF"}, 3, 7)
	var parts []*ShardResult
	for i := 0; i < 3; i++ {
		p, err := RunShard(spec, i, 3, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	if _, err := MergeShards(); err == nil {
		t.Error("empty merge accepted")
	}
	if _, err := MergeShards(parts[0], parts[2]); err == nil {
		t.Error("coverage gap accepted")
	}
	if _, err := MergeShards(parts[0], parts[1]); err == nil {
		t.Error("missing tail accepted")
	}
	if _, err := MergeShards(parts[0], parts[0], parts[1], parts[2]); err == nil {
		t.Error("overlap accepted")
	}
	other, err := RunShard(microSpec([]string{"DSMF"}, 3, 8), 0, 3, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeShards(other, parts[1], parts[2]); err == nil {
		t.Error("mismatched spec hashes accepted")
	}
}

func TestDecodeShardRejectsTampering(t *testing.T) {
	part, err := RunShard(microSpec([]string{"DSMF"}, 2, 7), 0, 2, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := part.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeShard([]byte(`{"schema":"nope"}`)); err == nil {
		t.Error("foreign schema accepted")
	}
	// A different spec under the recorded hash must fail (this is also
	// what a CodeVersion bump triggers: same file, recomputed hash moves).
	tampered := bytes.Replace(data, []byte(`"Seed": 7`), []byte(`"Seed": 9`), 1)
	if bytes.Equal(tampered, data) {
		t.Fatal("tamper target not found")
	}
	if _, err := DecodeShard(tampered); err == nil {
		t.Error("tampered spec accepted")
	}
}

// TestCacheWarmStart pins the warm-start contract: a second identical run
// executes zero jobs, a one-axis spec edit executes only the new cells,
// and a higher replication count extends cached prefixes — all with
// byte-identical JSON to cold runs.
func TestCacheWarmStart(t *testing.T) {
	cache := executor.Disk{Dir: t.TempDir()}
	spec := microSpec([]string{"DSMF", "min-min"}, 2, 7)

	ce := &countingExecutor{}
	cold, err := RunSweepStream(spec, RunOptions{Executor: ce, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if ce.jobs != 4 {
		t.Fatalf("cold run executed %d jobs, want 4", ce.jobs)
	}

	ce2 := &countingExecutor{}
	warm, err := RunSweepStream(spec, RunOptions{Executor: ce2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if ce2.jobs != 0 {
		t.Fatalf("warm run executed %d jobs, want 0", ce2.jobs)
	}
	if !bytes.Equal(mustJSON(t, cold), mustJSON(t, warm)) {
		t.Fatal("warm JSON differs from cold")
	}

	// Edit one axis: only the two new churn cells run.
	edited := spec
	edited.ChurnFactors = []float64{0, 0.2}
	ce3 := &countingExecutor{}
	editedRes, err := RunSweepStream(edited, RunOptions{Executor: ce3, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if ce3.jobs != 4 {
		t.Fatalf("spec edit executed %d jobs, want 4 (2 new cells x 2 reps)", ce3.jobs)
	}
	coldEdited, err := RunSweepStream(edited, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, editedRes), mustJSON(t, coldEdited)) {
		t.Fatal("cache-warmed edited run differs from its cold run")
	}

	// Raise Reps: cached prefixes are reused, only the new replications run.
	wider := spec
	wider.Reps = 4
	ce4 := &countingExecutor{}
	widerRes, err := RunSweepStream(wider, RunOptions{Executor: ce4, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if ce4.jobs != 4 {
		t.Fatalf("reps raise executed %d jobs, want 4 (2 cells x 2 added reps)", ce4.jobs)
	}
	coldWider, err := RunSweepStream(wider, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, widerRes), mustJSON(t, coldWider)) {
		t.Fatal("prefix-extended run differs from its cold run")
	}

	// The cache now holds 4 reps per cell; the original 2-rep spec must
	// still hit (prefix truncation), execute nothing, and reproduce the
	// original cold JSON byte-for-byte.
	ce5 := &countingExecutor{}
	shrunk, err := RunSweepStream(spec, RunOptions{Executor: ce5, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if ce5.jobs != 0 {
		t.Fatalf("prefix-truncated run executed %d jobs, want 0", ce5.jobs)
	}
	if !bytes.Equal(mustJSON(t, cold), mustJSON(t, shrunk)) {
		t.Fatal("prefix-truncated run differs from the original cold run")
	}
}

func TestStreamingDropsRunsUnlessRetained(t *testing.T) {
	spec := microSpec([]string{"DSMF"}, 2, 7)
	streamed, err := RunSweepStream(spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := streamed.Cells[0]
	if c.Runs != nil {
		t.Fatal("streaming run retained full Results without opting in")
	}
	if len(c.Stats) != 2 || len(c.Stats[0].Hours) == 0 {
		t.Fatalf("reduced stats missing: %+v", c.Stats)
	}
	retained, err := RunSweepStream(spec, RunOptions{RetainRuns: true})
	if err != nil {
		t.Fatal(err)
	}
	rc := retained.Cells[0]
	if len(rc.Runs) != 2 || rc.Runs[0].Collector.Snapshots == nil {
		t.Fatal("retention did not keep full Results")
	}
	if rc.Runs[1].Final != rc.Stats[1].Final {
		t.Fatal("retained Result and reduced stats disagree")
	}
	// The streamed figure series still work without retained runs.
	set := streamed.Fig5FinishTime()
	if len(set.Series) != 1 || len(set.X) == 0 || len(set.Series[0].Err) != len(set.Series[0].Y) {
		t.Fatalf("streamed series broken: %+v", set)
	}
}

func TestCellObserverStreamsEachCellOnce(t *testing.T) {
	spec := microSpec([]string{"DSMF", "min-min", "SMF"}, 2, 7)
	var mu sync.Mutex
	seen := map[int]int{}
	res, err := RunSweepStream(spec, RunOptions{
		Observer: func(c *Cell) {
			mu.Lock()
			defer mu.Unlock()
			seen[c.Index]++
			if c.Agg.Reps != 2 || !cellDone(c) {
				t.Errorf("cell %d observed before finalization: %+v", c.Index, c.Agg)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(res.Cells) {
		t.Fatalf("observed %d cells, want %d", len(seen), len(res.Cells))
	}
	for idx, n := range seen {
		if n != 1 {
			t.Errorf("cell %d observed %d times", idx, n)
		}
	}
}

func cellDone(c *Cell) bool {
	return len(c.Stats) == c.Agg.Reps && c.Agg.ACT.N == c.Agg.Reps
}

// TestChurnSweepFoldPreservesSemantics pins the churn-axis fold: the sweep
// engine's churn cells must reproduce the original hand-rolled ChurnSweep
// settings bit-for-bit (half homes at double load factor, shared topology,
// per-df churn seed, df=0 keeping the layout).
func TestChurnSweepFoldPreservesSemantics(t *testing.T) {
	scale := microScale
	const seed = 13
	// The pre-fold construction, inlined from the original ChurnSweep.
	base := NewSetting(scale, seed)
	if _, err := base.BuildNet(); err != nil {
		t.Fatal(err)
	}
	stable := scale.Nodes / 2
	oldStyle := func(df float64) Result {
		setting := base
		setting.Homes = stable
		setting.Scale.LoadFactor = scale.LoadFactor * 2
		setting.Churn = grid.ChurnConfig{
			DynamicFactor: df,
			StableCount:   stable,
			Seed:          stats.SplitSeed(seed, uint64(df*1000)),
		}
		res, err := Run(setting, heuristics.NewDSMF())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res, err := ChurnSweepRep(scale, seed, []float64{0, 0.3}, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, df := range []float64{0, 0.3} {
		want := oldStyle(df)
		if got := res.Cells[i].Stats[0].Final; got != want.Final {
			t.Errorf("df=%.1f diverged from the pre-fold construction:\n%+v\nvs\n%+v",
				df, got, want.Final)
		}
	}
	if label := churnLabel(&res.Cells[1]); label != "df=0.3" {
		t.Fatalf("labels: %q", label)
	}
}

// TestChurnSweepRepErrorBars is the churn-axis parity check: the dynamic
// figures gain replicated error bars like Figs. 4-10, the df=0 cell keeps
// the half-homes layout, and all cells submit the same workflow total.
func TestChurnSweepRepErrorBars(t *testing.T) {
	res, err := ChurnSweepRep(microScale, 13, []float64{0, 0.3}, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("cells %d", len(res.Cells))
	}
	df0, df3 := res.Cells[0], res.Cells[1]
	if !df0.Scenario.ChurnLayout {
		t.Fatal("df=0 cell lost the half-homes layout")
	}
	wantSubmitted := (microScale.Nodes / 2) * microScale.LoadFactor * 2
	for _, c := range []Cell{df0, df3} {
		for r, st := range c.Stats {
			if st.Submitted != wantSubmitted {
				t.Fatalf("%s rep %d submitted %d, want %d (half homes x double lf)",
					c.Scenario.Label(), r, st.Submitted, wantSubmitted)
			}
		}
	}
	for _, set := range []SeriesSet{res.Fig12Throughput(), res.Fig13FinishTime(), res.Fig14Efficiency()} {
		if len(set.Series) != 2 {
			t.Fatalf("%s: %d series", set.Title, len(set.Series))
		}
		if set.Series[0].Label != "df=0.0" || set.Series[1].Label != "df=0.3" {
			t.Fatalf("%s: labels %q, %q", set.Title, set.Series[0].Label, set.Series[1].Label)
		}
		for _, ls := range set.Series {
			if len(ls.Err) != len(ls.Y) || len(ls.Y) == 0 {
				t.Fatalf("%s/%s: missing error bars (Y=%d Err=%d)", set.Title, ls.Label, len(ls.Y), len(ls.Err))
			}
		}
	}
	summary := res.ChurnSummaryTable("churn")
	if len(summary.Rows) != 2 || summary.Rows[0][0] != "df=0.0" {
		t.Fatalf("summary rows: %+v", summary.Rows)
	}
}

func TestRunShardValidatesArguments(t *testing.T) {
	spec := microSpec([]string{"DSMF"}, 1, 7)
	for _, tc := range []struct{ shard, shards int }{{-1, 2}, {2, 2}, {0, 0}} {
		if _, err := RunShard(spec, tc.shard, tc.shards, RunOptions{}); err == nil {
			t.Errorf("RunShard accepted shard %d/%d", tc.shard, tc.shards)
		}
	}
}

// TestRunAdaptiveCellsStopsPerCell is the per-cell stopping acceptance
// test: on a sweep with one deliberately high-variance cell (HEFT's ACT at
// micro scale swings far more across seeds than min-min's), the per-cell
// stopper issues fewer total replications (15) than advancing every cell
// to the largest cell's count (18), because converged cells stop drawing
// seeds while the noisy cell keeps sampling.
func TestRunAdaptiveCellsStopsPerCell(t *testing.T) {
	// Measured at micro scale, seed 7: the 3-rep ACT CI/mean ratios are
	// min-min 0.22, DSMF 0.35, HEFT 0.60; at 6 reps all fall under 0.23.
	// Precision 0.3 therefore stops min-min at the 3-rep floor and carries
	// DSMF and HEFT to 6 — a ragged 3/6/6 split.
	algos := []string{"DSMF", "min-min", "HEFT"}
	const precision = 0.3
	spec := microSpec(algos, 1, 7)

	ce := &countingExecutor{}
	ragged, err := RunAdaptiveCells(spec, precision, 0, RunOptions{Executor: ce})
	if err != nil {
		t.Fatal(err)
	}
	perCellJobs := ce.jobs

	reps := map[string]int{}
	for _, c := range ragged.Cells {
		reps[c.Algo] = c.Agg.Reps
		if len(c.Seeds) != c.Agg.Reps || len(c.Stats) != c.Agg.Reps {
			t.Fatalf("cell %s: %d seeds / %d stats for %d reps", c.Algo, len(c.Seeds), len(c.Stats), c.Agg.Reps)
		}
	}
	if reps["min-min"] != 3 || reps["DSMF"] != 6 || reps["HEFT"] != 6 {
		t.Fatalf("per-cell reps = %v, want min-min 3, DSMF 6, HEFT 6", reps)
	}
	if ragged.Spec.Reps != 6 {
		t.Fatalf("ragged Spec.Reps = %d, want the largest cell (6)", ragged.Spec.Reps)
	}
	if perCellJobs != 15 {
		t.Fatalf("per-cell stopper executed %d jobs, want 15 (3+6+6)", perCellJobs)
	}

	// Each converged cell's interval matches a direct run at its count
	// bit-for-bit (same seeds, same accumulator order).
	direct, err := RunSweepStream(microSpec(algos, 6, 7), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range ragged.Cells {
		want := direct.Cells[i]
		for r := 0; r < c.Agg.Reps; r++ {
			if c.Stats[r].Final != want.Stats[r].Final {
				t.Fatalf("cell %s rep %d differs from direct run", c.Algo, r)
			}
		}
	}
}

// TestRunAdaptiveCellsWarmCache pins cache semantics: a warm re-run
// replays cached replications instead of executing (zero jobs) and
// produces byte-identical JSON, and a cold cache ends up holding every
// cell's final prefix.
func TestRunAdaptiveCellsWarmCache(t *testing.T) {
	spec := microSpec([]string{"DSMF", "min-min"}, 1, 7)
	cache := executor.NewMemory()
	const precision = 0.3

	cold := &countingExecutor{}
	first, err := RunAdaptiveCells(spec, precision, 0, RunOptions{Executor: cold, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	warm := &countingExecutor{}
	second, err := RunAdaptiveCells(spec, precision, 0, RunOptions{Executor: warm, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if warm.jobs != 0 {
		t.Fatalf("warm adaptive run executed %d jobs, want 0", warm.jobs)
	}
	if !bytes.Equal(mustJSON(t, first), mustJSON(t, second)) {
		t.Fatal("warm adaptive run differs from cold run")
	}

	// A capped run against the same cache replays only the capped prefix
	// and stays deterministic.
	capped, err := RunAdaptiveCells(spec, precision, 4, RunOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range capped.Cells {
		if c.Agg.Reps > 4 {
			t.Fatalf("cell %s exceeded the cap: %d reps", c.Algo, c.Agg.Reps)
		}
	}

	if _, err := RunAdaptiveCells(spec, 0, 0, RunOptions{}); err == nil {
		t.Error("non-positive precision accepted")
	}
}

// TestRaggedSweepJSONSchema pins the ragged-rep schema: uniform sweeps
// carry no per-cell reps field (their JSON is byte-identical to the
// pre-adaptive schema), ragged sweeps record each short cell's own count,
// and the document decodes consistently.
func TestRaggedSweepJSONSchema(t *testing.T) {
	type cellDoc struct {
		Algo      string  `json:"algo"`
		Reps      int     `json:"reps"`
		Seeds     []int64 `json:"seeds"`
		Aggregate struct {
			Reps int `json:"reps"`
		} `json:"aggregate"`
	}
	type sweepDoc struct {
		Schema string    `json:"schema"`
		Reps   int       `json:"reps"`
		Cells  []cellDoc `json:"cells"`
	}
	decode := func(data []byte) sweepDoc {
		var doc sweepDoc
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("sweep JSON decode: %v", err)
		}
		return doc
	}

	uniform, err := RunSweepStream(microSpec([]string{"DSMF", "min-min"}, 2, 7), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	udoc := decode(mustJSON(t, uniform))
	for _, c := range udoc.Cells {
		if c.Reps != 0 {
			t.Fatalf("uniform cell %s carries reps %d, want omitted", c.Algo, c.Reps)
		}
	}

	ragged, err := RunAdaptiveCells(microSpec([]string{"DSMF", "min-min", "HEFT"}, 1, 7), 0.3, 0, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rdoc := decode(mustJSON(t, ragged))
	if rdoc.Reps != 6 {
		t.Fatalf("ragged top-level reps = %d, want the largest cell (6)", rdoc.Reps)
	}
	short := 0
	for _, c := range rdoc.Cells {
		cellReps := c.Reps
		if cellReps == 0 {
			cellReps = rdoc.Reps // omitted: the cell matches the sweep's count
		}
		if len(c.Seeds) != cellReps || c.Aggregate.Reps != cellReps {
			t.Fatalf("ragged cell %s: reps %d, %d seeds, aggregate reps %d", c.Algo, cellReps, len(c.Seeds), c.Aggregate.Reps)
		}
		if c.Reps != 0 {
			short++
		}
	}
	if short != 1 {
		t.Fatalf("%d cells carry an explicit reps field, want exactly the short min-min cell", short)
	}
}

// NumCovered returns the number of jobs this shard covers.
func (s *ShardResult) NumCovered() int { return s.Hi - s.Lo }
