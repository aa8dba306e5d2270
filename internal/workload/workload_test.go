package workload

import (
	"math"
	"testing"

	"repro/internal/dag"
	"repro/internal/stats"
	"repro/internal/workload/arrival"
	"repro/internal/workload/traces"
)

func TestGenerateCountsAndHomes(t *testing.T) {
	subs, err := Generate(Config{Nodes: 10, LoadFactor: 3, Gen: dag.DefaultGenConfig(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 30 {
		t.Fatalf("got %d submissions, want 30", len(subs))
	}
	perHome := map[int]int{}
	for _, s := range subs {
		perHome[s.Home]++
		if s.Workflow == nil {
			t.Fatal("nil workflow in submission")
		}
	}
	for home := 0; home < 10; home++ {
		if perHome[home] != 3 {
			t.Fatalf("home %d got %d workflows, want 3", home, perHome[home])
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{Nodes: 0, LoadFactor: 1}); err == nil {
		t.Fatal("zero nodes accepted")
	}
	if _, err := Generate(Config{Nodes: 1, LoadFactor: 0}); err == nil {
		t.Fatal("zero load factor accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Nodes: 5, LoadFactor: 2, Gen: dag.DefaultGenConfig(), Seed: 9}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Workflow.Len() != b[i].Workflow.Len() ||
			a[i].Workflow.Edges() != b[i].Workflow.Edges() {
			t.Fatalf("submission %d differs between identical runs", i)
		}
	}
}

// TestBatchArrivalLeavesWorkloadUntouched pins the compatibility
// contract of the arrival subsystem: the zero-value (batch) arrival spec
// assigns SubmitAt 0 everywhere and consumes no randomness, so the
// generated workflows are bit-identical to a pre-arrival Generate.
func TestBatchArrivalLeavesWorkloadUntouched(t *testing.T) {
	cfg := Config{Nodes: 6, LoadFactor: 2, Gen: dag.DefaultGenConfig(), Seed: 17}
	batch, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	explicit := cfg
	explicit.Arrival = arrival.Spec{Kind: arrival.KindBatch}
	again, err := Generate(explicit)
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		if batch[i].SubmitAt != 0 || again[i].SubmitAt != 0 {
			t.Fatalf("batch submission %d carries time %v/%v", i, batch[i].SubmitAt, again[i].SubmitAt)
		}
		if batch[i].Workflow.TotalLoad() != again[i].Workflow.TotalLoad() {
			t.Fatalf("submission %d workflow differs between implicit and explicit batch", i)
		}
	}
}

func TestPoissonArrivalSpreadsSameWorkflows(t *testing.T) {
	cfg := Config{Nodes: 6, LoadFactor: 2, Gen: dag.DefaultGenConfig(), Seed: 17}
	batch, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Arrival = arrival.Spec{Kind: arrival.KindPoisson, RatePerHour: 30}
	spread, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(spread) != len(batch) {
		t.Fatalf("arrival process changed the submission count: %d vs %d", len(spread), len(batch))
	}
	positive := 0
	prev := 0.0
	for i := range spread {
		// Same generator stream: workflows identical, only times differ.
		if spread[i].Workflow.TotalLoad() != batch[i].Workflow.TotalLoad() ||
			spread[i].Home != batch[i].Home {
			t.Fatalf("submission %d workload differs under an arrival process", i)
		}
		if spread[i].SubmitAt < prev {
			t.Fatalf("submit times decrease at %d", i)
		}
		prev = spread[i].SubmitAt
		if spread[i].SubmitAt > 0 {
			positive++
		}
	}
	if positive < len(spread)-1 {
		t.Fatalf("only %d/%d submissions spread over time", positive, len(spread))
	}
	if _, err := Generate(Config{Nodes: 2, LoadFactor: 1, Gen: dag.DefaultGenConfig(),
		Arrival: arrival.Spec{Kind: "nope"}}); err == nil {
		t.Fatal("invalid arrival spec accepted")
	}
}

// TestTraceReplayScalingRule pins the documented mapping: one workflow
// per usable trace job, submitted at the job's offset, with total task
// load runtime x procs x 6.2.
func TestTraceReplayScalingRule(t *testing.T) {
	jobs := []traces.Job{
		{ID: 1, Submit: 0, Runtime: 100, Procs: 2},
		{ID: 2, Submit: 300, Runtime: 50, Procs: 1},
		{ID: 3, Submit: 900, Runtime: 600, Procs: 8},
	}
	cfg := Config{Nodes: 5, LoadFactor: 3, Gen: dag.DefaultGenConfig(), Seed: 4, Trace: jobs}
	subs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != len(jobs) {
		t.Fatalf("%d submissions, want one per trace job (%d)", len(subs), len(jobs))
	}
	for i, s := range subs {
		if s.SubmitAt != jobs[i].Submit {
			t.Fatalf("job %d submitted at %v, want trace offset %v", i, s.SubmitAt, jobs[i].Submit)
		}
		if s.Home < 0 || s.Home >= cfg.Nodes {
			t.Fatalf("job %d home %d outside [0,%d)", i, s.Home, cfg.Nodes)
		}
		want := jobs[i].CPUSeconds() * dag.PaperAvgCapacityMIPS
		if got := s.Workflow.TotalLoad(); math.Abs(got-want)/want > 1e-9 {
			t.Fatalf("job %d total load %v, want %v (runtime x procs x 6.2)", i, got, want)
		}
	}
	// Deterministic.
	again, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range subs {
		if subs[i].Home != again[i].Home || subs[i].Workflow.TotalLoad() != again[i].Workflow.TotalLoad() {
			t.Fatalf("trace replay not deterministic at job %d", i)
		}
	}
	// Unusable or unordered trace jobs are rejected.
	for _, bad := range [][]traces.Job{
		{{ID: 1, Submit: 0, Runtime: -1, Procs: 1}},
		{{ID: 1, Submit: 0, Runtime: 10, Procs: 0}},
		{{ID: 1, Submit: 50, Runtime: 10, Procs: 1}, {ID: 2, Submit: 0, Runtime: 10, Procs: 1}},
	} {
		if _, err := Generate(Config{Nodes: 2, Gen: dag.DefaultGenConfig(), Trace: bad}); err == nil {
			t.Fatalf("bad trace %+v accepted", bad)
		}
	}
}

func TestCCRScenarioOverridesRanges(t *testing.T) {
	g := CCRScenario(stats.Range{Min: 10, Max: 1000}, stats.Range{Min: 100, Max: 10000})
	if g.LoadMI.Max != 1000 || g.DataMb.Max != 10000 {
		t.Fatalf("ranges not applied: %+v", g)
	}
	if g.Tasks != dag.DefaultGenConfig().Tasks {
		t.Fatal("task count range must stay at Table I default")
	}
}

func TestEstimateCCRMatchesPaperRegimes(t *testing.T) {
	// Paper Section IV.A: the headline setting has CCR about 0.16; the four
	// Fig. 9/10 combos are about 1.6, 0.16, 1.6 and 16.
	const avgCap, avgBW = 6.2, 5.05
	head := EstimateCCR(CCRScenario(stats.Range{Min: 100, Max: 10000}, stats.Range{Min: 10, Max: 1000}), avgCap, avgBW)
	if head < 0.05 || head > 0.35 {
		t.Fatalf("headline CCR %v not in the ~0.16 regime", head)
	}
	hi := EstimateCCR(CCRScenario(stats.Range{Min: 10, Max: 1000}, stats.Range{Min: 100, Max: 10000}), avgCap, avgBW)
	if hi < 8 || hi > 30 {
		t.Fatalf("heavy-communication CCR %v not in the ~16 regime", hi)
	}
	mid := EstimateCCR(CCRScenario(stats.Range{Min: 100, Max: 10000}, stats.Range{Min: 100, Max: 10000}), avgCap, avgBW)
	if mid < 0.8 || mid > 3 {
		t.Fatalf("balanced CCR %v not in the ~1.6 regime", mid)
	}
	ratio := hi / head
	if math.Abs(ratio-100) > 20 {
		t.Fatalf("CCR regimes should span two orders of magnitude, ratio %v", ratio)
	}
}

func TestEstimateCCRDegenerate(t *testing.T) {
	if EstimateCCR(dag.DefaultGenConfig(), 0, 1) != 0 {
		t.Fatal("zero capacity must yield CCR 0 sentinel")
	}
	if EstimateCCR(dag.DefaultGenConfig(), 1, 0) != 0 {
		t.Fatal("zero bandwidth must yield CCR 0 sentinel")
	}
}
