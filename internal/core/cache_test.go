package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/economy"
	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/heuristics"
	"repro/internal/stats"
)

// gridCapture wraps a first phase and keeps the grid it schedules on, so a
// test can read every task after experiments.Run has returned.
type gridCapture struct {
	grid.Phase1Scheduler
	g *grid.Grid
}

func (c *gridCapture) Schedule(g *grid.Grid, home *grid.Node, now float64) {
	c.g = g
	c.Phase1Scheduler.Schedule(g, home, now)
}

// TestCachedPhase1MatchesReference runs the matrix planners, with their
// cached cells and +Inf column marks, and the DBC planners, with their
// one-pass fallback, against the uncached reference planners in
// export_test.go. The grids are small, priced and SLA-bound, under churn
// with rescheduling, so refused dispatches and SLA fallbacks both occur.
// Every task must land on the same node in the same dispatch order with
// the same carried sufferage and run-time estimate.
func TestCachedPhase1MatchesReference(t *testing.T) {
	price, err := economy.ParsePrice("1:0.3")
	if err != nil {
		t.Fatal(err)
	}
	sla, err := economy.ParseSLA("both:4:2")
	if err != nil {
		t.Fatal(err)
	}
	algos := []grid.Algorithm{
		heuristics.NewMinMin(), heuristics.NewMaxMin(), heuristics.NewSufferage(),
		heuristics.NewDBCCost(), heuristics.NewDBCTime(), heuristics.NewDBCCostTime(),
	}
	refused, fallbacks := 0, 0
	for _, seed := range []int64{3, 2010} {
		setting := experiments.NewSetting(experiments.Scale{
			Name: "equiv", Nodes: 16, LoadFactor: 6, HorizonHours: 12, SnapshotHours: 1,
		}, seed)
		setting.Homes = 8
		setting.Churn = grid.ChurnConfig{DynamicFactor: 0.4, StableCount: 8, Seed: stats.SplitSeed(seed, 400)}
		setting.RescheduleFailed = true
		setting.Price, setting.SLA = price, sla
		for _, algo := range algos {
			ref := algo
			var refMatrix *core.ReferenceMatrixPhase1
			switch p := algo.Phase1.(type) {
			case *core.MatrixPhase1:
				refMatrix = &core.ReferenceMatrixPhase1{Label: p.Label, Pick: p.Pick}
				ref.Phase1 = refMatrix
			case *core.DBCPhase1:
				ref.Phase1 = &core.ReferenceDBCPhase1{Label: p.Label, Mode: p.Mode, Order: p.Order}
			default:
				t.Fatalf("%s: unexpected first phase %T", algo.Label, p)
			}
			got, want := runCaptured(t, setting, algo), runCaptured(t, setting, ref)
			if refMatrix != nil {
				refused += refMatrix.Refused
			}
			fallbacks += want.SLAFallbacks
			if got.SLAFallbacks != want.SLAFallbacks {
				t.Errorf("%s seed %d: %d SLA fallbacks, reference %d", algo.Label, seed, got.SLAFallbacks, want.SLAFallbacks)
			}
			compareTasks(t, algo.Label, seed, got, want)
		}
	}
	if refused == 0 || fallbacks == 0 {
		t.Fatalf("%d refused matrix dispatches and %d DBC fallbacks: both rewritten paths must run", refused, fallbacks)
	}
	t.Logf("%d refused matrix dispatches, %d DBC fallbacks", refused, fallbacks)
}

func runCaptured(t *testing.T, setting experiments.Setting, algo grid.Algorithm) *grid.Grid {
	t.Helper()
	c := &gridCapture{Phase1Scheduler: algo.Phase1}
	algo.Phase1 = c
	if _, err := experiments.Run(setting, algo); err != nil {
		t.Fatalf("%s: %v", algo.Label, err)
	}
	if c.g == nil {
		t.Fatalf("%s: phase 1 never ran", algo.Label)
	}
	return c.g
}

func compareTasks(t *testing.T, label string, seed int64, got, want *grid.Grid) {
	t.Helper()
	if len(got.Workflows) != len(want.Workflows) {
		t.Fatalf("%s seed %d: %d workflows, reference %d", label, seed, len(got.Workflows), len(want.Workflows))
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	dispatched := 0
	for i, wf := range got.Workflows {
		for j, task := range wf.Tasks {
			ref := want.Workflows[i].Tasks[j]
			if task.Node != ref.Node || task.DispatchSeq != ref.DispatchSeq ||
				!same(task.SufferageAtDispatch, ref.SufferageAtDispatch) ||
				!same(task.EstExecAtDispatch, ref.EstExecAtDispatch) {
				t.Fatalf("%s seed %d: workflow %d task %d: node %d seq %d sufferage %v est %v; reference node %d seq %d sufferage %v est %v",
					label, seed, i, j, task.Node, task.DispatchSeq, task.SufferageAtDispatch, task.EstExecAtDispatch,
					ref.Node, ref.DispatchSeq, ref.SufferageAtDispatch, ref.EstExecAtDispatch)
			}
			if task.Node >= 0 {
				dispatched++
			}
		}
	}
	if dispatched == 0 {
		t.Fatalf("%s seed %d: nothing was dispatched", label, seed)
	}
}
