package grid_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/heuristics"
	"repro/internal/stats"
)

// pointAudit is a tap that recounts every workflow's schedule points at
// each event of a run and compares the recount with the count the grid
// keeps for its scheduling rounds.
type pointAudit struct {
	g      *grid.Grid
	events int
	err    error
}

// Event implements grid.Tap.
func (a *pointAudit) Event(g *grid.Grid, e grid.Event) {
	a.g = g
	a.events++
	if a.err != nil {
		return
	}
	for _, wf := range g.Workflows {
		n := 0
		for _, t := range wf.Tasks {
			if t.State == grid.TaskSchedulePoint {
				n++
			}
		}
		if kept := wf.SchedulePointCount(); kept != n {
			a.err = fmt.Errorf("at %v (%v) workflow %d keeps %d schedule points, recount %d", e.Time, e.Kind, wf.Seq, kept, n)
			return
		}
	}
}

// TestSchedulePointCountMatchesRecount steps churning runs with
// rescheduling, under graceful and harsh churn, with DSMF, a matrix
// planner and full-ahead HEFT, and checks the kept schedule-point count
// against a recount after every event: dispatches, hand-backs, failures
// (HEFT fails a schedule point whose planned node is gone) and the
// reverts that demote a schedule point back to blocked all move it.
func TestSchedulePointCountMatchesRecount(t *testing.T) {
	for _, harsh := range []bool{false, true} {
		for _, algo := range []grid.Algorithm{core.NewDSMF(), heuristics.NewSufferage(), core.NewHEFT()} {
			audit := &pointAudit{}
			setting := experiments.NewSetting(experiments.Scale{
				Name: "points", Nodes: 16, LoadFactor: 6, HorizonHours: 12, SnapshotHours: 1,
			}, 5)
			setting.Homes = 8
			setting.Churn = grid.ChurnConfig{DynamicFactor: 0.4, StableCount: 8, Seed: stats.SplitSeed(5, 400)}
			setting.RescheduleFailed = true
			setting.Harsh = harsh
			setting.Tap = audit
			if _, err := experiments.Run(setting, algo); err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s harsh=%v", algo.Label, harsh)
			if audit.err != nil {
				t.Fatalf("%s: %v", name, audit.err)
			}
			g := audit.g
			if g == nil || g.Rescheduled == 0 || g.DispatchCount == 0 || (!harsh && g.HandedBack == 0) {
				t.Fatalf("%s: the run must dispatch, reschedule and (graceful) hand back", name)
			}
			t.Logf("%s: %d events, %d dispatches, %d rescheduled, %d handed back", name, audit.events, g.DispatchCount, g.Rescheduled, g.HandedBack)
		}
	}
}
