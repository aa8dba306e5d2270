package core

import (
	"repro/internal/dag"
	"repro/internal/grid"
)

// WorkflowView is one active workflow as the first-phase scheduler sees it
// at the start of a scheduling round: its rest path makespans priced with
// the gossip averages (Eq. 7) and its remaining makespan ms(f) (Eq. 8).
type WorkflowView struct {
	WF       *grid.WorkflowInstance
	Est      dag.Estimates
	RPM      []float64            // indexed by TaskID
	Points   []*grid.TaskInstance // current schedule-point set spset(f)
	Makespan float64              // ms(f) = max RPM over schedule points
}

// Analyze builds views for every active workflow at home that has at least
// one schedule point (Algorithm 1 lines 2-7). The averages come from the
// aggregation gossip protocol (or the oracle under ablation).
func Analyze(g *grid.Grid, home *grid.Node) []WorkflowView {
	avgCap, avgBW := g.Averages(home.ID)
	est := dag.Estimates{AvgCapacityMIPS: avgCap, AvgBandwidthMbs: avgBW}
	var views []WorkflowView
	for _, wf := range g.ActiveWorkflows(home.ID) {
		points := g.SchedulePoints(wf)
		if len(points) == 0 {
			continue
		}
		rpm := dag.RPM(wf.W, est)
		ms := 0.0
		for _, t := range points {
			if rpm[t.ID] > ms {
				ms = rpm[t.ID]
			}
		}
		views = append(views, WorkflowView{WF: wf, Est: est, RPM: rpm, Points: points, Makespan: ms})
	}
	return views
}

// RankedTask is one dispatchable task with its carried priorities.
type RankedTask struct {
	Task     *grid.TaskInstance
	RPM      float64
	Makespan float64 // ms of its workflow
}

// Flatten lists every schedule point of every view with its priorities, in
// (workflow, task-id) order. Orderings permute this base list.
func Flatten(views []WorkflowView) []RankedTask {
	out := make([]RankedTask, 0, countPoints(views))
	for _, v := range views {
		for _, t := range v.Points {
			out = append(out, RankedTask{Task: t, RPM: v.RPM[t.ID], Makespan: v.Makespan})
		}
	}
	return out
}

// countPoints returns the number of schedule points over views.
func countPoints(views []WorkflowView) int {
	n := 0
	for _, v := range views {
		n += len(v.Points)
	}
	return n
}
