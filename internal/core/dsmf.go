package core

import (
	"slices"

	"repro/internal/grid"
)

// DSMFOrder is the paper's first-phase priority (Algorithm 1 lines 8-11):
// workflows ascending by remaining makespan ms(f) - shortest makespan first
// minimizes average waiting like shortest-job-first - and, inside each
// workflow, schedule points descending by RPM so the critical tasks reach
// the best resources first. All ties break on stable (submission, task-id)
// order for determinism.
func DSMFOrder(views []WorkflowView) []RankedTask {
	ordered := slices.Clone(views)
	slices.SortStableFunc(ordered, func(a, b WorkflowView) int { return Ascending(a.Makespan, b.Makespan) })
	out := make([]RankedTask, 0, countPoints(views))
	for _, v := range ordered {
		start := len(out)
		for _, t := range v.Points {
			out = append(out, RankedTask{Task: t, RPM: v.RPM[t.ID], Makespan: v.Makespan})
		}
		slices.SortStableFunc(out[start:], func(a, b RankedTask) int { return Ascending(b.RPM, a.RPM) })
	}
	return out
}

// Ascending compares x and y with < alone, as a sort.SliceStable less
// function does, for slices.SortStableFunc: both run the same insertion
// sort and symmerge on the outcomes of "less", so the permutation is the
// same, a NaN included. (cmp.Compare would order a NaN first.)
func Ascending(x, y float64) int {
	switch {
	case x < y:
		return -1
	case y < x:
		return 1
	}
	return 0
}

// DSMFPhase2 is Algorithm 2: among the data-complete ready tasks, run the
// one whose workflow has the shortest carried remaining makespan (Formula
// 10); among equals, the one with the longest RPM; final tie on dispatch
// order.
type DSMFPhase2 struct{}

// Name implements grid.Phase2Policy.
func (DSMFPhase2) Name() string { return "DSMF" }

// Pick implements grid.Phase2Policy.
func (DSMFPhase2) Pick(ready []*grid.TaskInstance) *grid.TaskInstance {
	best := ready[0]
	for _, t := range ready[1:] {
		switch {
		case t.MsAtDispatch < best.MsAtDispatch:
			best = t
		case t.MsAtDispatch == best.MsAtDispatch && t.RPMAtDispatch > best.RPMAtDispatch:
			best = t
		case t.MsAtDispatch == best.MsAtDispatch && t.RPMAtDispatch == best.RPMAtDispatch &&
			t.DispatchSeq < best.DispatchSeq:
			best = t
		}
	}
	return best
}

// NewDSMF assembles the paper's dual-phase just-in-time algorithm.
func NewDSMF() grid.Algorithm {
	return grid.Algorithm{
		Label:  "DSMF",
		Phase1: &ListPhase1{Label: "DSMF", Order: DSMFOrder},
		Phase2: DSMFPhase2{},
	}
}

// FCFS is the baseline second phase: first data-ready, first executed. The
// full-ahead algorithms use it ("the resource nodes will just execute the
// ready tasks via the FCFS policy"), and the ablation of Section IV.B
// plugs it under the decentralized heuristics.
type FCFS struct{}

// Name implements grid.Phase2Policy.
func (FCFS) Name() string { return "FCFS" }

// Pick implements grid.Phase2Policy.
func (FCFS) Pick(ready []*grid.TaskInstance) *grid.TaskInstance {
	best := ready[0]
	for _, t := range ready[1:] {
		if t.ReadyAt < best.ReadyAt ||
			(t.ReadyAt == best.ReadyAt && t.DispatchSeq < best.DispatchSeq) {
			best = t
		}
	}
	return best
}
