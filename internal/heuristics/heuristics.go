// Package heuristics assembles the seven competitor scheduling algorithms
// of Section IV.A on the core dual-phase machinery: the full-ahead HEFT and
// SMF baselines (re-exported from core), the decentralized HEFT (DHEFT) and
// dynamic shortest deadline first (DSDF) list schedulers, and the
// decentralized min-min, max-min and sufferage matrix schedulers with their
// STF/LTF/LSF second phases. FCFS-second-phase variants support the
// ablation quoted in Section IV.B.
package heuristics

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/grid"
)

// NewDSMF re-exports the paper's algorithm for a uniform registry.
func NewDSMF() grid.Algorithm { return core.NewDSMF() }

// NewHEFT re-exports the full-ahead HEFT baseline.
func NewHEFT() grid.Algorithm { return core.NewHEFT() }

// NewSMF re-exports the full-ahead SMF baseline.
func NewSMF() grid.Algorithm { return core.NewSMF() }

// dheftOrder ranks every schedule point by descending RPM regardless of
// which workflow it belongs to - the "longest RPM first policy at both
// scheduling phases" of the decentralized HEFT.
func dheftOrder(views []core.WorkflowView) []core.RankedTask {
	out := core.Flatten(views)
	sort.SliceStable(out, func(i, j int) bool { return out[i].RPM > out[j].RPM })
	return out
}

// dheftPhase2 runs the ready task with the longest carried RPM.
type dheftPhase2 struct{}

func (dheftPhase2) Name() string { return "DHEFT" }

func (dheftPhase2) Pick(ready []*grid.TaskInstance) *grid.TaskInstance {
	best := ready[0]
	for _, t := range ready[1:] {
		if t.RPMAtDispatch > best.RPMAtDispatch ||
			(t.RPMAtDispatch == best.RPMAtDispatch && t.DispatchSeq < best.DispatchSeq) {
			best = t
		}
	}
	return best
}

// NewDHEFT builds the decentralized HEFT competitor.
func NewDHEFT() grid.Algorithm {
	return grid.Algorithm{
		Label:  "DHEFT",
		Phase1: &core.ListPhase1{Label: "DHEFT", Order: dheftOrder},
		Phase2: dheftPhase2{},
	}
}

// Deadline is DSDF's priority: the slack between a task's rest path
// makespan and its workflow's remaining makespan. Critical tasks (RPM ==
// ms) have zero slack and run first.
func Deadline(ms, rpm float64) float64 { return ms - rpm }

// dsdfOrder ranks every schedule point by ascending deadline.
func dsdfOrder(views []core.WorkflowView) []core.RankedTask {
	out := core.Flatten(views)
	sort.SliceStable(out, func(i, j int) bool {
		return Deadline(out[i].Makespan, out[i].RPM) < Deadline(out[j].Makespan, out[j].RPM)
	})
	return out
}

// dsdfPhase2 runs the ready task with the shortest carried deadline.
type dsdfPhase2 struct{}

func (dsdfPhase2) Name() string { return "DSDF" }

func (dsdfPhase2) Pick(ready []*grid.TaskInstance) *grid.TaskInstance {
	best := ready[0]
	for _, t := range ready[1:] {
		db, dt := Deadline(best.MsAtDispatch, best.RPMAtDispatch), Deadline(t.MsAtDispatch, t.RPMAtDispatch)
		if dt < db || (dt == db && t.DispatchSeq < best.DispatchSeq) {
			best = t
		}
	}
	return best
}

// NewDSDF builds the dynamic shortest deadline first competitor.
func NewDSDF() grid.Algorithm {
	return grid.Algorithm{
		Label:  "DSDF",
		Phase1: &core.ListPhase1{Label: "DSDF", Order: dsdfOrder},
		Phase2: dsdfPhase2{},
	}
}

// stfPhase2 (shortest task first) runs the ready task with the smallest
// estimated execution time, the paper's second phase for min-min.
type stfPhase2 struct{}

func (stfPhase2) Name() string { return "STF" }

func (stfPhase2) Pick(ready []*grid.TaskInstance) *grid.TaskInstance {
	best := ready[0]
	for _, t := range ready[1:] {
		if t.EstExecAtDispatch < best.EstExecAtDispatch ||
			(t.EstExecAtDispatch == best.EstExecAtDispatch && t.DispatchSeq < best.DispatchSeq) {
			best = t
		}
	}
	return best
}

// ltfPhase2 (longest task first) pairs with max-min.
type ltfPhase2 struct{}

func (ltfPhase2) Name() string { return "LTF" }

func (ltfPhase2) Pick(ready []*grid.TaskInstance) *grid.TaskInstance {
	best := ready[0]
	for _, t := range ready[1:] {
		if t.EstExecAtDispatch > best.EstExecAtDispatch ||
			(t.EstExecAtDispatch == best.EstExecAtDispatch && t.DispatchSeq < best.DispatchSeq) {
			best = t
		}
	}
	return best
}

// lsfPhase2 (largest sufferage first) pairs with sufferage.
type lsfPhase2 struct{}

func (lsfPhase2) Name() string { return "LSF" }

func (lsfPhase2) Pick(ready []*grid.TaskInstance) *grid.TaskInstance {
	best := ready[0]
	for _, t := range ready[1:] {
		if t.SufferageAtDispatch > best.SufferageAtDispatch ||
			(t.SufferageAtDispatch == best.SufferageAtDispatch && t.DispatchSeq < best.DispatchSeq) {
			best = t
		}
	}
	return best
}

// NewMinMin builds decentralized min-min with the STF second phase.
func NewMinMin() grid.Algorithm {
	return grid.Algorithm{
		Label:  "min-min",
		Phase1: &core.MatrixPhase1{Label: "min-min", Pick: core.PickMinMin},
		Phase2: stfPhase2{},
	}
}

// NewMaxMin builds decentralized max-min with the LTF second phase.
func NewMaxMin() grid.Algorithm {
	return grid.Algorithm{
		Label:  "max-min",
		Phase1: &core.MatrixPhase1{Label: "max-min", Pick: core.PickMaxMin},
		Phase2: ltfPhase2{},
	}
}

// NewSufferage builds decentralized sufferage with the LSF second phase.
func NewSufferage() grid.Algorithm {
	return grid.Algorithm{
		Label:  "sufferage",
		Phase1: &core.MatrixPhase1{Label: "sufferage", Pick: core.PickSufferage},
		Phase2: lsfPhase2{},
	}
}

// NewDBCCost builds the deadline-constrained cost optimizer: DSMF's
// first-phase priority order, but each task goes to the cheapest node that
// still meets its workflow's deadline (best-effort fallback on infeasible).
func NewDBCCost() grid.Algorithm {
	return grid.Algorithm{
		Label:  "DBC-cost",
		Phase1: &core.DBCPhase1{Label: "DBC-cost", Mode: core.DBCCost, Order: core.DSMFOrder},
		Phase2: core.DSMFPhase2{},
	}
}

// NewDBCTime builds the budget-constrained time optimizer: the
// finish-earliest pick restricted to nodes whose price fits the workflow's
// remaining budget.
func NewDBCTime() grid.Algorithm {
	return grid.Algorithm{
		Label:  "DBC-time",
		Phase1: &core.DBCPhase1{Label: "DBC-time", Mode: core.DBCTime, Order: core.DSMFOrder},
		Phase2: core.DSMFPhase2{},
	}
}

// NewDBCCostTime builds the conservative cost-time variant: both the
// deadline and the budget filter apply, then the cheapest survivor wins.
func NewDBCCostTime() grid.Algorithm {
	return grid.Algorithm{
		Label:  "DBC-ct",
		Phase1: &core.DBCPhase1{Label: "DBC-ct", Mode: core.DBCCostTime, Order: core.DSMFOrder},
		Phase2: core.DSMFPhase2{},
	}
}

// WithFCFSPhase2 swaps an algorithm's second phase for FCFS, producing the
// "original versions using FCFS on the second-phase scheduling" the paper
// compares against in Section IV.B.
func WithFCFSPhase2(a grid.Algorithm) grid.Algorithm {
	a.Label += "+FCFS"
	a.Phase2 = core.FCFS{}
	return a
}

// Names returns the legend names of the eight paper algorithms in the
// legend's order: DHEFT, HEFT, max-min, min-min, DSDF, sufferage, DSMF,
// SMF. The sweep engine's default algorithm axis is declared in these
// names.
func Names() []string {
	return []string{"DHEFT", "HEFT", "max-min", "min-min", "DSDF", "sufferage", "DSMF", "SMF"}
}

// ByName builds a fresh algorithm instance from its name: a legend name
// from Names, a DBC economic variant, a full-ahead extension planner
// (HEFT-ins, LAHEFT, CPOP), or any of these with "+FCFS" appended for the
// FCFS-second-phase variant of the Section IV.B ablation. The returned
// Label is the name's canonical spelling (the lowercase aliases map to
// legend names). Full-ahead algorithms carry per-run planner state, so
// every concurrent simulation needs its own ByName call.
func ByName(name string) (grid.Algorithm, error) {
	switch name {
	case "DSMF", "dsmf":
		return NewDSMF(), nil
	case "SMF", "smf":
		return NewSMF(), nil
	case "HEFT", "heft":
		return NewHEFT(), nil
	case "DHEFT", "dheft":
		return NewDHEFT(), nil
	case "min-min", "minmin":
		return NewMinMin(), nil
	case "max-min", "maxmin":
		return NewMaxMin(), nil
	case "sufferage":
		return NewSufferage(), nil
	case "DSDF", "dsdf":
		return NewDSDF(), nil
	case "DBC-cost", "dbc-cost":
		return NewDBCCost(), nil
	case "DBC-time", "dbc-time":
		return NewDBCTime(), nil
	case "DBC-ct", "dbc-ct":
		return NewDBCCostTime(), nil
	case "HEFT-ins":
		return NewHEFTInsertion(), nil
	case "LAHEFT":
		return NewLAHEFT(), nil
	case "CPOP":
		return NewCPOP(), nil
	}
	if base, ok := strings.CutSuffix(name, "+FCFS"); ok {
		if a, err := ByName(base); err == nil {
			return WithFCFSPhase2(a), nil
		}
	}
	return grid.Algorithm{}, fmt.Errorf("heuristics: unknown algorithm %q", name)
}
