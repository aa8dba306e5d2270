package core

import (
	"math"

	"repro/internal/grid"
)

// DBCMode selects which constraint a DBC scheduler optimizes against.
type DBCMode int

const (
	// DBCCost minimizes spend among deadline-feasible candidates (Buyya's
	// cost-optimization within deadline).
	DBCCost DBCMode = iota
	// DBCTime minimizes finish time among budget-feasible candidates
	// (time-optimization within budget).
	DBCTime
	// DBCCostTime applies both filters and then minimizes spend: the
	// conservative cost-time variant.
	DBCCostTime
)

// DBCPhase1 is the deadline- and budget-constrained first phase: Algorithm
// 1's list-scheduling skeleton (analyze, order, place, update the local
// view) with the finish-earliest pick of Formula 9 replaced by a
// constrained pick. Candidates whose estimated completion busts the
// workflow's deadline or whose price busts its remaining budget are
// filtered out; among the survivors DBCCost/DBCCostTime take the cheapest
// (ties to the earlier finisher) and DBCTime the earliest finisher. A task
// with no feasible candidate falls back to the unconstrained best-effort
// pick, the earliest finisher found in the same pass over the candidates,
// and the violation is recorded in grid.SLAFallbacks — constrained
// scheduling degrades, it never stalls.
//
// Workflows without an SLA pass every filter, so best-effort and SLA
// traffic coexist under one scheduler; with pricing off every rate is zero
// and the cost orderings collapse to finish time, making DBC a strict
// generalization of the unconstrained list scheduler.
type DBCPhase1 struct {
	Label string
	Mode  DBCMode
	// Order permutes the dispatchable tasks into dispatch priority order.
	Order func(views []WorkflowView) []RankedTask

	candBuf []Candidate // per-instance scratch; one engine thread per run
}

// Name implements grid.Phase1Scheduler.
func (s *DBCPhase1) Name() string { return s.Label }

// Schedule implements grid.Phase1Scheduler.
func (s *DBCPhase1) Schedule(g *grid.Grid, home *grid.Node, now float64) {
	views := Analyze(g, home)
	if len(views) == 0 {
		return
	}
	s.candBuf = AppendCandidates(g, home, s.candBuf)
	cands := s.candBuf
	g.ObservePhase1Candidates(len(cands))
	if len(cands) == 0 {
		return
	}
	avgCap, _ := g.Averages(home.ID)
	for _, rt := range s.Order(views) {
		if rt.Task.State != grid.TaskSchedulePoint {
			continue
		}
		for len(cands) > 0 {
			idx, feasible := s.pick(g, rt, cands, now, avgCap)
			if idx < 0 {
				return
			}
			if !feasible {
				g.SLAFallbacks++
			}
			if dispatchTo(g, home, rt.Task, cands, idx, rt.RPM, rt.Makespan) {
				break
			}
			cands = removeCandidate(cands, idx)
		}
		if len(cands) == 0 {
			return
		}
	}
}

// pick returns the index of the constrained choice for rt, falling back to
// the unconstrained finish-earliest candidate (feasible=false) when no
// candidate satisfies the workflow's SLA.
func (s *DBCPhase1) pick(g *grid.Grid, rt RankedTask, cands []Candidate, now, avgCap float64) (idx int, feasible bool) {
	wf := rt.Task.WF
	// Deadline headroom for this task: the workflow must finish by its
	// deadline, and after this task completes roughly the rest of its path
	// (its carried RPM minus this task's own expected run) remains. The
	// downstream estimate uses the same gossip average capacity the
	// makespans are priced with.
	taskDeadline := math.Inf(1)
	if (s.Mode == DBCCost || s.Mode == DBCCostTime) && wf.SLA.Deadline > 0 {
		downstream := 0.0
		if avgCap > 0 {
			downstream = rt.RPM - rt.Task.Task().Load/avgCap
		}
		if downstream < 0 {
			downstream = 0
		}
		taskDeadline = wf.SLA.Deadline - now - downstream
	}
	budget := math.Inf(1)
	if s.Mode == DBCTime || s.Mode == DBCCostTime {
		if rem, ok := wf.RemainingBudget(); ok {
			budget = rem
		}
	}

	task := rt.Task.Task()
	load := task.Load
	// A candidate's FT is at least R + et, so R + et alone can decide the
	// comparisons FT enters: the fallback's, the deadline filter and the
	// mode's tie-break. Only a NaN image size makes FT NaN where R + et is
	// not (see transferTerm), and a NaN FT passes the deadline filter, so
	// such a task is priced on every candidate.
	bounded := !math.IsNaN(task.ImageMb)
	bestIdx, bestFT, bestPrice := -1, math.Inf(1), math.Inf(1)
	// anyIdx is the unconstrained earliest finisher, as BestNode picks it.
	anyIdx, anyFT := -1, math.Inf(1)
	for i := range cands {
		c := &cands[i]
		price := load * g.PriceOf(c.Node)
		var ft float64
		if c.CapacityMIPS <= 0 {
			ft = math.Inf(1) // as FinishTime; a NaN capacity is priced, to NaN
		} else {
			r, et := c.TotalLoadMI/c.CapacityMIPS, load/c.CapacityMIPS
			if lb := r + et; bounded && lb >= anyFT && s.ruledOut(lb, price, taskDeadline, budget, bestIdx, bestFT, bestPrice) {
				continue
			}
			ft = finish(r, transferTerm(g, rt.Task, c.Node, 0, math.Inf(1)), et)
		}
		if ft < anyFT {
			anyIdx, anyFT = i, ft
		}
		if ft > taskDeadline {
			continue
		}
		if price > budget {
			continue
		}
		var better bool
		if s.Mode == DBCTime {
			better = ft < bestFT
		} else {
			better = price < bestPrice || (price == bestPrice && ft < bestFT)
		}
		if bestIdx < 0 || better {
			bestIdx, bestFT, bestPrice = i, ft, price
		}
	}
	if bestIdx >= 0 {
		return bestIdx, true
	}
	return anyIdx, false
}

// ruledOut reports whether a candidate whose FT is at least lb, and not
// NaN, at price price cannot become the constrained pick: its FT busts the
// deadline, its price the budget, or it loses the mode's comparison to the
// pick so far.
func (s *DBCPhase1) ruledOut(lb, price, deadline, budget float64, bestIdx int, bestFT, bestPrice float64) bool {
	switch {
	case lb > deadline, price > budget:
		return true
	case bestIdx < 0:
		return false
	case s.Mode == DBCTime:
		return lb >= bestFT
	default:
		return price > bestPrice || (price == bestPrice && lb >= bestFT)
	}
}
