package core

import (
	"math"

	"repro/internal/grid"
)

// RowsForTest exposes the reference row computation for property tests in
// the core_test package.
func RowsForTest(g *grid.Grid, t *grid.TaskInstance, cands []Candidate) MatrixRow {
	return computeRow(g, RankedTask{Task: t}, cands)
}

// computeRow rates one task on every candidate through FinishTime: the
// matrix row before MatrixPhase1 cached its cells.
func computeRow(g *grid.Grid, rt RankedTask, cands []Candidate) MatrixRow {
	row := MatrixRow{
		Task: rt.Task, RPM: rt.RPM, Makespan: rt.Makespan,
		BestIdx: -1, BestFT: math.Inf(1), SecondFT: math.Inf(1),
	}
	for i := range cands {
		ft := FinishTime(g, rt.Task, cands[i])
		switch {
		case ft < row.BestFT:
			row.SecondFT = row.BestFT
			row.BestFT = ft
			row.BestIdx = i
		case ft < row.SecondFT:
			row.SecondFT = ft
		}
	}
	return row
}

// referenceBestNode is Formula 9 as a full search: every candidate is
// rated through FinishTime, and the first least FT wins.
func referenceBestNode(g *grid.Grid, t *grid.TaskInstance, cands []Candidate) (idx int, ft float64) {
	idx, ft = -1, math.Inf(1)
	for i := range cands {
		if v := FinishTime(g, t, cands[i]); v < ft {
			idx, ft = i, v
		}
	}
	return idx, ft
}

// ReferenceListPhase1 is the list planner ListPhase1 must match decision
// for decision: each task goes to referenceBestNode's pick.
type ReferenceListPhase1 struct {
	Label string
	Order func(views []WorkflowView) []RankedTask
}

// Name implements grid.Phase1Scheduler.
func (s *ReferenceListPhase1) Name() string { return s.Label }

// Schedule implements grid.Phase1Scheduler.
func (s *ReferenceListPhase1) Schedule(g *grid.Grid, home *grid.Node, now float64) {
	views := Analyze(g, home)
	if len(views) == 0 {
		return
	}
	cands := Candidates(g, home)
	if len(cands) == 0 {
		return
	}
	for _, rt := range s.Order(views) {
		if rt.Task.State != grid.TaskSchedulePoint {
			continue
		}
		for len(cands) > 0 {
			idx, _ := referenceBestNode(g, rt.Task, cands)
			if idx < 0 {
				return
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

// ReferenceMatrixPhase1 is the uncached matrix planner MatrixPhase1 must
// match decision for decision: it recomputes every pending row through
// FinishTime after each placement and deletes a refused candidate from the
// candidate list. Refused counts the refused dispatches.
type ReferenceMatrixPhase1 struct {
	Label   string
	Pick    func(rows []MatrixRow) int
	Refused int
}

// Name implements grid.Phase1Scheduler.
func (s *ReferenceMatrixPhase1) Name() string { return s.Label }

// Schedule implements grid.Phase1Scheduler.
func (s *ReferenceMatrixPhase1) Schedule(g *grid.Grid, home *grid.Node, now float64) {
	views := Analyze(g, home)
	if len(views) == 0 {
		return
	}
	cands := Candidates(g, home)
	if len(cands) == 0 {
		return
	}
	pending := Flatten(views)
	for len(pending) > 0 {
		alive := pending[:0]
		for _, rt := range pending {
			if rt.Task.State == grid.TaskSchedulePoint {
				alive = append(alive, rt)
			}
		}
		pending = alive
		if len(pending) == 0 {
			return
		}
		rows := make([]MatrixRow, 0, len(pending))
		for _, rt := range pending {
			rows = append(rows, computeRow(g, rt, cands))
		}
		pick := s.Pick(rows)
		if pick < 0 || pick >= len(rows) {
			return
		}
		row := rows[pick]
		if row.BestIdx < 0 {
			return
		}
		row.Task.SufferageAtDispatch = row.Sufferage()
		if !dispatchTo(g, home, row.Task, cands, row.BestIdx, row.RPM, row.Makespan) {
			s.Refused++
			cands = removeCandidate(cands, row.BestIdx)
			if len(cands) == 0 {
				return
			}
			continue
		}
		pending = append(pending[:pick], pending[pick+1:]...)
	}
}

// ReferenceDBCPhase1 is the DBC planner DBCPhase1 must match decision for
// decision: it rates every candidate through FinishTime, and on fallback it
// takes a second pass over the candidates through referenceBestNode.
type ReferenceDBCPhase1 struct {
	Label string
	Mode  DBCMode
	Order func(views []WorkflowView) []RankedTask
}

// Name implements grid.Phase1Scheduler.
func (s *ReferenceDBCPhase1) Name() string { return s.Label }

// Schedule implements grid.Phase1Scheduler.
func (s *ReferenceDBCPhase1) Schedule(g *grid.Grid, home *grid.Node, now float64) {
	views := Analyze(g, home)
	if len(views) == 0 {
		return
	}
	cands := Candidates(g, home)
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

func (s *ReferenceDBCPhase1) pick(g *grid.Grid, rt RankedTask, cands []Candidate, now, avgCap float64) (idx int, feasible bool) {
	wf := rt.Task.WF
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
	load := rt.Task.Task().Load
	bestIdx, bestFT, bestPrice := -1, math.Inf(1), math.Inf(1)
	for i := range cands {
		ft := FinishTime(g, rt.Task, cands[i])
		if ft > taskDeadline {
			continue
		}
		price := load * g.PriceOf(cands[i].Node)
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
	idx, _ = referenceBestNode(g, rt.Task, cands)
	return idx, false
}
