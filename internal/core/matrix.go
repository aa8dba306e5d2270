package core

import (
	"math"

	"repro/internal/grid"
)

// MatrixRow is one not-yet-placed task's finish-time profile across the
// candidate set: the best candidate, its FT, and the second-best FT (the
// ingredient of the sufferage value).
type MatrixRow struct {
	Task     *grid.TaskInstance
	RPM      float64
	Makespan float64
	BestIdx  int
	BestFT   float64
	SecondFT float64

	terms []ftTerms // the task's cell per candidate, in candidate order
}

// Sufferage returns how much the task suffers if denied its best node.
func (r MatrixRow) Sufferage() float64 {
	if math.IsInf(r.SecondFT, 1) {
		return 0 // single candidate: no alternative to compare against
	}
	return r.SecondFT - r.BestFT
}

// ftTerms holds the parts of FT(tau, p_h) that a placement does not move:
// the transfer term LTD and the run time et (see FinishTime).
type ftTerms struct{ ltd, et float64 }

// rescan recomputes the row's best and second-best FT from its cells and
// every candidate's current queueing delay R.
func (r *MatrixRow) rescan(delay []float64) {
	r.BestIdx, r.BestFT, r.SecondFT = -1, math.Inf(1), math.Inf(1)
	delay = delay[:len(r.terms)]
	for i, c := range r.terms {
		ft := finish(delay[i], c.ltd, c.et)
		switch {
		case ft < r.BestFT:
			r.SecondFT = r.BestFT
			r.BestFT = ft
			r.BestIdx = i
		case ft < r.SecondFT:
			r.SecondFT = ft
		}
	}
}

// MatrixPhase1 is the decentralized min-min / max-min / sufferage first
// phase (Maheswaran et al., adapted to workflows as in Section IV.A):
// build the FT matrix over (schedule point x candidate), repeatedly pick
// one row by the family rule, place the task on its best node, update that
// node's load, and rescan. A placement moves only the placed candidate's
// queueing delay R, so each call first fills a table of every cell's
// transfer term and run time, an O(T·C·(1+P)) pass of estimates over the
// T schedule points, C candidates and P precedents per point; each rescan
// is then a max-and-add per cell, O(T²·C) over the call.
type MatrixPhase1 struct {
	Label string
	// Pick returns the index of the chosen row.
	Pick func(rows []MatrixRow) int

	// Per-instance scratch; one engine thread per run.
	candBuf  []Candidate
	rowBuf   []MatrixRow
	termBuf  []ftTerms // T×C cells, one run of C per row
	delayBuf []float64 // R per candidate
}

// Name implements grid.Phase1Scheduler.
func (s *MatrixPhase1) Name() string { return s.Label }

// Schedule implements grid.Phase1Scheduler.
func (s *MatrixPhase1) Schedule(g *grid.Grid, home *grid.Node, now float64) {
	views := Analyze(g, home)
	if len(views) == 0 {
		return
	}
	s.candBuf = AppendCandidates(g, home, s.candBuf)
	cands := s.candBuf
	if len(cands) == 0 {
		return
	}
	pending := Flatten(views)
	nc := len(cands)
	if n := len(pending) * nc; cap(s.termBuf) < n {
		s.termBuf = make([]ftTerms, n)
	}
	rows := s.rowBuf[:0]
	for i, rt := range pending {
		terms := s.termBuf[i*nc : (i+1)*nc]
		for j, c := range cands {
			if c.CapacityMIPS > 0 {
				terms[j] = ftTerms{transferTerm(g, rt.Task, c.Node), rt.Task.Task().Load / c.CapacityMIPS}
			} else {
				terms[j] = ftTerms{} // queueDelay puts the column at +Inf
			}
		}
		rows = append(rows, MatrixRow{Task: rt.Task, RPM: rt.RPM, Makespan: rt.Makespan, terms: terms})
	}
	s.rowBuf = rows
	delay := s.delayBuf[:0]
	for _, c := range cands {
		delay = append(delay, queueDelay(c))
	}
	s.delayBuf = delay
	live := nc
	for len(rows) > 0 {
		// A failed dispatch may revert a shared precedent and demote other
		// pending tasks back to blocked; drop them from this pass.
		alive := rows[:0]
		for _, row := range rows {
			if row.Task.State == grid.TaskSchedulePoint {
				alive = append(alive, row)
			}
		}
		rows = alive
		if len(rows) == 0 {
			return
		}
		for i := range rows {
			rows[i].rescan(delay)
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
			// Stale record: the candidate vanished. An infinite R puts
			// every FT on its column at +Inf, which the strict < of rescan
			// never takes as best or second, so the column is as good as
			// deleted. The task stays pending.
			delay[row.BestIdx] = math.Inf(1)
			if live--; live == 0 {
				return
			}
			continue
		}
		delay[row.BestIdx] = queueDelay(cands[row.BestIdx])
		rows = append(rows[:pick], rows[pick+1:]...)
	}
}

// queueDelay is R of Eq. 5 for c, or +Inf for a candidate without
// capacity, on which FinishTime is +Inf too.
func queueDelay(c Candidate) float64 {
	if c.CapacityMIPS <= 0 {
		return math.Inf(1)
	}
	return c.TotalLoadMI / c.CapacityMIPS
}

// PickMinMin selects the row whose best FT is smallest (ties: first row).
func PickMinMin(rows []MatrixRow) int {
	best := 0
	for i := 1; i < len(rows); i++ {
		if rows[i].BestFT < rows[best].BestFT {
			best = i
		}
	}
	return best
}

// PickMaxMin selects the row whose best FT is largest.
func PickMaxMin(rows []MatrixRow) int {
	best := 0
	for i := 1; i < len(rows); i++ {
		if rows[i].BestFT > rows[best].BestFT {
			best = i
		}
	}
	return best
}

// PickSufferage selects the row with the largest sufferage.
func PickSufferage(rows []MatrixRow) int {
	best := 0
	for i := 1; i < len(rows); i++ {
		if rows[i].Sufferage() > rows[best].Sufferage() {
			best = i
		}
	}
	return best
}
