package core

import (
	"math"

	"repro/internal/grid"
)

// Candidate is one resource-node option visible to a first-phase scheduler:
// a gossip RSS record, or the home node itself (whose state the scheduler
// knows directly). TotalLoadMI is mutated locally as the scheduler places
// tasks within one round, mirroring Algorithm 1 line 15.
type Candidate struct {
	Node         int
	CapacityMIPS float64
	TotalLoadMI  float64
	IsHome       bool
}

// Candidates assembles the home node's current scheduling options from its
// RSS plus itself, in ascending node order.
func Candidates(g *grid.Grid, home *grid.Node) []Candidate {
	return AppendCandidates(g, home, nil)
}

// AppendCandidates is Candidates writing into dst's backing array (resliced
// to zero length), for schedulers that keep a per-instance scratch buffer.
func AppendCandidates(g *grid.Grid, home *grid.Node, dst []Candidate) []Candidate {
	rss := g.RSSView(home.ID)
	out := dst[:0]
	inserted := false
	for _, rec := range rss {
		if !inserted && home.ID < rec.Node {
			out = append(out, homeCandidate(home))
			inserted = true
		}
		out = append(out, Candidate{
			Node:         rec.Node,
			CapacityMIPS: rec.Capacity,
			TotalLoadMI:  rec.TotalLoadMI,
		})
	}
	if !inserted {
		out = append(out, homeCandidate(home))
	}
	return out
}

func homeCandidate(home *grid.Node) Candidate {
	return Candidate{
		Node:         home.ID,
		CapacityMIPS: home.Capacity,
		TotalLoadMI:  home.TotalLoadMI,
		IsHome:       true,
	}
}

// FinishTime estimates FT(tau, p_h) of Eqs. 4-6 for dispatching schedule
// point t on candidate c right now:
//
//	R    = c.TotalLoad / c.Capacity            (queuing delay, Eq. 5)
//	LTD  = max over precedents of the estimated transfer time of their
//	       output data from the node that computed them, and of the task
//	       image from the home node (Eq. 4; precedents are already
//	       finished under the just-in-time model, so only the transfer
//	       remains)
//	et   = load / c.Capacity
//	FT   = max(R, LTD) + et                    (Eqs. 5-6)
//
// Transfer times come from the landmark-based estimator, not the true
// network, so the scheduler sees exactly the information a real node has.
// Only R moves when a scheduler places a task, so a planner that rates
// many tasks on the same candidates (MatrixPhase1) computes transferTerm
// and et once per task and candidate and recombines them with the current
// R through finish.
func FinishTime(g *grid.Grid, t *grid.TaskInstance, c Candidate) float64 {
	if c.CapacityMIPS <= 0 {
		return math.Inf(1)
	}
	return finish(c.TotalLoadMI/c.CapacityMIPS, transferTerm(g, t, c.Node), t.Task().Load/c.CapacityMIPS)
}

// transferTerm is LTD of Eq. 4: the estimated time until t's image and
// every precedent's output data have reached node.
func transferTerm(g *grid.Grid, t *grid.TaskInstance, node int) float64 {
	est := g.Estimator()
	ltd := est.EstimateTransferTime(t.WF.Home, node, t.Task().ImageMb)
	for _, e := range t.WF.W.Predecessors(t.ID) {
		pred := t.WF.Tasks[e.From]
		src := pred.Node
		if src < 0 {
			src = t.WF.Home // defensive: unexecuted precedent data at home
		}
		if x := est.EstimateTransferTime(src, node, e.DataMb); x > ltd {
			ltd = x
		}
	}
	return ltd
}

// finish is Eqs. 5-6: the task starts once the queue has drained and its
// inputs have arrived, then runs for et.
func finish(r, ltd, et float64) float64 {
	return max(r, ltd) + et
}

// BestNode applies Formula 9: the candidate index minimizing FT(tau, p_h),
// ties broken toward the lower node id for determinism. It returns -1 for
// an empty candidate set.
func BestNode(g *grid.Grid, t *grid.TaskInstance, cands []Candidate) (idx int, ft float64) {
	idx, ft = -1, math.Inf(1)
	for i := range cands {
		if v := FinishTime(g, t, cands[i]); v < ft {
			idx, ft = i, v
		}
	}
	return idx, ft
}

// dispatchTo places t on the chosen candidate, records the carried phase-2
// metadata, and updates both the local candidate view and the gossip cache
// (Algorithm 1 lines 14-15). It reports whether the migration succeeded; a
// false return means the candidate vanished (stale gossip record) and the
// caller should drop it and retry elsewhere.
func dispatchTo(g *grid.Grid, home *grid.Node, t *grid.TaskInstance, cands []Candidate, idx int, rpm, ms float64) bool {
	c := &cands[idx]
	t.EstExecAtDispatch = t.Task().Load / c.CapacityMIPS
	if !g.Dispatch(t, c.Node, rpm, ms) {
		return false
	}
	c.TotalLoadMI += t.Task().Load
	if !c.IsHome {
		g.AddLoadHint(home.ID, c.Node, t.Task().Load)
	}
	return true
}

// removeCandidate drops index idx preserving order.
func removeCandidate(cands []Candidate, idx int) []Candidate {
	return append(cands[:idx], cands[idx+1:]...)
}
