package grid

// This file collects the read-only views first-phase schedulers, second-
// phase policies, planners, and the metrics collector consume.

// ActiveWorkflows returns the still-active workflows homed at node, in
// submission order.
func (g *Grid) ActiveWorkflows(home int) []*WorkflowInstance {
	var out []*WorkflowInstance
	for _, wf := range g.Nodes[home].Homed {
		if wf.State == WorkflowActive {
			out = append(out, wf)
		}
	}
	return out
}

// SchedulePoints returns wf's current schedule-point set spset(f): tasks
// whose precedents are all finished but which have not been dispatched yet,
// in task-id order.
func (g *Grid) SchedulePoints(wf *WorkflowInstance) []*TaskInstance {
	var out []*TaskInstance
	for _, t := range wf.Tasks {
		if t.State == TaskSchedulePoint {
			out = append(out, t)
		}
	}
	return out
}

// AddLoadHint updates the scheduler's local gossip record of target after
// dispatching deltaMI of work to it (Algorithm 1 line 15).
func (g *Grid) AddLoadHint(scheduler, target int, deltaMI float64) {
	g.Gossip.AddLoadHint(scheduler, target, deltaMI)
}

// ReadyCount reports how many of node's dispatched tasks are data-complete
// (state TaskReady), i.e. eligible for the CPU right now.
func (g *Grid) ReadyCount(node int) int { return len(g.Nodes[node].ready) }

// PeekNext previews the task node's second-phase policy would start next:
// exactly what maybeRun will pick when the CPU frees up. Returns nil when
// nothing is ready. Read-only — Pick implementations order candidates
// without mutating them — so external observers (the service API's
// next-task endpoint) can poll it without perturbing the run.
func (g *Grid) PeekNext(node int) *TaskInstance {
	nd := &g.Nodes[node]
	if len(nd.ready) == 0 {
		return nil
	}
	return g.algo.Phase2.Pick(nd.ready)
}
