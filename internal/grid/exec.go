package grid

import (
	"fmt"

	"repro/internal/trace"
)

// Dispatch places schedule-point task t on resource node to, carrying its
// rest path makespan and workflow makespan for the second-phase policy
// (Algorithm 1 line 14). The task joins the node's ready set immediately
// (raising its advertised total load l_r) while its task image streams from
// the home node and each precedent's output streams from the node that
// computed it. All transfers proceed concurrently; the slowest one gates
// readiness (Eq. 4's longest transmission delay).
//
// Dispatch reports false when the target vanished between gossip and
// dispatch (a stale RSS record): the migration is refused, the task stays a
// schedule point, and the scheduler should retry another candidate.
func (g *Grid) Dispatch(t *TaskInstance, to int, rpm, ms float64) bool {
	if t.State != TaskSchedulePoint {
		panic(fmt.Sprintf("grid: dispatching task in state %v", t.State))
	}
	if to < 0 || to >= len(g.Nodes) || !g.Nodes[to].Alive {
		return false
	}
	now := g.Engine.Now()
	node := &g.Nodes[to]
	task := t.Task()

	t.setState(TaskDispatched)
	t.Node = to
	t.RPMAtDispatch = rpm
	t.MsAtDispatch = ms
	t.DispatchedAt = now
	t.DispatchSeq = g.dispatchSeq
	g.dispatchSeq++
	g.DispatchCount++
	node.ReadySet = append(node.ReadySet, t)
	node.TotalLoadMI += task.Load
	g.commitCost(t, to)
	g.emit(trace.KindDispatch, to, nil, t)

	gen := t.gen
	t.pendingInputs = 0
	// Task image ships from the home node.
	t.pendingInputs++
	g.startInputTransfer(t, t.WF.Home, task.ImageMb, gen, false)
	// Dependent data ships from each precedent's executing node; if that
	// node has since departed (graceful model), the durable copy at the
	// home node serves the data instead.
	for _, e := range t.WF.W.Predecessors(t.ID) {
		pred := t.WF.Tasks[e.From]
		src := pred.Node
		if src < 0 {
			panic(fmt.Sprintf("grid: precedent %d of dispatched task has no exec node", e.From))
		}
		fallback := false
		if !g.Cfg.HarshChurn && !g.sourceHolds(src, pred.NodeInc) {
			src = t.WF.Home
		} else if !g.Cfg.HarshChurn {
			fallback = true // source alive now; home copy remains plan B
		}
		t.pendingInputs++
		g.startInputTransfer(t, src, e.DataMb, gen, fallback)
	}
	return true
}

// sourceHolds reports whether node src still holds data produced during
// incarnation inc.
func (g *Grid) sourceHolds(src, inc int) bool {
	return src >= 0 && g.Nodes[src].Alive && g.Nodes[src].Incarnation == inc
}

// startInputTransfer launches one input stream for dispatched task t.
// allowFallback retries once from the home node's durable copy if the
// source departs mid-transfer (graceful churn model only).
func (g *Grid) startInputTransfer(t *TaskInstance, src int, sizeMb float64, gen int, allowFallback bool) {
	srcInc := g.Nodes[src].Incarnation
	dur := g.Net.TransferTime(src, t.Node, sizeMb)
	g.Engine.After(dur, func(at float64) {
		if t.gen != gen || t.State != TaskDispatched {
			return // stale event: the task failed or was reverted meanwhile
		}
		if !g.sourceHolds(src, srcInc) {
			// The data vanished with the source node mid-transfer.
			if allowFallback && g.Nodes[t.WF.Home].Alive {
				g.startInputTransfer(t, t.WF.Home, sizeMb, gen, false)
				return
			}
			g.failTask(t, at)
			return
		}
		t.pendingInputs--
		if t.pendingInputs > 0 {
			return
		}
		t.setState(TaskReady)
		t.ReadyAt = at
		node := &g.Nodes[t.Node]
		node.ready = append(node.ready, t)
		g.emit(trace.KindReady, t.Node, nil, t)
		g.maybeRun(node, at)
	})
}

// maybeRun gives the node's CPU to one data-complete ready task chosen by
// the second-phase policy (Algorithm 2). The candidate set is the node's
// incrementally maintained ready slice, so an idle or busy node answers in
// O(1) instead of rescanning its whole ready set.
func (g *Grid) maybeRun(node *Node, now float64) {
	if !node.Alive || node.Running != nil || len(node.ready) == 0 {
		return
	}
	t := g.algo.Phase2.Pick(node.ready)
	if t == nil || t.State != TaskReady || t.Node != node.ID {
		panic(fmt.Sprintf("grid: phase-2 policy %q returned invalid task", g.algo.Phase2.Name()))
	}
	node.removeFromReady(t)
	t.setState(TaskRunning)
	t.StartedAt = now
	node.Running = t
	g.emit(trace.KindExecStart, node.ID, nil, t)
	gen := t.gen
	dur := t.Task().Load / node.Capacity
	g.Engine.After(dur, func(at float64) { g.taskFinished(t, gen, at) })
}

// taskFinished completes a running task, releases the CPU, activates
// successors at the home node, and immediately schedules the next ready
// task (the just-in-time second phase reacts to completions, not timers).
func (g *Grid) taskFinished(t *TaskInstance, gen int, now float64) {
	if t.gen != gen || t.State != TaskRunning {
		return // stale: node died mid-run
	}
	node := &g.Nodes[t.Node]
	node.Running = nil
	node.TotalLoadMI -= t.Task().Load
	node.removeFromReadySet(t)
	if len(node.ReadySet) == 0 {
		// Float-drift cleanup: with no dispatched work left the advertised
		// load is zero by definition. A non-empty ready set keeps its true
		// residual, however tiny - clamping it would misprice real load.
		node.TotalLoadMI = 0
	}
	t.setState(TaskDone)
	t.NodeInc = node.Incarnation
	t.FinishedAt = now
	g.emit(trace.KindExecEnd, node.ID, nil, t)
	g.onTaskDone(t, now)
	g.maybeRun(node, now)
}

// onTaskDone propagates a completion: successors whose precedents are now
// all finished activate, and the exit task's completion closes the
// workflow.
func (g *Grid) onTaskDone(t *TaskInstance, now float64) {
	wf := t.WF
	wf.doneCount++
	// Settlement precedes the liveness check: completed work is paid for
	// even when its workflow already failed, so Committed always drains.
	g.settleCost(t)
	if wf.State != WorkflowActive {
		return // late completion of a task whose workflow already failed
	}
	if t.ID == wf.W.Exit() {
		wf.State = WorkflowCompleted
		wf.CompletedAt = now
		if wf.SLA.Deadline > 0 && now > wf.SLA.Deadline {
			wf.DeadlineMissed = true
		}
		g.CompletedCount++
		g.emit(trace.KindWorkflowDone, -1, wf, nil)
		return
	}
	for _, e := range wf.W.Successors(t.ID) {
		succ := wf.Tasks[e.To]
		succ.predsDone++
		if succ.predsDone == len(wf.W.Predecessors(e.To)) {
			g.activate(succ, now)
		}
	}
}

// removeTask deletes t from s preserving order (dispatch order is the FCFS
// key, so order matters).
func removeTask(s []*TaskInstance, t *TaskInstance) []*TaskInstance {
	for i, x := range s {
		if x == t {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

func (n *Node) removeFromReadySet(t *TaskInstance) { n.ReadySet = removeTask(n.ReadySet, t) }

// removeFromReady deletes t from the data-complete ready slice.
func (n *Node) removeFromReady(t *TaskInstance) { n.ready = removeTask(n.ready, t) }
