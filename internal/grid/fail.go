package grid

import "repro/internal/trace"

// failTask marks a task as failed, detaches it from its resource node, and
// either fails the whole workflow (the paper's base behaviour: "failed
// tasks ... will be left to our future work") or, under the rescheduling
// extension, reverts it to a schedule point for re-dispatch. Bumping the
// generation turns the task's in-flight events stale.
func (g *Grid) failTask(t *TaskInstance, now float64) {
	if t.Node >= 0 {
		switch t.State {
		case TaskDispatched, TaskReady, TaskRunning:
			node := &g.Nodes[t.Node]
			node.removeFromReadySet(t)
			if t.State == TaskReady {
				node.removeFromReady(t)
			}
			if node.Running == t {
				node.Running = nil
			}
			node.TotalLoadMI -= t.Task().Load
			if len(node.ReadySet) == 0 {
				// Drift cleanup only: residual load of a non-empty ready
				// set is real and must stay advertised (see taskFinished).
				node.TotalLoadMI = 0
			}
		}
	}
	t.gen++
	t.State = TaskFailed
	t.Node = -1
	t.pendingInputs = 0

	g.releaseCost(t)
	g.FailedTasks++
	g.emit(trace.KindTaskFailed, -1, nil, t)
	if t.WF.State != WorkflowActive {
		return
	}
	if g.Cfg.RescheduleFailed && g.Nodes[t.WF.Home].Alive &&
		(g.Cfg.MaxReschedules == 0 || t.reschedules < g.Cfg.MaxReschedules) {
		t.reschedules++
		g.Rescheduled++
		g.revertTask(t)
		return
	}
	g.failWorkflow(t.WF)
}

// failWorkflow terminally fails a workflow. Its tasks already running on
// other nodes are left to finish (a fully decentralized system has no
// global cancel); their completions become no-ops.
func (g *Grid) failWorkflow(wf *WorkflowInstance) {
	if wf.State != WorkflowActive {
		return
	}
	wf.State = WorkflowFailed
	g.FailedCount++
	g.emit(trace.KindWorkflowFailed, -1, wf, nil)
}

// revertTask makes a failed task schedulable again. Under the harsh churn
// model, any precedent whose output data died with its node must itself
// re-run, recursively; under the graceful model the home node's durable
// copy keeps every completed precedent usable, so no cascade is needed.
func (g *Grid) revertTask(t *TaskInstance) {
	t.gen++
	t.Node = -1
	t.pendingInputs = 0
	preds := t.WF.W.Predecessors(t.ID)
	done := 0
	for _, e := range preds {
		p := t.WF.Tasks[e.From]
		if g.Cfg.HarshChurn && p.State == TaskDone && !g.sourceHolds(p.Node, p.NodeInc) {
			g.revertDone(p)
		}
		if p.State == TaskDone {
			done++
		}
	}
	t.predsDone = done
	if done == len(preds) {
		t.State = TaskSchedulePoint
	} else {
		t.State = TaskBlocked
	}
}

// revertDone un-completes a finished task whose output data became
// unavailable. The invariant "predsDone counts precedents currently Done"
// is maintained for every successor, so re-completion re-activates exactly
// the successors that are still waiting. Successors that were already
// schedule points must demote back to blocked: they can no longer be
// dispatched until the reverted precedent re-produces its output.
func (g *Grid) revertDone(p *TaskInstance) {
	if p.State != TaskDone {
		return
	}
	p.WF.doneCount--
	for _, e := range p.WF.W.Successors(p.ID) {
		s := p.WF.Tasks[e.To]
		s.predsDone--
		if s.State == TaskSchedulePoint {
			s.State = TaskBlocked
		}
	}
	g.revertTask(p)
}

// failNode takes a node out of the system. Under the graceful model the
// departing peer hands queued (not yet running) tasks back to their home
// nodes for re-dispatch and only the running task is lost; under the harsh
// model the whole ready set dies with it. Any workflow homed here loses its
// scheduler either way. In-flight transfers sourced here are invalidated by
// the incarnation counter.
func (g *Grid) failNode(node *Node, now float64) {
	if !node.Alive {
		return
	}
	node.Alive = false
	node.Incarnation++
	g.emit(trace.KindNodeDown, node.ID, nil, nil)
	running := node.Running
	victims := append([]*TaskInstance(nil), node.ReadySet...)
	for _, t := range victims {
		if g.Cfg.HarshChurn || t == running {
			g.failTask(t, now)
		} else {
			g.handBack(t, now)
		}
	}
	node.ReadySet = nil
	node.ready = nil
	node.Running = nil
	node.TotalLoadMI = 0
	for _, wf := range node.Homed {
		if wf.State == WorkflowActive {
			g.failWorkflow(wf)
		}
	}
	g.refreshTrueCapacity()
}

// handBack returns a queued task from a departing node to its home node as
// a schedule point (graceful-leave protocol). If the workflow is already
// dead or its home is gone, the task simply fails.
func (g *Grid) handBack(t *TaskInstance, now float64) {
	if t.WF.State != WorkflowActive || !g.Nodes[t.WF.Home].Alive {
		g.failTask(t, now)
		return
	}
	g.releaseCost(t)
	t.gen++
	t.Node = -1
	t.pendingInputs = 0
	t.State = TaskSchedulePoint // precedents were done at dispatch time
	g.HandedBack++
	g.emit(trace.KindHandBack, -1, nil, t)
}

// reviveNode brings a previously departed node back as a fresh peer with an
// empty queue (the paper's "new nodes joined").
func (g *Grid) reviveNode(node *Node, now float64) {
	if node.Alive {
		return
	}
	node.Alive = true
	node.Incarnation++
	g.emit(trace.KindNodeUp, node.ID, nil, nil)
	node.ReadySet = nil
	node.ready = nil
	node.Running = nil
	node.TotalLoadMI = 0
	g.refreshTrueCapacity()
}
