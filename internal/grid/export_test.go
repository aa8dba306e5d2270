package grid

import "math"

// Queries only the tests read.

// CompletedWorkflows returns every workflow that has finished, in
// submission order.
func (g *Grid) CompletedWorkflows() []*WorkflowInstance {
	var out []*WorkflowInstance
	for _, wf := range g.Workflows {
		if wf.State == WorkflowCompleted {
			out = append(out, wf)
		}
	}
	return out
}

// DoneTaskCount reports the number of completed tasks of a workflow
// (virtual tasks included).
func (wf *WorkflowInstance) DoneTaskCount() int { return wf.doneCount }

// PredsDone exposes the activation counter.
func (t *TaskInstance) PredsDone() int { return t.predsDone }

// PendingInputs exposes the in-flight transfer count.
func (t *TaskInstance) PendingInputs() int { return t.pendingInputs }

// AliveCount returns the number of alive nodes.
func (g *Grid) AliveCount() int {
	n := 0
	for i := range g.Nodes {
		if g.Nodes[i].Alive {
			n++
		}
	}
	return n
}

// QueueDelay returns R(tau, p_h) = l_h / c_h, the conservative queuing-delay
// estimate of Eq. 5, computed from an advertised state record.
func QueueDelay(totalLoadMI, capacityMIPS float64) float64 {
	if capacityMIPS <= 0 {
		return math.Inf(1)
	}
	return totalLoadMI / capacityMIPS
}
