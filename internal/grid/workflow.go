package grid

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/trace"
)

// TaskState is the lifecycle of one task instance.
type TaskState int

// Task lifecycle: Blocked (some precedent unfinished) -> SchedulePoint (all
// precedents done, awaiting first-phase scheduling) -> Dispatched (placed on
// a resource node, inputs in flight) -> Ready (all inputs arrived, eligible
// for the CPU) -> Running -> Done. Failed is terminal unless the
// rescheduling extension reverts the task to SchedulePoint.
const (
	TaskBlocked TaskState = iota
	TaskSchedulePoint
	TaskDispatched
	TaskReady
	TaskRunning
	TaskDone
	TaskFailed
)

func (s TaskState) String() string {
	switch s {
	case TaskBlocked:
		return "blocked"
	case TaskSchedulePoint:
		return "schedule-point"
	case TaskDispatched:
		return "dispatched"
	case TaskReady:
		return "ready"
	case TaskRunning:
		return "running"
	case TaskDone:
		return "done"
	case TaskFailed:
		return "failed"
	default:
		return fmt.Sprintf("TaskState(%d)", int(s))
	}
}

// WorkflowState is the lifecycle of a submitted workflow.
type WorkflowState int

const (
	WorkflowActive WorkflowState = iota
	WorkflowCompleted
	WorkflowFailed
)

func (s WorkflowState) String() string {
	switch s {
	case WorkflowActive:
		return "active"
	case WorkflowCompleted:
		return "completed"
	case WorkflowFailed:
		return "failed"
	default:
		return fmt.Sprintf("WorkflowState(%d)", int(s))
	}
}

// TaskInstance is the runtime state of one workflow task.
type TaskInstance struct {
	WF    *WorkflowInstance
	ID    dag.TaskID
	State TaskState

	// Node is the resource node the task was dispatched to (and, once done,
	// the node holding its output data). -1 before dispatch. NodeInc records
	// the node's incarnation at completion: output data survives only while
	// the same incarnation is alive (plus the durable home copy under the
	// graceful churn model).
	Node    int
	NodeInc int

	// Values carried with the task at dispatch time ("the task will be
	// migrated to the node together with its rest path makespan and its
	// workflow's makespan"), consumed by second-phase policies.
	RPMAtDispatch       float64
	MsAtDispatch        float64
	SufferageAtDispatch float64
	EstExecAtDispatch   float64 // et(tau, p_r) estimated by phase 1

	DispatchSeq  int     // global dispatch order, FCFS tie-break
	DispatchedAt float64 // when phase 1 placed the task
	ReadyAt      float64 // when the last input arrived
	StartedAt    float64
	FinishedAt   float64

	predsDone     int
	pendingInputs int
	gen           int // generation guard: stale events no-op after failure
	reschedules   int // times this task was reverted by the extension

	// costCommitted is the money reserved for this dispatch (load × the
	// target node's per-MI rate), settled into workflow spend on completion
	// or released on failure/hand-back. 0 while pricing is off or the task
	// is undispatched. Mutated only in economy.go.
	costCommitted float64
}

// Task returns the static DAG task.
func (t *TaskInstance) Task() dag.Task { return t.WF.W.Task(t.ID) }

// WorkflowInstance is a submitted workflow plus its runtime bookkeeping.
type WorkflowInstance struct {
	Seq         int // global submission index
	W           *dag.Workflow
	Home        int
	SubmittedAt float64

	// EFT is eft(f) of Eq. 1: the critical-path expected finish time priced
	// with the true system averages at submission, the efficiency baseline.
	EFT float64

	Tasks       []*TaskInstance
	State       WorkflowState
	CompletedAt float64

	// SLA is the workflow's resolved deadline/budget contract (zero for
	// best-effort traffic). Spend is the money settled for completed task
	// executions, Committed the money reserved for in-flight dispatches;
	// DeadlineMissed is stamped at workflow completion.
	SLA            SLA
	Spend          float64
	Committed      float64
	DeadlineMissed bool

	doneCount int

	// PlannedNodes holds the full-ahead assignment (task -> node) for
	// planner algorithms; nil under just-in-time scheduling.
	PlannedNodes map[int]int
}

// CompletionTime returns ct(f), the response time from submission to exit
// completion. Valid only for completed workflows.
func (wf *WorkflowInstance) CompletionTime() float64 {
	return wf.CompletedAt - wf.SubmittedAt
}

// Efficiency returns e(f) = eft(f)/ct(f) of Eq. 1.
func (wf *WorkflowInstance) Efficiency() float64 {
	ct := wf.CompletionTime()
	if ct <= 0 {
		return 0
	}
	return wf.EFT / ct
}

// Submit registers a workflow at its home node at the current simulated
// time. Virtual entry tasks complete instantly; real entry tasks become
// schedule points awaiting the next scheduling cycle (just-in-time) or are
// dispatched immediately along the full-ahead plan.
func (g *Grid) Submit(home int, w *dag.Workflow) (*WorkflowInstance, error) {
	if home < 0 || home >= len(g.Nodes) {
		return nil, fmt.Errorf("grid: home node %d out of range", home)
	}
	if !g.Nodes[home].Alive {
		return nil, fmt.Errorf("grid: home node %d is not alive", home)
	}
	now := g.Engine.Now()
	g.rpmBuf = dag.RPMInto(w, dag.Estimates{AvgCapacityMIPS: g.trueAvgCap, AvgBandwidthMbs: g.trueAvgBW}, g.rpmBuf)
	wf := &WorkflowInstance{
		Seq:         len(g.Workflows),
		W:           w,
		Home:        home,
		SubmittedAt: now,
		EFT:         g.rpmBuf[w.Entry()], // eft(f) = RPM(entry), see dag.ExpectedFinishTime
		State:       WorkflowActive,
	}
	// One slab holds every task instance of the workflow.
	slab := make([]TaskInstance, w.Len())
	wf.Tasks = make([]*TaskInstance, w.Len())
	for i := range slab {
		slab[i] = TaskInstance{WF: wf, ID: dag.TaskID(i), State: TaskBlocked, Node: -1}
		wf.Tasks[i] = &slab[i]
	}
	g.Workflows = append(g.Workflows, wf)
	g.Nodes[home].Homed = append(g.Nodes[home].Homed, wf)
	if g.slaAssign != nil {
		g.SetWorkflowSLA(wf, g.slaAssign(wf))
	}
	g.emit(trace.KindSubmit, home, wf, nil)

	if g.algo.Planner != nil {
		if !g.started {
			// Planned in one central batch at Start.
			g.pendingPlan = append(g.pendingPlan, wf)
			return wf, nil
		}
		g.algo.Planner.PlanAll(g, []*WorkflowInstance{wf})
	}
	g.activate(wf.Tasks[w.Entry()], now)
	return wf, nil
}

// activate moves a task whose precedents are all done into the scheduling
// pipeline: virtual tasks complete on the spot at the home node, planned
// (full-ahead) tasks dispatch immediately, and just-in-time tasks wait as
// schedule points for the next first-phase round.
func (g *Grid) activate(t *TaskInstance, now float64) {
	if t.State != TaskBlocked {
		return
	}
	if t.Task().Virtual {
		g.completeLocally(t, now)
		return
	}
	t.State = TaskSchedulePoint
	if t.WF.PlannedNodes != nil {
		target, ok := t.WF.PlannedNodes[int(t.ID)]
		if !ok {
			g.failTask(t, now)
			return
		}
		avgCap, avgBW := g.Averages(t.WF.Home)
		est := dag.Estimates{AvgCapacityMIPS: avgCap, AvgBandwidthMbs: avgBW}
		g.rpmBuf = dag.RPMInto(t.WF.W, est, g.rpmBuf)
		if !g.Dispatch(t, target, g.rpmBuf[t.ID], g.rpmBuf[t.WF.W.Entry()]) {
			// The full-ahead plan is static: a vanished planned node is
			// fatal for the workflow.
			g.failTask(t, now)
		}
	}
}

// SubmitAt schedules a workflow submission at absolute simulated time at
// (clamped to now by the engine): the timed-arrival counterpart of Submit.
// The workflow enters the system only when the event fires — under
// just-in-time algorithms its entry becomes a schedule point for the next
// scheduling cycle, under full-ahead planners it is planned on arrival
// (the "workflows submitted after Start" path). If the home node has
// churned away by the arrival instant the submission is dropped and
// counted in DroppedSubmissions, mirroring a user whose access point left
// the grid.
func (g *Grid) SubmitAt(at float64, home int, w *dag.Workflow) {
	g.Engine.At(at, func(now float64) {
		g.arrive(home, w)
	})
}

// arrive is the shared body of a timed submission firing: drop it if the
// home has churned away, submit it otherwise.
func (g *Grid) arrive(home int, w *dag.Workflow) {
	if home < 0 || home >= len(g.Nodes) || !g.Nodes[home].Alive {
		g.DroppedSubmissions++
		return
	}
	// Submit errors only for dead/out-of-range homes, checked above.
	if _, err := g.Submit(home, w); err != nil {
		panic(fmt.Sprintf("grid: timed submission: %v", err))
	}
}

// SubmitStream schedules a sequence of timed submissions from a sorted
// iterator while keeping at most ONE outstanding submission event in the
// engine, however long the schedule is. SubmitAt costs one pending engine
// event per future arrival, which makes a large trace replay carry its
// whole tail as queued events from t=0; SubmitStream instead submits every
// arrival at the current instant and then schedules a single event for the
// next distinct arrival time, pulling from the iterator as simulated time
// advances.
//
// next must yield submissions in non-decreasing SubmitAt order (the
// workload generator and the trace parser both guarantee it) and returns
// ok=false when exhausted; SubmitStream panics on a time regression, since
// silently reordering arrivals would corrupt the replay. Arrivals that
// share an instant are submitted back to back in iterator order, exactly
// as the equivalent SubmitAt calls would fire.
func (g *Grid) SubmitStream(next func() (at float64, home int, w *dag.Workflow, ok bool)) {
	at, home, w, ok := next()
	if !ok {
		return
	}
	var fire func(now float64)
	fire = func(now float64) {
		g.arrive(home, w)
		last := at
		for {
			nat, nhome, nw, nok := next()
			if !nok {
				return
			}
			if nat < last {
				panic(fmt.Sprintf("grid: SubmitStream times regress (%v after %v)", nat, last))
			}
			if nat <= now {
				// Same instant (after clamping): submit in iterator order
				// now, behind the arrival that opened this event.
				g.arrive(nhome, nw)
				last = nat
				continue
			}
			at, home, w = nat, nhome, nw
			g.Engine.At(at, fire)
			return
		}
	}
	g.Engine.At(at, fire)
}

// completeLocally finishes a zero-cost virtual task at the home node and
// propagates readiness to its successors.
func (g *Grid) completeLocally(t *TaskInstance, now float64) {
	t.State = TaskDone
	t.Node = t.WF.Home
	t.NodeInc = g.Nodes[t.WF.Home].Incarnation
	t.FinishedAt = now
	g.onTaskDone(t, now)
}
