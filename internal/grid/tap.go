package grid

import "repro/internal/trace"

// Event is one runtime moment as a tap sees it: a workflow's submission,
// completion or failure; a task's dispatch (phase 1), last input landing,
// start and end (phase 2), failure or hand-back; a node leaving or
// rejoining; or a constrained scheduler's phase-1 candidate count.
type Event struct {
	Kind trace.Kind
	Time float64 // virtual seconds
	Node int     // the node involved, -1 when none
	// WF is the workflow the event concerns; for a task event it is the
	// task's own workflow. Both pointers are nil for node events.
	WF   *WorkflowInstance
	Task *TaskInstance
	// Candidates is the candidate count of a KindCandidates event.
	Candidates int
}

// Tap receives every runtime event of a grid, in the engine's event order.
// A tap only observes: it must not change the grid or the instances it is
// handed, so a run yields the same results with any tap or none.
type Tap interface {
	Event(g *Grid, e Event)
}

// Taps fans each event out to several taps, in slice order.
type Taps []Tap

// Event implements Tap.
func (ts Taps) Event(g *Grid, e Event) {
	for _, t := range ts {
		t.Event(g, e)
	}
}

// TraceTap records the lifecycle events into a trace ring, naming each
// event's workflow and task. Candidate counts belong to no task's life
// and are not recorded.
type TraceTap struct{ Buf *trace.Buffer }

// Event implements Tap.
func (t TraceTap) Event(_ *Grid, e Event) {
	if e.Kind == trace.KindCandidates {
		return
	}
	r := trace.Event{Time: e.Time, Kind: e.Kind, Node: e.Node}
	if e.WF != nil {
		r.Workflow = e.WF.W.Name
	}
	if e.Task != nil {
		r.Task = e.Task.Task().Name
	}
	t.Buf.Record(r)
}

// emit reports one event to the tap. Every lifecycle event passes through
// here, so a grid without a tap pays one nil check per event.
func (g *Grid) emit(kind trace.Kind, node int, wf *WorkflowInstance, t *TaskInstance) {
	if g.Cfg.Tap == nil {
		return
	}
	if t != nil {
		wf = t.WF
	}
	g.Cfg.Tap.Event(g, Event{Kind: kind, Time: g.Engine.Now(), Node: node, WF: wf, Task: t})
}

// ObservePhase1Candidates reports a constrained scheduler's candidate-set
// size for one scheduling decision, like emit at the cost of one nil check
// without a tap. Exported because the DBC schedulers live in internal/core.
func (g *Grid) ObservePhase1Candidates(n int) {
	if g.Cfg.Tap == nil {
		return
	}
	g.Cfg.Tap.Event(g, Event{Kind: trace.KindCandidates, Time: g.Engine.Now(), Node: -1, Candidates: n})
}
