package grid

import (
	"testing"
)

// TestActiveWorkflows checks the home-scoped active view: submission
// order, exclusion of failed/completed workflows, and home isolation.
func TestActiveWorkflows(t *testing.T) {
	_, g := newTestGrid(t, 4, 3)
	wf0, err := g.Submit(0, chainWorkflow(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	wf1, err := g.Submit(0, chainWorkflow(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	other, err := g.Submit(1, chainWorkflow(t, 2))
	if err != nil {
		t.Fatal(err)
	}

	got := g.ActiveWorkflows(0)
	if len(got) != 2 || got[0] != wf0 || got[1] != wf1 {
		t.Fatalf("home 0 active = %v, want [wf0 wf1] in submission order", got)
	}
	if got := g.ActiveWorkflows(1); len(got) != 1 || got[0] != other {
		t.Fatalf("home 1 active = %v, want [other]", got)
	}
	if got := g.ActiveWorkflows(2); len(got) != 0 {
		t.Fatalf("home 2 active = %v, want empty", got)
	}

	g.failWorkflow(wf0)
	if got := g.ActiveWorkflows(0); len(got) != 1 || got[0] != wf1 {
		t.Fatalf("after failure active = %v, want [wf1]", got)
	}
}

// TestSchedulePoints checks spset(f): only the entry chain's first real
// task is dispatchable right after submission (the virtual entry completes
// on the spot), and dispatching removes it from the set.
func TestSchedulePoints(t *testing.T) {
	engine, g := newTestGrid(t, 4, 5)
	wf, err := g.Submit(0, diamondWorkflow(t))
	if err != nil {
		t.Fatal(err)
	}
	sps := g.SchedulePoints(wf)
	if len(sps) != 1 {
		t.Fatalf("got %d schedule points after submit, want 1 (the entry task)", len(sps))
	}
	first := sps[0]
	if first.State != TaskSchedulePoint {
		t.Fatalf("schedule point in state %v", first.State)
	}

	if !g.Dispatch(first, 1, 1, 1) {
		t.Fatal("dispatch refused")
	}
	if got := g.SchedulePoints(wf); len(got) != 0 {
		t.Fatalf("%d schedule points after dispatch, want 0", len(got))
	}
	_ = engine
}

// TestAddLoadHintUpdatesGossipRecord checks Algorithm 1 line 15: the hint
// raises the advertised load in the scheduler's own RSS copy only when a
// record for the target exists, and leaves other nodes' views untouched.
func TestAddLoadHintUpdatesGossipRecord(t *testing.T) {
	engine, g := newTestGrid(t, 6, 9)
	g.Gossip.Start(0)
	engine.RunUntil(1200) // a few cycles so RSSes populate

	scheduler := 0
	rss := g.Gossip.AppendRSS(scheduler, nil)
	if len(rss) == 0 {
		t.Fatal("gossip produced an empty RSS; cannot exercise the hint")
	}
	target := rss[0].Node
	before := rss[0].TotalLoadMI

	g.AddLoadHint(scheduler, target, 500)
	after := g.Gossip.AppendRSS(scheduler, nil)
	if after[0].Node != target || after[0].TotalLoadMI != before+500 {
		t.Fatalf("hint not applied: record %+v, want load %v", after[0], before+500)
	}

	// A hint about an unknown target must be a no-op, not an insertion.
	sizeBefore := len(g.Gossip.AppendRSS(scheduler, nil))
	g.AddLoadHint(scheduler, scheduler, 500) // own id never sits in the RSS
	if got := len(g.Gossip.AppendRSS(scheduler, nil)); got != sizeBefore {
		t.Fatalf("hint inserted a record: RSS grew %d -> %d", sizeBefore, got)
	}
}

// TestCompletedWorkflows drives one workflow to completion and checks the
// completed view plus the task-level counters exposed for tests.
func TestCompletedWorkflows(t *testing.T) {
	engine, g := newTestGrid(t, 5, 11)
	wf, err := g.Submit(0, chainWorkflow(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	if got := g.CompletedWorkflows(); len(got) != 0 {
		t.Fatalf("completed before run: %v", got)
	}
	g.Start()
	engine.RunUntil(48 * 3600)

	if wf.State != WorkflowCompleted {
		t.Fatalf("workflow state %v, want completed", wf.State)
	}
	got := g.CompletedWorkflows()
	if len(got) != 1 || got[0] != wf {
		t.Fatalf("completed = %v, want [wf]", got)
	}
	// 3 real tasks + virtual entry/exit normalization tasks.
	if wf.DoneTaskCount() != wf.W.Len() {
		t.Fatalf("done tasks %d, want %d", wf.DoneTaskCount(), wf.W.Len())
	}
	for _, task := range wf.Tasks {
		if task.PendingInputs() != 0 {
			t.Fatalf("task %d still has %d pending inputs", task.ID, task.PendingInputs())
		}
		if want := len(wf.W.Predecessors(task.ID)); task.PredsDone() != want {
			t.Fatalf("task %d predsDone %d, want %d", task.ID, task.PredsDone(), want)
		}
	}
}
