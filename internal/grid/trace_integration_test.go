package grid

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

func TestTracerReceivesLifecycleEvents(t *testing.T) {
	engine := sim.NewEngine()
	buf := trace.NewBuffer(4096)
	g, err := New(engine, Config{Nodes: 5, Seed: 91, Tap: TraceTap{Buf: buf}}, testAlgo())
	if err != nil {
		t.Fatal(err)
	}
	wf, err := g.Submit(0, diamondWorkflow(t))
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	engine.RunUntil(36 * 3600)
	if wf.State != WorkflowCompleted {
		t.Fatalf("workflow state %v", wf.State)
	}
	counts := buf.CountByKind()
	if counts[trace.KindSubmit] != 1 {
		t.Errorf("submit events %d, want 1", counts[trace.KindSubmit])
	}
	if counts[trace.KindDispatch] != 4 {
		t.Errorf("dispatch events %d, want 4 (diamond has 4 real tasks)", counts[trace.KindDispatch])
	}
	if counts[trace.KindExecStart] != 4 || counts[trace.KindExecEnd] != 4 {
		t.Errorf("exec events %d/%d, want 4/4", counts[trace.KindExecStart], counts[trace.KindExecEnd])
	}
	if counts[trace.KindWorkflowDone] != 1 {
		t.Errorf("workflow-done events %d, want 1", counts[trace.KindWorkflowDone])
	}
	// Exec starts and ends pair up per task and the gantt renders lanes.
	g1 := buf.Gantt(0, engine.Now(), 40)
	if g1 == "" {
		t.Fatal("gantt empty despite executions")
	}
}

func TestTracerObservesChurnEvents(t *testing.T) {
	engine := sim.NewEngine()
	buf := trace.NewBuffer(1 << 14)
	g, err := New(engine, Config{Nodes: 20, Seed: 93, Tap: TraceTap{Buf: buf}}, testAlgo())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.StartChurn(ChurnConfig{DynamicFactor: 0.2, StableCount: 10, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	g.Start()
	engine.RunUntil(10 * 900)
	counts := buf.CountByKind()
	if counts[trace.KindNodeDown] == 0 {
		t.Fatal("no node-down events under churn")
	}
	if counts[trace.KindNodeUp] == 0 {
		t.Fatal("no node-up events under churn")
	}
}

func TestTracingDisabledByDefault(t *testing.T) {
	engine, g := newTestGrid(t, 4, 95)
	if _, err := g.Submit(0, diamondWorkflow(t)); err != nil {
		t.Fatal(err)
	}
	g.Start()
	engine.RunUntil(36 * 3600) // must simply not panic with a nil tap
}
