package grid

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// TestObserveHooksZeroAllocWhenDisabled pins the zero-cost contract: with
// no tap configured, every report on the hot path, each event kind and
// the candidate count, is a nil check and nothing else. A regression here
// would tax every batch run and sweep replication for a feature they did
// not enable.
func TestObserveHooksZeroAllocWhenDisabled(t *testing.T) {
	g := &Grid{} // Cfg.Tap == nil
	wf := &WorkflowInstance{}
	task := &TaskInstance{WF: wf}
	allocs := testing.AllocsPerRun(1000, func() {
		for k := trace.KindSubmit; k < trace.KindCandidates; k++ {
			g.emit(k, 0, wf, task)
		}
		g.ObservePhase1Candidates(5)
	})
	if allocs != 0 {
		t.Fatalf("reports without a tap allocate %v times per batch, want 0", allocs)
	}
}

// tapFunc adapts a function to Tap.
type tapFunc func(g *Grid, e Event)

func (f tapFunc) Event(g *Grid, e Event) { f(g, e) }

// TestTapsFanOutToTraceRing runs a workflow with two taps: Taps hands each
// event to both in order, a task event carries the task's own workflow,
// and TraceTap's ring holds exactly the lifecycle events, named, while the
// candidate count reaches only the other tap.
func TestTapsFanOutToTraceRing(t *testing.T) {
	engine := sim.NewEngine()
	buf := trace.NewBuffer(1024)
	var seen []Event
	var order []int
	first := tapFunc(func(*Grid, Event) { order = append(order, 1) })
	last := tapFunc(func(_ *Grid, e Event) { order = append(order, 2); seen = append(seen, e) })
	g, err := New(engine, Config{Nodes: 5, Seed: 91, Tap: Taps{first, TraceTap{Buf: buf}, last}}, testAlgo())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Submit(0, diamondWorkflow(t)); err != nil {
		t.Fatal(err)
	}
	g.Start()
	engine.RunUntil(36 * 3600)
	g.ObservePhase1Candidates(3)

	lifecycle := seen[:len(seen)-1]
	if c := seen[len(seen)-1]; c.Kind != trace.KindCandidates || c.Candidates != 3 || c.Node != -1 {
		t.Fatalf("candidate event %+v", c)
	}
	for i := 0; i < len(order); i += 2 {
		if order[i] != 1 || order[i+1] != 2 {
			t.Fatalf("taps called out of order: %v", order)
		}
	}
	ring := buf.Events()
	if len(ring) != len(lifecycle) || buf.Dropped != 0 {
		t.Fatalf("ring holds %d events (%d dropped), the tap saw %d lifecycle events", len(ring), buf.Dropped, len(lifecycle))
	}
	for i, e := range lifecycle {
		if e.Task != nil && e.WF != e.Task.WF {
			t.Fatalf("event %d: task event carries another workflow", i)
		}
		want := trace.Event{Time: e.Time, Kind: e.Kind, Node: e.Node}
		if e.WF != nil {
			want.Workflow = e.WF.W.Name
		}
		if e.Task != nil {
			want.Task = e.Task.Task().Name
		}
		if ring[i] != want {
			t.Fatalf("ring event %d is %+v, want %+v", i, ring[i], want)
		}
	}
}
