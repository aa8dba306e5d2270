package obs

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// gossipedGrid runs a small DSMF grid with one fork-join workflow for an
// hour, long enough for gossip to fill every node's resource view.
func gossipedGrid(t *testing.T) *grid.Grid {
	t.Helper()
	engine := sim.NewEngine()
	g, err := grid.New(engine, grid.Config{Nodes: 8, Seed: 5}, core.NewDSMF())
	if err != nil {
		t.Fatal(err)
	}
	w, err := dag.ForkJoin("fj", 3, 2, dag.DefaultWeights(stats.NewRand(5, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Submit(0, w); err != nil {
		t.Fatal(err)
	}
	g.Start()
	engine.RunUntil(3600)
	return g
}

// freshRecord finds a node whose state record node 0 holds, with its age.
func freshRecord(t *testing.T, g *grid.Grid) (node int, age float64) {
	t.Helper()
	for n := 1; n < len(g.Nodes); n++ {
		if age, ok := g.Gossip.RecordAge(0, n); ok {
			return n, age
		}
	}
	t.Fatal("node 0 holds no fresh record after an hour of gossip")
	return 0, 0
}

// lifecycle is one event of every kind for task, which runs on node for
// the workflow homed at node 0.
func lifecycle(task *grid.TaskInstance, node int) []grid.Event {
	wf := task.WF
	return []grid.Event{
		{Kind: trace.KindSubmit, Time: 10, Node: 0, WF: wf},
		{Kind: trace.KindDispatch, Time: 12, Node: node, WF: wf, Task: task},
		{Kind: trace.KindReady, Time: 15, Node: node, WF: wf, Task: task},
		{Kind: trace.KindExecStart, Time: 16, Node: node, WF: wf, Task: task},
		{Kind: trace.KindExecEnd, Time: 20, Node: node, WF: wf, Task: task},
		{Kind: trace.KindTaskFailed, Time: 21, Node: -1, WF: wf, Task: task},
		{Kind: trace.KindHandBack, Time: 22, Node: -1, WF: wf, Task: task},
		{Kind: trace.KindWorkflowDone, Time: 30, Node: -1, WF: wf},
		{Kind: trace.KindWorkflowFailed, Time: 31, Node: -1, WF: wf},
		{Kind: trace.KindNodeDown, Time: 40, Node: node},
		{Kind: trace.KindNodeUp, Time: 50, Node: node},
		{Kind: trace.KindCandidates, Time: 60, Node: -1, Candidates: 7},
	}
}

// TestGridMetricsTapRecords checks that the metrics tap feeds each family
// from the event that ends its span, and that every other kind passes by.
func TestGridMetricsTapRecords(t *testing.T) {
	g := gossipedGrid(t)
	node, age := freshRecord(t, g)
	m := NewGridMetrics()
	wf := &grid.WorkflowInstance{Home: 0, SubmittedAt: 10}
	task := &grid.TaskInstance{WF: wf, DispatchedAt: 12, ReadyAt: 15, StartedAt: 16}
	for _, e := range lifecycle(task, node) {
		m.Event(g, e)
	}
	checks := []struct {
		name string
		h    *Histogram
		sum  float64
	}{
		{"gossip staleness", m.GossipStaleness, age},
		{"transfer", m.TransferTime, 3},
		{"queue wait", m.QueueWait, 1},
		{"exec", m.ExecTime, 4},
		{"workflow completion", m.WorkflowCompletion, 20},
		{"phase1 candidates", m.Phase1Candidates, 7},
	}
	for _, c := range checks {
		if c.h.Count() != 1 || c.h.Sum() != c.sum {
			t.Errorf("%s: count=%d sum=%v, want 1 / %v", c.name, c.h.Count(), c.h.Sum(), c.sum)
		}
	}
}

// TestTapsAllocateNothingPerEvent pins the enabled path's cost: the
// metrics tap, the trace ring's tap and a Taps of both handle every kind
// of event without allocating.
func TestTapsAllocateNothingPerEvent(t *testing.T) {
	g := gossipedGrid(t)
	node, _ := freshRecord(t, g)
	events := lifecycle(g.Workflows[0].Tasks[1], node)
	m := NewGridMetrics()
	ring := grid.TraceTap{Buf: trace.NewBuffer(16)}
	taps := []struct {
		name string
		tap  grid.Tap
	}{
		{"metrics", m},
		{"trace ring", ring},
		{"both", grid.Taps{m, ring}},
	}
	for _, tc := range taps {
		allocs := testing.AllocsPerRun(100, func() {
			for _, e := range events {
				tc.tap.Event(g, e)
			}
		})
		if allocs != 0 {
			t.Errorf("%s tap allocates %v times per %d events, want 0", tc.name, allocs, len(events))
		}
	}
	if m.GossipStaleness.Count() == 0 || ring.Buf.Len() == 0 {
		t.Fatal("the taps observed nothing")
	}
}
