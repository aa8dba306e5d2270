package grid

import (
	"testing"

	"repro/internal/dag"
	"repro/internal/sim"
)

// greedyPhase1 dispatches every schedule point to the least-loaded alive
// node (home included) - just enough intelligence to exercise the runtime.
type greedyPhase1 struct{}

func (greedyPhase1) Name() string { return "test-greedy" }

func (greedyPhase1) Schedule(g *Grid, home *Node, now float64) {
	avgCap, avgBW := g.Averages(home.ID)
	est := dag.Estimates{AvgCapacityMIPS: avgCap, AvgBandwidthMbs: avgBW}
	for _, wf := range g.ActiveWorkflows(home.ID) {
		rpm := dag.RPM(wf.W, est)
		for _, t := range g.SchedulePoints(wf) {
			best, bestLoad := home.ID, home.TotalLoadMI
			for _, rec := range g.Gossip.AppendRSS(home.ID, nil) {
				if rec.TotalLoadMI < bestLoad {
					best, bestLoad = rec.Node, rec.TotalLoadMI
				}
			}
			g.Dispatch(t, best, rpm[t.ID], rpm[wf.W.Entry()])
			g.AddLoadHint(home.ID, best, t.Task().Load)
		}
	}
}

// fcfsPhase2 picks the earliest-ready task (dispatch order breaking ties).
type fcfsPhase2 struct{}

func (fcfsPhase2) Name() string { return "test-fcfs" }

func (fcfsPhase2) Pick(ready []*TaskInstance) *TaskInstance {
	best := ready[0]
	for _, t := range ready[1:] {
		if t.ReadyAt < best.ReadyAt ||
			(t.ReadyAt == best.ReadyAt && t.DispatchSeq < best.DispatchSeq) {
			best = t
		}
	}
	return best
}

func testAlgo() Algorithm {
	return Algorithm{Label: "test", Phase1: greedyPhase1{}, Phase2: fcfsPhase2{}}
}

func chainWorkflow(t testing.TB, n int) *dag.Workflow {
	t.Helper()
	b := dag.NewBuilder("chain")
	prev := b.AddTask("t0", 1000, 10)
	for i := 1; i < n; i++ {
		cur := b.AddTask("t", 1000, 10)
		b.AddEdge(prev, cur, 50)
		prev = cur
	}
	w, err := b.Build()
	if err != nil {
		t.Fatalf("chain build: %v", err)
	}
	return w
}

func diamondWorkflow(t testing.TB) *dag.Workflow {
	t.Helper()
	b := dag.NewBuilder("diamond")
	e := b.AddTask("entry", 500, 10)
	x := b.AddTask("x", 2000, 10)
	y := b.AddTask("y", 3000, 10)
	z := b.AddTask("exit", 500, 10)
	b.AddEdge(e, x, 100)
	b.AddEdge(e, y, 100)
	b.AddEdge(x, z, 100)
	b.AddEdge(y, z, 100)
	w, err := b.Build()
	if err != nil {
		t.Fatalf("diamond build: %v", err)
	}
	return w
}

func newTestGrid(t testing.TB, n int, seed int64) (*sim.Engine, *Grid) {
	t.Helper()
	engine := sim.NewEngine()
	g, err := New(engine, Config{Nodes: n, Seed: seed}, testAlgo())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return engine, g
}

func TestAlgorithmValidation(t *testing.T) {
	engine := sim.NewEngine()
	if _, err := New(engine, Config{Nodes: 3}, Algorithm{}); err == nil {
		t.Fatal("empty algorithm must be rejected")
	}
	if _, err := New(engine, Config{Nodes: 3}, Algorithm{Phase2: fcfsPhase2{}}); err == nil {
		t.Fatal("algorithm without phase1/planner must be rejected")
	}
	both := Algorithm{Phase1: greedyPhase1{}, Planner: trivialPlanner{}, Phase2: fcfsPhase2{}}
	if _, err := New(engine, Config{Nodes: 3}, both); err == nil {
		t.Fatal("algorithm with both phase1 and planner must be rejected")
	}
}

func TestSubmitValidation(t *testing.T) {
	_, g := newTestGrid(t, 3, 1)
	w := chainWorkflow(t, 2)
	if _, err := g.Submit(-1, w); err == nil {
		t.Fatal("negative home accepted")
	}
	if _, err := g.Submit(99, w); err == nil {
		t.Fatal("out-of-range home accepted")
	}
	g.Nodes[2].Alive = false
	if _, err := g.Submit(2, w); err == nil {
		t.Fatal("dead home accepted")
	}
}

func TestChainWorkflowCompletes(t *testing.T) {
	engine, g := newTestGrid(t, 5, 7)
	wf, err := g.Submit(0, chainWorkflow(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	engine.RunUntil(36 * 3600)
	if wf.State != WorkflowCompleted {
		t.Fatalf("workflow state %v, want completed", wf.State)
	}
	if wf.CompletionTime() <= 0 {
		t.Fatalf("completion time %v not positive", wf.CompletionTime())
	}
	if wf.DoneTaskCount() != wf.W.Len() {
		t.Fatalf("done %d tasks, want %d", wf.DoneTaskCount(), wf.W.Len())
	}
	if g.CompletedCount != 1 {
		t.Fatalf("CompletedCount = %d", g.CompletedCount)
	}
	for _, tk := range wf.Tasks {
		if tk.State != TaskDone {
			t.Fatalf("task %d in state %v after completion", tk.ID, tk.State)
		}
	}
}

func TestTasksWaitForSchedulingCycle(t *testing.T) {
	engine, g := newTestGrid(t, 4, 3)
	wf, err := g.Submit(0, chainWorkflow(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	// Just before the first scheduling cycle (900 s) nothing is dispatched.
	engine.RunUntil(899)
	entry := wf.Tasks[wf.W.Entry()]
	if entry.State != TaskSchedulePoint {
		t.Fatalf("entry state %v before first cycle, want schedule-point", entry.State)
	}
	engine.RunUntil(901)
	if entry.State == TaskSchedulePoint || entry.State == TaskBlocked {
		t.Fatalf("entry state %v after first cycle, want dispatched or beyond", entry.State)
	}
}

func TestDiamondDependencyOrder(t *testing.T) {
	engine, g := newTestGrid(t, 6, 11)
	wf, err := g.Submit(1, diamondWorkflow(t))
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	engine.RunUntil(36 * 3600)
	if wf.State != WorkflowCompleted {
		t.Fatalf("workflow state %v", wf.State)
	}
	entry, x, y, exit := wf.Tasks[0], wf.Tasks[1], wf.Tasks[2], wf.Tasks[3]
	if !(entry.FinishedAt <= x.StartedAt && entry.FinishedAt <= y.StartedAt) {
		t.Fatal("branches started before entry finished")
	}
	if !(x.FinishedAt <= exit.StartedAt && y.FinishedAt <= exit.StartedAt) {
		t.Fatal("exit started before both branches finished")
	}
	if exit.StartedAt < exit.ReadyAt {
		t.Fatal("task ran before its data arrived")
	}
}

func TestMultiEntryWorkflowVirtualTasks(t *testing.T) {
	b := dag.NewBuilder("multi")
	a := b.AddTask("a", 800, 10)
	c := b.AddTask("b", 900, 10)
	d := b.AddTask("join", 400, 10)
	b.AddEdge(a, d, 20)
	b.AddEdge(c, d, 20)
	w, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	engine, g := newTestGrid(t, 4, 13)
	wf, err := g.Submit(0, w)
	if err != nil {
		t.Fatal(err)
	}
	// The virtual entry completes instantly at submission, making both real
	// entries schedule points without waiting for anything.
	ventry := wf.Tasks[wf.W.Entry()]
	if ventry.State != TaskDone {
		t.Fatalf("virtual entry state %v at submit, want done", ventry.State)
	}
	if wf.Tasks[a].State != TaskSchedulePoint || wf.Tasks[c].State != TaskSchedulePoint {
		t.Fatal("real entries should be schedule points immediately")
	}
	g.Start()
	engine.RunUntil(36 * 3600)
	if wf.State != WorkflowCompleted {
		t.Fatalf("workflow state %v", wf.State)
	}
}

func TestLoadAccountingReturnsToZero(t *testing.T) {
	engine, g := newTestGrid(t, 5, 17)
	for i := 0; i < 5; i++ {
		if _, err := g.Submit(i, diamondWorkflow(t)); err != nil {
			t.Fatal(err)
		}
	}
	g.Start()
	engine.RunUntil(36 * 3600)
	for _, nd := range g.Nodes {
		if nd.TotalLoadMI != 0 {
			t.Fatalf("node %d still advertises load %v", nd.ID, nd.TotalLoadMI)
		}
		if len(nd.ReadySet) != 0 || nd.Running != nil {
			t.Fatalf("node %d has residual work", nd.ID)
		}
	}
	for _, wf := range g.Workflows {
		if wf.State != WorkflowCompleted {
			t.Fatalf("workflow %d state %v", wf.Seq, wf.State)
		}
	}
}

func TestCPUNeverRunsTwoTasks(t *testing.T) {
	engine, g := newTestGrid(t, 3, 19)
	for i := 0; i < 3; i++ {
		if _, err := g.Submit(i, chainWorkflow(t, 5)); err != nil {
			t.Fatal(err)
		}
	}
	g.Start()
	// Sample running intervals: no two overlapping intervals on one node.
	engine.RunUntil(36 * 3600)
	type iv struct{ s, e float64 }
	perNode := map[int][]iv{}
	for _, wf := range g.Workflows {
		for _, tk := range wf.Tasks {
			if tk.Task().Virtual {
				continue
			}
			perNode[tk.Node] = append(perNode[tk.Node], iv{tk.StartedAt, tk.FinishedAt})
		}
	}
	for node, ivs := range perNode {
		for i := 0; i < len(ivs); i++ {
			for j := i + 1; j < len(ivs); j++ {
				a, b := ivs[i], ivs[j]
				if a.s < b.e && b.s < a.e {
					t.Fatalf("node %d ran two tasks concurrently: %+v %+v", node, a, b)
				}
			}
		}
	}
}

func TestEfficiencyBaseline(t *testing.T) {
	engine, g := newTestGrid(t, 5, 23)
	wf, err := g.Submit(0, diamondWorkflow(t))
	if err != nil {
		t.Fatal(err)
	}
	if wf.EFT <= 0 {
		t.Fatalf("EFT baseline %v not positive", wf.EFT)
	}
	g.Start()
	engine.RunUntil(36 * 3600)
	if e := wf.Efficiency(); e <= 0 {
		t.Fatalf("efficiency %v not positive", e)
	}
}

func TestNodeFailureFailsWorkflow(t *testing.T) {
	engine, g := newTestGrid(t, 4, 29)
	wf, err := g.Submit(0, chainWorkflow(t, 6))
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	// Let execution begin, then kill every node except the home.
	engine.RunUntil(1200)
	engine.At(1200, func(now float64) {
		for i := 1; i < 4; i++ {
			g.failNode(&g.Nodes[i], now)
		}
	})
	engine.RunUntil(36 * 3600)
	if wf.State == WorkflowCompleted {
		// Only acceptable if every task ran on the home node.
		for _, tk := range wf.Tasks {
			if tk.Node != 0 {
				t.Fatalf("workflow completed despite losing node %d", tk.Node)
			}
		}
		return
	}
	if wf.State != WorkflowFailed {
		t.Fatalf("workflow state %v, want failed", wf.State)
	}
	if g.FailedCount != 1 {
		t.Fatalf("FailedCount = %d", g.FailedCount)
	}
}

func TestHomeFailureFailsItsWorkflows(t *testing.T) {
	engine, g := newTestGrid(t, 4, 31)
	wf, err := g.Submit(2, chainWorkflow(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	engine.At(1000, func(now float64) { g.failNode(&g.Nodes[2], now) })
	engine.RunUntil(10000)
	if wf.State != WorkflowFailed {
		t.Fatalf("workflow state %v after home death, want failed", wf.State)
	}
}

func TestReschedulingExtensionRecovers(t *testing.T) {
	engine := sim.NewEngine()
	g, err := New(engine, Config{Nodes: 4, Seed: 37, RescheduleFailed: true}, testAlgo())
	if err != nil {
		t.Fatal(err)
	}
	wf, err := g.Submit(0, chainWorkflow(t, 6))
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	// Kill nodes 1..3 mid-run; revive them shortly after. The home (node 0)
	// survives, so reverted tasks are re-dispatched and the workflow must
	// still complete.
	engine.At(1500, func(now float64) {
		for i := 1; i < 4; i++ {
			g.failNode(&g.Nodes[i], now)
		}
	})
	engine.At(1800, func(now float64) {
		for i := 1; i < 4; i++ {
			g.reviveNode(&g.Nodes[i], now)
		}
	})
	engine.RunUntil(72 * 3600)
	if wf.State != WorkflowCompleted {
		t.Fatalf("workflow state %v with rescheduling, want completed", wf.State)
	}
	if wf.DoneTaskCount() != wf.W.Len() {
		t.Fatalf("done count %d, want %d", wf.DoneTaskCount(), wf.W.Len())
	}
}

func TestChurnConfigValidation(t *testing.T) {
	_, g := newTestGrid(t, 4, 41)
	if err := g.StartChurn(ChurnConfig{DynamicFactor: -0.1}); err == nil {
		t.Fatal("negative df accepted")
	}
	if err := g.StartChurn(ChurnConfig{DynamicFactor: 1.5}); err == nil {
		t.Fatal("df > 1 accepted")
	}
	if err := g.StartChurn(ChurnConfig{DynamicFactor: 0.1, StableCount: 99}); err == nil {
		t.Fatal("stable count > n accepted")
	}
	if err := g.StartChurn(ChurnConfig{DynamicFactor: 0}); err != nil {
		t.Fatalf("df=0 should be a no-op, got %v", err)
	}
}

func TestChurnKeepsStableNodesAlive(t *testing.T) {
	engine, g := newTestGrid(t, 20, 43)
	if err := g.StartChurn(ChurnConfig{DynamicFactor: 0.2, StableCount: 10, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	g.Start()
	engine.RunUntil(20 * 900)
	for i := 0; i < 10; i++ {
		if !g.Nodes[i].Alive {
			t.Fatalf("stable node %d churned", i)
		}
	}
	// Churnable population should have both alive and dead members.
	alive, dead := 0, 0
	for i := 10; i < 20; i++ {
		if g.Nodes[i].Alive {
			alive++
		} else {
			dead++
		}
	}
	if dead == 0 {
		t.Fatal("churn never killed anyone")
	}
}

// trivialPlanner maps every task to a fixed node.
type trivialPlanner struct{ target int }

func (trivialPlanner) Name() string { return "test-planner" }

func (p trivialPlanner) PlanAll(g *Grid, wfs []*WorkflowInstance) {
	for _, wf := range wfs {
		m := make(map[int]int)
		for id := 0; id < wf.W.Len(); id++ {
			if !wf.W.Task(dag.TaskID(id)).Virtual {
				m[id] = p.target
			}
		}
		wf.PlannedNodes = m
	}
}

func TestFullAheadPlannerExecutes(t *testing.T) {
	engine := sim.NewEngine()
	algo := Algorithm{Label: "planned", Planner: trivialPlanner{target: 1}, Phase2: fcfsPhase2{}}
	g, err := New(engine, Config{Nodes: 3, Seed: 47}, algo)
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
		t.Fatalf("planned workflow state %v", wf.State)
	}
	for _, tk := range wf.Tasks {
		if !tk.Task().Virtual && tk.Node != 1 {
			t.Fatalf("task %d ran on node %d, plan said 1", tk.ID, tk.Node)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() []float64 {
		engine, g := newTestGrid(t, 8, 53)
		for i := 0; i < 8; i++ {
			if _, err := g.Submit(i, chainWorkflow(t, 4)); err != nil {
				t.Fatal(err)
			}
		}
		g.Start()
		engine.RunUntil(36 * 3600)
		var cts []float64
		for _, wf := range g.Workflows {
			cts = append(cts, wf.CompletedAt)
		}
		return cts
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at workflow %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestQueueDelay(t *testing.T) {
	if QueueDelay(1000, 4) != 250 {
		t.Fatal("QueueDelay(1000,4) != 250")
	}
	if d := QueueDelay(10, 0); d <= 0 {
		t.Fatal("zero capacity must give infinite delay")
	}
}

// TestSubmitAtTimedArrival exercises the timed-submission path of the
// arrival subsystem: a workflow scheduled for t=3000 enters the system at
// that instant (not before), records its submit time, and still completes.
func TestSubmitAtTimedArrival(t *testing.T) {
	engine, g := newTestGrid(t, 5, 7)
	g.SubmitAt(3000, 0, chainWorkflow(t, 3))
	g.Start()
	engine.RunUntil(2999)
	if len(g.Workflows) != 0 {
		t.Fatalf("workflow present before its arrival time (%d registered)", len(g.Workflows))
	}
	engine.RunUntil(36 * 3600)
	if len(g.Workflows) != 1 {
		t.Fatalf("%d workflows after arrival, want 1", len(g.Workflows))
	}
	wf := g.Workflows[0]
	if wf.SubmittedAt != 3000 {
		t.Fatalf("SubmittedAt = %v, want 3000", wf.SubmittedAt)
	}
	if wf.State != WorkflowCompleted {
		t.Fatalf("state %v, want completed", wf.State)
	}
	if ct := wf.CompletionTime(); ct <= 0 || wf.CompletedAt < 3000 {
		t.Fatalf("completion bookkeeping wrong: at %v, ct %v", wf.CompletedAt, ct)
	}
	if g.DroppedSubmissions != 0 {
		t.Fatalf("DroppedSubmissions = %d", g.DroppedSubmissions)
	}
}

// TestSubmitAtDropsWhenHomeDead pins the churn interaction: a timed
// arrival whose home node has left by the arrival instant is dropped and
// counted rather than panicking or resurrecting the node.
func TestSubmitAtDropsWhenHomeDead(t *testing.T) {
	engine, g := newTestGrid(t, 4, 9)
	g.SubmitAt(1000, 2, chainWorkflow(t, 2))
	g.SubmitAt(1000, 99, chainWorkflow(t, 2)) // out of range: also dropped
	g.Nodes[2].Alive = false
	g.Start()
	engine.RunUntil(2000)
	if len(g.Workflows) != 0 {
		t.Fatalf("%d workflows submitted to a dead home", len(g.Workflows))
	}
	if g.DroppedSubmissions != 2 {
		t.Fatalf("DroppedSubmissions = %d, want 2", g.DroppedSubmissions)
	}
}

// streamFrom adapts a fixed schedule to SubmitStream's iterator.
func streamFrom(t *testing.T, sched []struct {
	at   float64
	home int
	n    int
}) func() (float64, int, *dag.Workflow, bool) {
	t.Helper()
	i := 0
	return func() (float64, int, *dag.Workflow, bool) {
		if i >= len(sched) {
			return 0, 0, nil, false
		}
		s := sched[i]
		i++
		return s.at, s.home, chainWorkflow(t, s.n), true
	}
}

// TestSubmitStreamMatchesSubmitAt pins the streaming-submission contract:
// the same timed schedule fed through SubmitStream produces exactly the
// per-workflow timeline the equivalent SubmitAt calls produce, including
// same-instant arrivals (submitted in iterator order) and dead-home drops.
func TestSubmitStreamMatchesSubmitAt(t *testing.T) {
	sched := []struct {
		at   float64
		home int
		n    int
	}{
		{1000, 0, 3},
		{2500, 1, 2},
		{2500, 2, 4}, // same instant, different home
		{2500, 3, 2}, // dead home: dropped at the arrival instant
		{7000, 1, 3},
	}
	run := func(stream bool) (times []float64, dropped int) {
		engine, g := newTestGrid(t, 5, 11)
		g.Nodes[3].Alive = false
		if stream {
			g.SubmitStream(streamFrom(t, sched))
		} else {
			for _, s := range sched {
				g.SubmitAt(s.at, s.home, chainWorkflow(t, s.n))
			}
		}
		g.Start()
		engine.RunUntil(36 * 3600)
		for _, wf := range g.Workflows {
			times = append(times, wf.SubmittedAt, wf.CompletedAt)
		}
		return times, g.DroppedSubmissions
	}
	at, ad := run(false)
	st, sd := run(true)
	if ad != 1 || sd != ad {
		t.Fatalf("dropped: SubmitAt %d, SubmitStream %d, want 1 each", ad, sd)
	}
	if len(at) != len(st) || len(at) != 8 {
		t.Fatalf("timeline lengths differ: %d vs %d", len(at), len(st))
	}
	for i := range at {
		if at[i] != st[i] {
			t.Fatalf("timelines diverge at %d: %v vs %v", i, at, st)
		}
	}
}

// TestSubmitStreamBoundsPendingEvents is the point of the satellite: a
// long future schedule must keep at most one outstanding submission event,
// where SubmitAt queues them all upfront.
func TestSubmitStreamBoundsPendingEvents(t *testing.T) {
	const future = 500
	sched := make([]struct {
		at   float64
		home int
		n    int
	}, future)
	for i := range sched {
		sched[i].at = float64(1000 + 10*i)
		sched[i].home = i % 4
		sched[i].n = 2
	}
	engine, g := newTestGrid(t, 4, 13)
	base := engine.Pending()
	g.SubmitStream(streamFrom(t, sched))
	if got := engine.Pending(); got != base+1 {
		t.Fatalf("SubmitStream queued %d events upfront, want exactly 1", got-base)
	}
	// Contrast: the per-call path queues one event per future arrival.
	engine2, g2 := newTestGrid(t, 4, 13)
	base2 := engine2.Pending()
	for _, s := range sched {
		g2.SubmitAt(s.at, s.home, chainWorkflow(t, s.n))
	}
	if got := engine2.Pending(); got != base2+future {
		t.Fatalf("SubmitAt queued %d events, want %d", got-base2, future)
	}
	// And the streamed run still delivers every workflow.
	g.Start()
	engine.RunUntil(36 * 3600)
	if len(g.Workflows) != future {
		t.Fatalf("%d workflows arrived, want %d", len(g.Workflows), future)
	}
}

// TestSubmitStreamAcrossStoppedEngine pins the interaction between a
// streamed arrival schedule and Stop(): stopping mid-run freezes the
// clock at the stop instant (not the RunUntil deadline), submits nothing
// scheduled after it, and - Stop being sticky - a second RunUntil must
// not resurrect the stream's tail.
func TestSubmitStreamAcrossStoppedEngine(t *testing.T) {
	sched := make([]struct {
		at   float64
		home int
		n    int
	}, 10)
	for i := range sched {
		sched[i].at = float64(100 * (i + 1)) // 100, 200, ..., 1000
		sched[i].home = i % 4
		sched[i].n = 2
	}
	engine, g := newTestGrid(t, 4, 19)
	pulled := 0
	inner := streamFrom(t, sched)
	g.SubmitStream(func() (float64, int, *dag.Workflow, bool) {
		pulled++
		return inner()
	})
	engine.At(450, func(float64) { engine.Stop() })
	g.Start()
	engine.RunUntil(36 * 3600)
	if !engine.Stopped() {
		t.Fatal("engine not stopped")
	}
	if got := engine.Now(); got != 450 {
		t.Fatalf("clock at %v after mid-run Stop, want the stop instant 450", got)
	}
	if len(g.Workflows) != 4 {
		t.Fatalf("%d workflows submitted before the stop, want 4 (t=100..400)", len(g.Workflows))
	}
	// The stream holds exactly one outstanding arrival (t=500, pulled but
	// never fired); the tail beyond it was never drawn from the iterator.
	if pulled != 5 {
		t.Fatalf("iterator pulled %d times, want 5 (4 fired arrivals + the pending t=500)", pulled)
	}
	// Stop is sticky: another RunUntil neither advances time nor submits.
	engine.RunUntil(72 * 3600)
	if engine.Now() != 450 || len(g.Workflows) != 4 {
		t.Fatalf("sticky Stop violated: now=%v workflows=%d", engine.Now(), len(g.Workflows))
	}
}

// TestSubmitStreamRejectsRegression pins the sorted-iterator contract.
func TestSubmitStreamRejectsRegression(t *testing.T) {
	sched := []struct {
		at   float64
		home int
		n    int
	}{{2000, 0, 2}, {1000, 1, 2}}
	engine, g := newTestGrid(t, 4, 17)
	g.SubmitStream(streamFrom(t, sched))
	defer func() {
		if recover() == nil {
			t.Fatal("time regression not detected")
		}
	}()
	g.Start()
	engine.RunUntil(36 * 3600)
}

// TestSubmitStreamEmpty: an exhausted iterator schedules nothing.
func TestSubmitStreamEmpty(t *testing.T) {
	engine, g := newTestGrid(t, 4, 19)
	base := engine.Pending()
	g.SubmitStream(func() (float64, int, *dag.Workflow, bool) { return 0, 0, nil, false })
	if engine.Pending() != base {
		t.Fatal("empty stream queued an event")
	}
}

// TestSubmitAllocationsConstantPerWorkflow pins Submit's cost: the
// workflow instance, one slab of task instances and its pointer slice,
// with eft(f) priced in a grid-owned buffer, whatever the task count.
func TestSubmitAllocationsConstantPerWorkflow(t *testing.T) {
	allocs := func(tasks int) float64 {
		_, g := newTestGrid(t, 4, 1)
		w := chainWorkflow(t, tasks)
		g.Workflows = make([]*WorkflowInstance, 0, 256)
		g.Nodes[0].Homed = make([]*WorkflowInstance, 0, 256)
		return testing.AllocsPerRun(100, func() {
			if _, err := g.Submit(0, w); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(2), allocs(30); small != 3 || large != 3 {
		t.Fatalf("Submit allocates %v times for 2 tasks and %v for 30, want 3", small, large)
	}
}
