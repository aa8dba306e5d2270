package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

func smallGrid(t testing.TB, algo grid.Algorithm, seed int64) (*sim.Engine, *grid.Grid) {
	t.Helper()
	engine := sim.NewEngine()
	g, err := grid.New(engine, grid.Config{Nodes: 16, Seed: seed}, algo)
	if err != nil {
		t.Fatalf("grid.New: %v", err)
	}
	return engine, g
}

func submitWorkload(t testing.TB, g *grid.Grid, lf int, seed int64) {
	t.Helper()
	subs, err := workload.Generate(workload.Config{
		Nodes: len(g.Nodes), LoadFactor: lf, Gen: dag.DefaultGenConfig(), Seed: seed,
	})
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	for _, s := range subs {
		if _, err := g.Submit(s.Home, s.Workflow); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
}

func TestDSMFEndToEndCompletesAllWorkflows(t *testing.T) {
	engine, g := smallGrid(t, core.NewDSMF(), 1)
	submitWorkload(t, g, 2, 1)
	g.Start()
	engine.RunUntil(36 * 3600)
	for _, wf := range g.Workflows {
		if wf.State != grid.WorkflowCompleted {
			t.Fatalf("workflow %s state %v under DSMF", wf.W.Name, wf.State)
		}
		if wf.Efficiency() <= 0 {
			t.Fatalf("workflow %s efficiency %v", wf.W.Name, wf.Efficiency())
		}
	}
}

func TestHEFTFullAheadCompletesAllWorkflows(t *testing.T) {
	engine, g := smallGrid(t, core.NewHEFT(), 2)
	submitWorkload(t, g, 2, 2)
	g.Start()
	engine.RunUntil(36 * 3600)
	for _, wf := range g.Workflows {
		if wf.State != grid.WorkflowCompleted {
			t.Fatalf("workflow %s state %v under HEFT", wf.W.Name, wf.State)
		}
		if wf.PlannedNodes == nil {
			t.Fatalf("workflow %s has no full-ahead plan", wf.W.Name)
		}
		for id := 0; id < wf.W.Len(); id++ {
			task := wf.W.Task(dag.TaskID(id))
			if task.Virtual {
				continue
			}
			planned, ok := wf.PlannedNodes[id]
			if !ok {
				t.Fatalf("task %s unplanned", task.Name)
			}
			if wf.Tasks[id].Node != planned {
				t.Fatalf("task %s ran on %d, planned %d", task.Name, wf.Tasks[id].Node, planned)
			}
		}
	}
}

func TestSMFPlansShortWorkflowsFirst(t *testing.T) {
	engine, g := smallGrid(t, core.NewSMF(), 3)
	// One long chain and one tiny workflow; the tiny one should finish
	// far earlier under SMF's shortest-makespan-first planning.
	long := dag.NewBuilder("long")
	prev := long.AddTask("l0", 9000, 10)
	for i := 1; i < 12; i++ {
		cur := long.AddTask("l", 9000, 10)
		long.AddEdge(prev, cur, 100)
		prev = cur
	}
	lw, err := long.Build()
	if err != nil {
		t.Fatal(err)
	}
	short := dag.NewBuilder("short")
	s0 := short.AddTask("s0", 200, 10)
	s1 := short.AddTask("s1", 200, 10)
	short.AddEdge(s0, s1, 10)
	sw, err := short.Build()
	if err != nil {
		t.Fatal(err)
	}
	lwf, err := g.Submit(0, lw)
	if err != nil {
		t.Fatal(err)
	}
	swf, err := g.Submit(1, sw)
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	engine.RunUntil(200 * 3600)
	if lwf.State != grid.WorkflowCompleted || swf.State != grid.WorkflowCompleted {
		t.Fatalf("states %v/%v, want both completed", lwf.State, swf.State)
	}
	if swf.CompletedAt >= lwf.CompletedAt {
		t.Fatalf("short workflow finished at %v, long at %v: SMF should prioritize short",
			swf.CompletedAt, lwf.CompletedAt)
	}
}

func TestCandidatesIncludeHomeAndRSSSorted(t *testing.T) {
	engine, g := smallGrid(t, core.NewDSMF(), 5)
	g.Start()
	engine.RunUntil(4 * 300) // let gossip populate
	home := &g.Nodes[7]
	cands := core.Candidates(g, home)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	foundHome := false
	prev := -1
	for _, c := range cands {
		if c.Node <= prev {
			t.Fatalf("candidates not sorted: %d after %d", c.Node, prev)
		}
		prev = c.Node
		if c.Node == home.ID {
			foundHome = true
			if !c.IsHome {
				t.Fatal("home candidate not flagged")
			}
		}
	}
	if !foundHome {
		t.Fatal("home node missing from candidates")
	}
}

func TestFinishTimeComponents(t *testing.T) {
	engine, g := smallGrid(t, core.NewDSMF(), 7)
	g.Start()
	engine.RunUntil(900)

	b := dag.NewBuilder("ft")
	x := b.AddTask("x", 1000, 50)
	y := b.AddTask("y", 2000, 50)
	b.AddEdge(x, y, 500)
	w, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	wf, err := g.Submit(0, w)
	if err != nil {
		t.Fatal(err)
	}
	tx := wf.Tasks[0]

	// Idle candidate: FT = max(image transfer, 0) + et.
	idle := core.Candidate{Node: 3, CapacityMIPS: 4, TotalLoadMI: 0}
	ft := core.FinishTime(g, tx, idle)
	img := g.Estimator().EstimateTransferTime(0, 3, 50)
	want := math.Max(img, 0) + 1000.0/4
	if math.Abs(ft-want) > 1e-9 {
		t.Fatalf("idle FT = %v, want %v", ft, want)
	}

	// Loaded candidate: queue delay dominates when l/c is large.
	loaded := core.Candidate{Node: 3, CapacityMIPS: 4, TotalLoadMI: 40000}
	ft2 := core.FinishTime(g, tx, loaded)
	want2 := 40000.0/4 + 1000.0/4
	if math.Abs(ft2-want2) > 1e-9 {
		t.Fatalf("loaded FT = %v, want %v", ft2, want2)
	}
	if ft2 <= ft {
		t.Fatal("loaded node must estimate later finish than idle node")
	}

	// Zero capacity is an infinite estimate, never selected.
	if !math.IsInf(core.FinishTime(g, tx, core.Candidate{Node: 1}), 1) {
		t.Fatal("zero-capacity candidate must be +Inf")
	}
}

func TestBestNodePrefersFasterIdleNode(t *testing.T) {
	engine, g := smallGrid(t, core.NewDSMF(), 9)
	g.Start()
	engine.RunUntil(900)
	b := dag.NewBuilder("bn")
	b.AddTask("solo", 8000, 0)
	w, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	wf, err := g.Submit(0, w)
	if err != nil {
		t.Fatal(err)
	}
	cands := []core.Candidate{
		{Node: 1, CapacityMIPS: 1, TotalLoadMI: 0},
		{Node: 2, CapacityMIPS: 16, TotalLoadMI: 0},
		{Node: 3, CapacityMIPS: 16, TotalLoadMI: 100000},
	}
	idx, ft := core.BestNode(g, wf.Tasks[0], cands)
	if cands[idx].Node != 2 {
		t.Fatalf("best node %d, want idle fast node 2", cands[idx].Node)
	}
	if ft <= 0 || math.IsInf(ft, 1) {
		t.Fatalf("ft = %v", ft)
	}
	if idx2, _ := core.BestNode(g, wf.Tasks[0], nil); idx2 != -1 {
		t.Fatal("empty candidate set must return -1")
	}
}

func TestDSMFPhase2PicksShortestMakespan(t *testing.T) {
	mk := func(ms, rpm float64, seq int) *grid.TaskInstance {
		return &grid.TaskInstance{MsAtDispatch: ms, RPMAtDispatch: rpm, DispatchSeq: seq}
	}
	p := core.DSMFPhase2{}
	a := mk(100, 50, 0)
	b := mk(60, 10, 1)
	c := mk(60, 40, 2)
	if got := p.Pick([]*grid.TaskInstance{a, b, c}); got != c {
		t.Fatalf("picked ms=%v rpm=%v, want ms=60 rpm=40 (shortest ms, then longest RPM)",
			got.MsAtDispatch, got.RPMAtDispatch)
	}
	d := mk(60, 40, 1)
	if got := p.Pick([]*grid.TaskInstance{c, d}); got != d {
		t.Fatal("full tie must break on dispatch order")
	}
	if got := p.Pick([]*grid.TaskInstance{a}); got != a {
		t.Fatal("single task must be picked")
	}
}

func TestFCFSPhase2PicksEarliestReady(t *testing.T) {
	mk := func(ready float64, seq int) *grid.TaskInstance {
		return &grid.TaskInstance{ReadyAt: ready, DispatchSeq: seq}
	}
	p := core.FCFS{}
	a, b, c := mk(50, 2), mk(10, 1), mk(10, 0)
	if got := p.Pick([]*grid.TaskInstance{a, b, c}); got != c {
		t.Fatal("FCFS must pick earliest ReadyAt with dispatch-order tie-break")
	}
}

func TestPlannerSkipsDeadNodes(t *testing.T) {
	engine := sim.NewEngine()
	g, err := grid.New(engine, grid.Config{Nodes: 6, Seed: 11}, core.NewHEFT())
	if err != nil {
		t.Fatal(err)
	}
	// Kill half the nodes before planning.
	for i := 3; i < 6; i++ {
		g.Nodes[i].Alive = false
	}
	subs, err := workload.Generate(workload.Config{Nodes: 3, LoadFactor: 1, Gen: dag.DefaultGenConfig(), Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range subs {
		if _, err := g.Submit(s.Home, s.Workflow); err != nil {
			t.Fatal(err)
		}
	}
	g.Start()
	for _, wf := range g.Workflows {
		for _, node := range wf.PlannedNodes {
			if node >= 3 {
				t.Fatalf("planner placed a task on dead node %d", node)
			}
		}
	}
	engine.RunUntil(72 * 3600)
	for _, wf := range g.Workflows {
		if wf.State != grid.WorkflowCompleted {
			t.Fatalf("workflow %s state %v", wf.W.Name, wf.State)
		}
	}
}

func TestMatrixPhase1DispatchesEverything(t *testing.T) {
	engine := sim.NewEngine()
	algo := grid.Algorithm{
		Label:  "mm",
		Phase1: &core.MatrixPhase1{Label: "mm", Pick: core.PickMinMin},
		Phase2: core.FCFS{},
	}
	g, err := grid.New(engine, grid.Config{Nodes: 10, Seed: 13}, algo)
	if err != nil {
		t.Fatal(err)
	}
	submitWorkload(t, g, 1, 13)
	g.Start()
	engine.RunUntil(36 * 3600)
	for _, wf := range g.Workflows {
		if wf.State != grid.WorkflowCompleted {
			t.Fatalf("workflow %s state %v under matrix scheduler", wf.W.Name, wf.State)
		}
	}
}

func TestOracleAblationFlagsWork(t *testing.T) {
	engine := sim.NewEngine()
	g, err := grid.New(engine, grid.Config{
		Nodes: 12, Seed: 17, UseOracleBandwidth: true, UseOracleAverages: true,
	}, core.NewDSMF())
	if err != nil {
		t.Fatal(err)
	}
	cap0, bw0 := g.Averages(0)
	capT, bwT := g.TrueAverages()
	if cap0 != capT || bw0 != bwT {
		t.Fatal("oracle averages must bypass gossip")
	}
	submitWorkload(t, g, 1, 17)
	g.Start()
	engine.RunUntil(36 * 3600)
	for _, wf := range g.Workflows {
		if wf.State != grid.WorkflowCompleted {
			t.Fatalf("workflow %s state %v under oracle DSMF", wf.W.Name, wf.State)
		}
	}
}

// Property-flavored check: DSMF ordering is a permutation of the input and
// sorted by (makespan asc, rpm desc within workflow).
func TestDSMFOrderIsSortedPermutation(t *testing.T) {
	rng := stats.NewRand(23, 1)
	for trial := 0; trial < 30; trial++ {
		var views []core.WorkflowView
		total := 0
		nWf := 1 + rng.Intn(4)
		for wfi := 0; wfi < nWf; wfi++ {
			w, err := dag.Generate("perm", dag.DefaultGenConfig(), rng)
			if err != nil {
				t.Fatal(err)
			}
			wf := &grid.WorkflowInstance{Seq: wfi, W: w}
			wf.Tasks = make([]*grid.TaskInstance, w.Len())
			for i := range wf.Tasks {
				wf.Tasks[i] = &grid.TaskInstance{WF: wf, ID: dag.TaskID(i)}
			}
			rpm := dag.RPM(w, est1)
			v := core.WorkflowView{WF: wf, RPM: rpm}
			for i := 0; i < w.Len(); i += 2 { // arbitrary subset as points
				if w.Task(dag.TaskID(i)).Virtual {
					continue
				}
				// No grid owns wf: DSMFOrder reads the view alone, never
				// the grid's schedule-point count, so State is set by hand.
				wf.Tasks[i].State = grid.TaskSchedulePoint
				v.Points = append(v.Points, wf.Tasks[i])
				if rpm[i] > v.Makespan {
					v.Makespan = rpm[i]
				}
				total++
			}
			if len(v.Points) > 0 {
				views = append(views, v)
			}
		}
		got := core.DSMFOrder(views)
		if len(got) != total {
			t.Fatalf("order lost tasks: %d vs %d", len(got), total)
		}
		for i := 1; i < len(got); i++ {
			a, b := got[i-1], got[i]
			if a.Makespan > b.Makespan {
				t.Fatal("workflow makespans not ascending")
			}
			if a.Makespan == b.Makespan && a.Task.WF == b.Task.WF && a.RPM < b.RPM {
				t.Fatal("within-workflow RPMs not descending")
			}
		}
	}
}
