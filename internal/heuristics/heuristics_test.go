package heuristics

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestNamesReturnsEightAlgorithms(t *testing.T) {
	names := Names()
	want := []string{"DHEFT", "HEFT", "max-min", "min-min", "DSDF", "sufferage", "DSMF", "SMF"}
	if len(names) != len(want) {
		t.Fatalf("Names() returned %d algorithms, want %d", len(names), len(want))
	}
	for i, name := range names {
		if name != want[i] {
			t.Errorf("Names()[%d] = %s, want %s", i, name, want[i])
		}
		a, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%s): %v", name, err)
		}
		if a.Phase2 == nil {
			t.Errorf("%s missing phase 2", name)
		}
		if (a.Phase1 == nil) == (a.Planner == nil) {
			t.Errorf("%s must have exactly one of phase1/planner", name)
		}
	}
}

// TestByName pins the registry: every name the experiment tables print
// resolves to an algorithm whose Label is that name.
func TestByName(t *testing.T) {
	names := append(Names(), "DBC-cost", "DBC-time", "DBC-ct", "HEFT-ins", "LAHEFT", "CPOP")
	for _, base := range []string{"min-min", "max-min", "sufferage", "DHEFT"} {
		names = append(names, base+"+FCFS")
	}
	for _, name := range names {
		a, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%s): %v", name, err)
		}
		if a.Label != name {
			t.Errorf("ByName(%s) returned %s", name, a.Label)
		}
	}
	if a, err := ByName("DHEFT+FCFS"); err != nil || a.Phase2.Name() != "FCFS" {
		t.Errorf("DHEFT+FCFS second phase is not FCFS (err %v)", err)
	}
	for _, bad := range []string{"nonsense", "bogus+FCFS", "+FCFS"} {
		_, err := ByName(bad)
		if err == nil || !strings.Contains(err.Error(), "heuristics: unknown algorithm") {
			t.Errorf("ByName(%q) = %v, want an unknown-algorithm error", bad, err)
		}
	}
}

func TestWithFCFSPhase2(t *testing.T) {
	a := WithFCFSPhase2(NewMinMin())
	if a.Label != "min-min+FCFS" {
		t.Fatalf("label %s", a.Label)
	}
	if a.Phase2.Name() != "FCFS" {
		t.Fatalf("phase2 %s, want FCFS", a.Phase2.Name())
	}
	// The original must be untouched.
	if NewMinMin().Phase2.Name() != "STF" {
		t.Fatal("WithFCFSPhase2 mutated the base constructor")
	}
}

func TestDeadline(t *testing.T) {
	if Deadline(100, 100) != 0 {
		t.Fatal("critical task must have zero deadline slack")
	}
	if Deadline(100, 60) != 40 {
		t.Fatal("Deadline(100,60) != 40")
	}
}

func mkTask(ms, rpm, exec, suff float64, seq int) *grid.TaskInstance {
	return &grid.TaskInstance{
		MsAtDispatch: ms, RPMAtDispatch: rpm,
		EstExecAtDispatch: exec, SufferageAtDispatch: suff, DispatchSeq: seq,
	}
}

func TestPhase2Policies(t *testing.T) {
	a := mkTask(100, 90, 30, 5, 0)
	b := mkTask(50, 20, 80, 9, 1)
	c := mkTask(70, 95, 10, 9, 2)
	ready := []*grid.TaskInstance{a, b, c}

	cases := []struct {
		algo grid.Algorithm
		want *grid.TaskInstance
		why  string
	}{
		{NewDHEFT(), c, "DHEFT picks longest RPM (95)"},
		{NewDSDF(), b, "DSDF picks smallest ms-RPM slack (30 vs 10? a:10,b:30,c:-25 -> c)"},
		{NewMinMin(), c, "STF picks shortest est exec (10)"},
		{NewMaxMin(), b, "LTF picks longest est exec (80)"},
		{NewSufferage(), b, "LSF picks largest sufferage, tie on dispatch order (b before c)"},
		{NewDSMF(), b, "DSMF picks shortest workflow makespan (50)"},
	}
	// Fix the DSDF expectation: slacks are a=10, b=30, c=-25; smallest is c.
	cases[1].want = c
	for _, tc := range cases {
		if got := tc.algo.Phase2.Pick(ready); got != tc.want {
			t.Errorf("%s phase2 picked seq %d, want seq %d (%s)",
				tc.algo.Label, got.DispatchSeq, tc.want.DispatchSeq, tc.why)
		}
	}
}

func TestEveryJITAlgorithmCompletesWorkload(t *testing.T) {
	subs, err := workload.Generate(workload.Config{
		Nodes: 12, LoadFactor: 1, Gen: dag.DefaultGenConfig(), Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Names() {
		algo, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(algo.Label, func(t *testing.T) {
			engine := sim.NewEngine()
			g, err := grid.New(engine, grid.Config{Nodes: 12, Seed: 31}, algo)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range subs {
				if _, err := g.Submit(s.Home, s.Workflow); err != nil {
					t.Fatal(err)
				}
			}
			g.Start()
			engine.RunUntil(36 * 3600)
			for _, wf := range g.Workflows {
				if wf.State != grid.WorkflowCompleted {
					t.Fatalf("workflow %s state %v under %s", wf.W.Name, wf.State, algo.Label)
				}
			}
		})
	}
}

func TestFCFSVariantsComplete(t *testing.T) {
	subs, err := workload.Generate(workload.Config{
		Nodes: 10, LoadFactor: 1, Gen: dag.DefaultGenConfig(), Seed: 37,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, base := range []grid.Algorithm{NewMinMin(), NewMaxMin(), NewSufferage(), NewDHEFT()} {
		algo := WithFCFSPhase2(base)
		t.Run(algo.Label, func(t *testing.T) {
			engine := sim.NewEngine()
			g, err := grid.New(engine, grid.Config{Nodes: 10, Seed: 37}, algo)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range subs {
				if _, err := g.Submit(s.Home, s.Workflow); err != nil {
					t.Fatal(err)
				}
			}
			g.Start()
			engine.RunUntil(36 * 3600)
			for _, wf := range g.Workflows {
				if wf.State != grid.WorkflowCompleted {
					t.Fatalf("workflow %s state %v", wf.W.Name, wf.State)
				}
			}
		})
	}
}

func TestDSDFOrderPrefersCriticalTasks(t *testing.T) {
	// Build one workflow view with known slack structure using core types:
	// the schedule point with RPM == ms is critical and must come first.
	b := dag.NewBuilder("slack")
	e := b.AddTask("entry", 10, 0)
	x := b.AddTask("x", 100, 0) // long branch -> critical
	y := b.AddTask("y", 10, 0)  // short branch -> slack
	z := b.AddTask("exit", 10, 0)
	b.AddEdge(e, x, 1)
	b.AddEdge(e, y, 1)
	b.AddEdge(x, z, 1)
	b.AddEdge(y, z, 1)
	w, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	wf := &grid.WorkflowInstance{W: w}
	wf.Tasks = make([]*grid.TaskInstance, w.Len())
	for i := range wf.Tasks {
		wf.Tasks[i] = &grid.TaskInstance{WF: wf, ID: dag.TaskID(i), State: grid.TaskSchedulePoint}
	}
	rpm := dag.RPM(w, dag.Estimates{AvgCapacityMIPS: 1, AvgBandwidthMbs: 1})
	view := core.WorkflowView{
		WF: wf, RPM: rpm,
		Points:   []*grid.TaskInstance{wf.Tasks[y], wf.Tasks[x]}, // reversed on purpose
		Makespan: rpm[x],
	}
	got := dsdfOrder([]core.WorkflowView{view})
	if got[0].Task.ID != x {
		t.Fatalf("DSDF ordered %v first, want critical task x", got[0].Task.Task().Name)
	}
}
