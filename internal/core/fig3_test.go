package core_test

// This file reconstructs the worked example of the paper's Fig. 3: two
// workflows at one scheduler node with schedule points A2, A3, B2, B3,
// whose rest path makespans must come out as RPM(A2)=80, RPM(A3)=115,
// RPM(B2)=65, RPM(B3)=60, giving remaining makespans 115 and 65. DSMF must
// schedule B2, B3, A3, A2; HEFT ranks A3, A2, B2, B3; with the published
// finish-time matrix min-min selects A2 first and max-min selects B2.

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/grid"
)

// est1 prices time units directly: eet == load, ett == data.
var est1 = dag.Estimates{AvgCapacityMIPS: 1, AvgBandwidthMbs: 1}

// fig3WorkflowA: A1 (finished entry), schedule points A2, A3, offspring
// A4, A5, exit A6, with weights chosen to match the published RPMs.
func fig3WorkflowA(t *testing.T) *dag.Workflow {
	t.Helper()
	b := dag.NewBuilder("A")
	a1 := b.AddTask("A1", 5, 0)
	a2 := b.AddTask("A2", 20, 0)
	a3 := b.AddTask("A3", 30, 0)
	a4 := b.AddTask("A4", 20, 0)
	a5 := b.AddTask("A5", 30, 0)
	a6 := b.AddTask("A6", 10, 0)
	b.AddEdge(a1, a2, 5)
	b.AddEdge(a1, a3, 10)
	b.AddEdge(a2, a4, 10)
	b.AddEdge(a3, a4, 30)
	b.AddEdge(a3, a5, 40)
	b.AddEdge(a4, a6, 20)
	b.AddEdge(a5, a6, 5)
	w, err := b.Build()
	if err != nil {
		t.Fatalf("fig3 A: %v", err)
	}
	return w
}

// fig3WorkflowB: B1 (finished entry), points B2, B3, offspring B4, exit B5.
func fig3WorkflowB(t *testing.T) *dag.Workflow {
	t.Helper()
	b := dag.NewBuilder("B")
	b1 := b.AddTask("B1", 20, 0)
	b2 := b.AddTask("B2", 10, 0)
	b3 := b.AddTask("B3", 5, 0)
	b4 := b.AddTask("B4", 20, 0)
	b5 := b.AddTask("B5", 15, 0)
	b.AddEdge(b1, b2, 10)
	b.AddEdge(b1, b3, 10)
	b.AddEdge(b2, b4, 10)
	b.AddEdge(b3, b4, 10)
	b.AddEdge(b4, b5, 10)
	w, err := b.Build()
	if err != nil {
		t.Fatalf("fig3 B: %v", err)
	}
	return w
}

func TestFig3RPMValues(t *testing.T) {
	wa := fig3WorkflowA(t)
	wb := fig3WorkflowB(t)
	rpmA := dag.RPM(wa, est1)
	rpmB := dag.RPM(wb, est1)
	checks := []struct {
		name string
		got  float64
		want float64
	}{
		{"RPM(A2)", rpmA[1], 80},
		{"RPM(A3)", rpmA[2], 115},
		{"RPM(B2)", rpmB[1], 65},
		{"RPM(B3)", rpmB[2], 60},
	}
	for _, c := range checks {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Errorf("%s = %v, want %v (paper Fig. 3)", c.name, c.got, c.want)
		}
	}
}

// fig3Views builds the scheduler-side views: both workflows with their
// published schedule points and makespans.
func fig3Views(t *testing.T) []core.WorkflowView {
	t.Helper()
	wa, wb := fig3WorkflowA(t), fig3WorkflowB(t)
	mk := func(seq int, w *dag.Workflow, pts []dag.TaskID) core.WorkflowView {
		wf := &grid.WorkflowInstance{Seq: seq, W: w}
		wf.Tasks = make([]*grid.TaskInstance, w.Len())
		for i := range wf.Tasks {
			wf.Tasks[i] = &grid.TaskInstance{WF: wf, ID: dag.TaskID(i), State: grid.TaskBlocked, Node: -1}
		}
		rpm := dag.RPM(w, est1)
		v := core.WorkflowView{WF: wf, Est: est1, RPM: rpm}
		for _, id := range pts {
			// No grid owns wf: the orderings and picks read the view
			// alone, never the grid's schedule-point count.
			wf.Tasks[id].State = grid.TaskSchedulePoint
			v.Points = append(v.Points, wf.Tasks[id])
			if rpm[id] > v.Makespan {
				v.Makespan = rpm[id]
			}
		}
		return v
	}
	return []core.WorkflowView{
		mk(0, wa, []dag.TaskID{1, 2}), // A2, A3
		mk(1, wb, []dag.TaskID{1, 2}), // B2, B3
	}
}

func taskNames(ts []core.RankedTask) []string {
	out := make([]string, len(ts))
	for i, rt := range ts {
		out[i] = rt.Task.Task().Name
	}
	return out
}

func TestFig3DSMFSchedulingOrder(t *testing.T) {
	got := taskNames(core.DSMFOrder(fig3Views(t)))
	want := []string{"B2", "B3", "A3", "A2"}
	if len(got) != len(want) {
		t.Fatalf("order %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DSMF order %v, want %v (paper: \"the scheduling order is thus B2, B3, A3, A2\")", got, want)
		}
	}
}

func TestFig3WorkflowMakespans(t *testing.T) {
	views := fig3Views(t)
	if views[0].Makespan != 115 {
		t.Errorf("ms(A) = %v, want 115", views[0].Makespan)
	}
	if views[1].Makespan != 65 {
		t.Errorf("ms(B) = %v, want 65", views[1].Makespan)
	}
}

// fig3Rows encodes the published estimated-finish-time matrix over the
// three idle resources X, Y, Z.
func fig3Rows(t *testing.T) []core.MatrixRow {
	t.Helper()
	views := fig3Views(t)
	a2, a3 := views[0].Points[0], views[0].Points[1]
	b2, b3 := views[1].Points[0], views[1].Points[1]
	row := func(task *grid.TaskInstance, fts [3]float64) core.MatrixRow {
		r := core.MatrixRow{Task: task, BestIdx: -1, BestFT: math.Inf(1), SecondFT: math.Inf(1)}
		for i, ft := range fts {
			switch {
			case ft < r.BestFT:
				r.SecondFT = r.BestFT
				r.BestFT = ft
				r.BestIdx = i
			case ft < r.SecondFT:
				r.SecondFT = ft
			}
		}
		return r
	}
	return []core.MatrixRow{
		row(a2, [3]float64{15, 10, 30}),
		row(a3, [3]float64{30, 50, 40}),
		row(b2, [3]float64{50, 60, 40}),
		row(b3, [3]float64{40, 20, 30}),
	}
}

func TestFig3MinMinSelectsA2First(t *testing.T) {
	rows := fig3Rows(t)
	pick := core.PickMinMin(rows)
	if name := rows[pick].Task.Task().Name; name != "A2" {
		t.Fatalf("min-min first pick %s, want A2 (paper: \"min-min ... will select A2 first\")", name)
	}
}

func TestFig3MaxMinSelectsB2First(t *testing.T) {
	rows := fig3Rows(t)
	pick := core.PickMaxMin(rows)
	if name := rows[pick].Task.Task().Name; name != "B2" {
		t.Fatalf("max-min first pick %s, want B2 (paper: \"max-min ... select B2 first\")", name)
	}
}

func TestFig3HEFTRankOrder(t *testing.T) {
	// HEFT handles tasks in decreasing RPM: A3, A2, B2, B3.
	views := fig3Views(t)
	all := core.Flatten(views)
	// Decreasing-RPM sort is what dheft uses; verify via RPM values.
	want := map[string]float64{"A2": 80, "A3": 115, "B2": 65, "B3": 60}
	for _, rt := range all {
		if rt.RPM != want[rt.Task.Task().Name] {
			t.Fatalf("flattened RPM for %s = %v, want %v", rt.Task.Task().Name, rt.RPM, want[rt.Task.Task().Name])
		}
	}
}

func TestFig3SufferageValues(t *testing.T) {
	rows := fig3Rows(t)
	want := []float64{5, 10, 10, 10} // second-best minus best per row
	for i, r := range rows {
		if r.Sufferage() != want[i] {
			t.Errorf("sufferage[%d] = %v, want %v", i, r.Sufferage(), want[i])
		}
	}
}
