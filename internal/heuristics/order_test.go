package heuristics

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/grid"
)

// refDSMFOrder, refDHEFTOrder and refDSDFOrder are the list orderings as
// sort.SliceStable wrote them.
func refDSMFOrder(views []core.WorkflowView) []core.RankedTask {
	ordered := append([]core.WorkflowView(nil), views...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Makespan < ordered[j].Makespan })
	var out []core.RankedTask
	for _, v := range ordered {
		points := append([]*grid.TaskInstance(nil), v.Points...)
		sort.SliceStable(points, func(i, j int) bool { return v.RPM[points[i].ID] > v.RPM[points[j].ID] })
		for _, t := range points {
			out = append(out, core.RankedTask{Task: t, RPM: v.RPM[t.ID], Makespan: v.Makespan})
		}
	}
	return out
}

func refDHEFTOrder(views []core.WorkflowView) []core.RankedTask {
	out := core.Flatten(views)
	sort.SliceStable(out, func(i, j int) bool { return out[i].RPM > out[j].RPM })
	return out
}

func refDSDFOrder(views []core.WorkflowView) []core.RankedTask {
	out := core.Flatten(views)
	sort.SliceStable(out, func(i, j int) bool {
		return Deadline(out[i].Makespan, out[i].RPM) < Deadline(out[j].Makespan, out[j].RPM)
	})
	return out
}

// TestOrdersMatchSliceStable pins DSMF's, DHEFT's and DSDF's orderings to
// their sort.SliceStable versions over views whose RPMs and makespans tie
// often and include NaN, which a comparison must treat as unordered
// against everything for the permutations to agree.
func TestOrdersMatchSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	vals := []float64{0, 1, 2, 2, 3, 5, 5, math.NaN()}
	orders := []struct {
		name     string
		got, ref func([]core.WorkflowView) []core.RankedTask
	}{
		{"DSMF", core.DSMFOrder, refDSMFOrder},
		{"DHEFT", dheftOrder, refDHEFTOrder},
		{"DSDF", dsdfOrder, refDSDFOrder},
	}
	for trial := 0; trial < 300; trial++ {
		var views []core.WorkflowView
		for f := 0; f < 1+rng.Intn(5); f++ {
			// Up to 90 tasks, so a workflow's points can exceed the sorts'
			// 20-element insertion blocks and reach their merges.
			n := 1 + rng.Intn(90)
			wf := &grid.WorkflowInstance{Seq: f}
			v := core.WorkflowView{WF: wf, RPM: make([]float64, n), Makespan: vals[rng.Intn(len(vals))]}
			for i := range v.RPM {
				v.RPM[i] = vals[rng.Intn(len(vals))]
				if rng.Intn(2) == 0 {
					v.Points = append(v.Points, &grid.TaskInstance{WF: wf, ID: dag.TaskID(i)})
				}
			}
			views = append(views, v)
		}
		for _, o := range orders {
			got, want := o.got(views), o.ref(views)
			if len(got) != len(want) {
				t.Fatalf("trial %d %s: %d tasks, reference %d", trial, o.name, len(got), len(want))
			}
			for i := range got {
				if got[i].Task != want[i].Task ||
					math.Float64bits(got[i].RPM) != math.Float64bits(want[i].RPM) ||
					math.Float64bits(got[i].Makespan) != math.Float64bits(want[i].Makespan) {
					t.Fatalf("trial %d %s: position %d differs from sort.SliceStable's", trial, o.name, i)
				}
			}
		}
	}
}
