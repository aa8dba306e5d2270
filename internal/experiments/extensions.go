package experiments

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/grid"
	"repro/internal/heuristics"
	"repro/internal/stats"
)

// PlannerShootout compares the full-ahead planner family on one workload:
// HEFT (non-insertion, the paper's baseline), insertion-based HEFT, the
// one-level-lookahead LAHEFT the paper's related work credits with up to
// 20% improvement, CPOP, and SMF. A reproduction extension: it shows how
// much the paper's HEFT baseline gains from insertion and lookahead.
func PlannerShootout(scale Scale, seed int64) (Table, error) {
	res, err := RunSweepStream(SweepSpec{
		Name:       "planner-shootout",
		Scales:     []Scale{scale},
		Algorithms: []string{"HEFT", "HEFT-ins", "LAHEFT", "CPOP", "SMF"},
		Seed:       seed,
	}, RunOptions{})
	if err != nil {
		return Table{}, err
	}
	return res.SummaryTable("Full-ahead planner shootout (extension)"), nil
}

// ChurnModelAblation contrasts the default graceful churn-loss model with
// the maximal-loss HarshChurn variant at one dynamic factor, in the Fig.
// 12-14 layout. The paper does not say what a departing node loses, so
// the gap measures how much that unspecified choice matters.
func ChurnModelAblation(scale Scale, seed int64, df float64) (Table, error) {
	soft := Scenario{Scale: scale, Churn: df, ChurnLayout: true}.setting(seed, nil, false)
	if _, err := soft.BuildNet(); err != nil {
		return Table{}, err
	}
	harsh := soft
	harsh.Harsh = true
	results, err := runDSMF(soft, harsh)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title:  fmt.Sprintf("Churn loss-model ablation at df=%.1f (extension)", df),
		Header: []string{"loss model", "completed", "failed", "ACT(s)", "AE"},
	}
	labels := []string{"graceful (default)", "harsh (maximal loss)"}
	for i, r := range results {
		t.Rows = append(t.Rows, []string{
			labels[i],
			fmt.Sprintf("%d", r.Final.Completed),
			fmt.Sprintf("%d", r.Final.Failed),
			fmt.Sprintf("%.0f", r.Final.ACT),
			fmt.Sprintf("%.3f", r.Final.AE),
		})
	}
	return t, nil
}

// FamilyComparison runs DSMF on each structured workflow family (the
// domain scenarios the paper's introduction motivates) and reports
// per-family ACT/AE - a library-level scenario study.
func FamilyComparison(scale Scale, seed int64) (Table, error) {
	setting := NewSetting(scale, seed)
	if _, err := setting.BuildNet(); err != nil {
		return Table{}, err
	}
	t := Table{
		Title:  "DSMF on structured workflow families (extension)",
		Header: []string{"family", "workflows", "completed", "ACT(s)", "AE", "depth", "parallelism"},
	}
	for _, fam := range dag.Families() {
		engine, g, err := BuildGrid(setting, heuristics.NewDSMF())
		if err != nil {
			return Table{}, err
		}
		rng := stats.NewRand(seed, uint64(len(fam)))
		weights := dag.DefaultWeights(rng)
		count := scale.Nodes * scale.LoadFactor / 4
		if count < 4 {
			count = 4
		}
		var shapes []dag.Shape
		for i := 0; i < count; i++ {
			w, err := dag.FamilyByName(fam, fmt.Sprintf("%s-%d", fam, i), 4+i%4, weights)
			if err != nil {
				return Table{}, err
			}
			shapes = append(shapes, dag.ShapeOf(w))
			if _, err := g.Submit(i%scale.Nodes, w); err != nil {
				return Table{}, err
			}
		}
		g.Start()
		engine.RunUntil(scale.HorizonHours * 3600)
		var ct, eff []float64
		completed := 0
		for _, wf := range g.Workflows {
			if wf.State == grid.WorkflowCompleted {
				completed++
				ct = append(ct, wf.CompletionTime())
				eff = append(eff, wf.Efficiency())
			}
		}
		var depth, par float64
		for _, s := range shapes {
			depth += float64(s.Depth)
			par += s.Parallelism
		}
		t.Rows = append(t.Rows, []string{
			fam,
			fmt.Sprintf("%d", count),
			fmt.Sprintf("%d", completed),
			fmt.Sprintf("%.0f", stats.Mean(ct)),
			fmt.Sprintf("%.3f", stats.Mean(eff)),
			fmt.Sprintf("%.1f", depth/float64(len(shapes))),
			fmt.Sprintf("%.1f", par/float64(len(shapes))),
		})
	}
	return t, nil
}
