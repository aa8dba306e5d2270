package experiments

import (
	"fmt"

	"repro/internal/experiments/executor"
	"repro/internal/heuristics"
	"repro/internal/metrics"
)

// OracleAblation quantifies the cost of decentralized information: DSMF
// driven by the gossip view versus DSMF with oracle bandwidth and averages.
// This is a reproduction extension, not a paper figure - it measures how
// much the mixed gossip protocol gives up against perfect knowledge.
func OracleAblation(scale Scale, seed int64) (Table, error) {
	base := NewSetting(scale, seed)
	if _, err := base.BuildNet(); err != nil {
		return Table{}, err
	}
	oracle := base
	oracle.OracleBandwidth = true
	oracle.OracleAverages = true

	results, err := runDSMF(base, oracle)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title:  "Ablation: DSMF with gossip information vs oracle information",
		Header: []string{"information", "completed", "ACT(s)", "AE"},
	}
	labels := []string{"gossip (paper)", "oracle"}
	for i, r := range results {
		t.Rows = append(t.Rows, []string{
			labels[i],
			fmt.Sprintf("%d", r.Final.Completed),
			fmt.Sprintf("%.0f", r.Final.ACT),
			fmt.Sprintf("%.3f", r.Final.AE),
		})
	}
	return t, nil
}

// runDSMF runs DSMF once under each setting on executor.Local's pool,
// returning the results in the settings' order. The two-setting ablations
// use it: their settings differ in switches no sweep axis carries.
func runDSMF(settings ...Setting) ([]Result, error) {
	results := make([]Result, len(settings))
	ids := make([]int, len(settings))
	for i := range ids {
		ids[i] = i
	}
	err := executor.Local{}.Execute(ids, func(i int) error {
		var err error
		results[i], err = Run(settings[i], heuristics.NewDSMF())
		return err
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// ScalabilityScales returns the Fig. 11 system-size axis for a scale
// preset (the paper sweeps 200..2000 nodes): the preset at each size,
// named like "tiny-n30" so sweep cells stay distinguishable.
func ScalabilityScales(scale Scale) []Scale {
	var sizes []int
	switch scale.Name {
	case "paper":
		sizes = []int{200, 400, 600, 800, 1000, 1200, 1400, 1600, 1800, 2000}
	case "small":
		sizes = []int{50, 100, 150, 200, 300}
	default:
		sizes = []int{30, 60, 90}
	}
	scales := make([]Scale, len(sizes))
	for i, n := range sizes {
		scales[i] = scale
		scales[i].Name = fmt.Sprintf("%s-n%d", scale.Name, n)
		scales[i].Nodes = n
	}
	return scales
}

// ScalabilityTable renders Fig. 11's three panels as one table, one row
// per cell of a ScalabilitySweep result (mean ± 95% CI when replicated).
func ScalabilityTable(res *SweepResult) Table {
	t := Table{
		Title:  "Fig. 11: System Scalability of DSMF (a: idle nodes known, b: AE, c: ACT)",
		Header: []string{"nodes", "idle known", "|RSS|", "AE", "ACT(s)"},
	}
	for _, c := range res.Cells {
		idle := make([]float64, len(c.Stats))
		rss := make([]float64, len(c.Stats))
		for r, st := range c.Stats {
			idle[r], rss[r] = st.Final.MeanIdleKnown, st.Final.MeanRSS
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", c.Scenario.Scale.Nodes),
			formatEstimate(metrics.EstimateOf(idle), 1),
			formatEstimate(metrics.EstimateOf(rss), 1),
			formatEstimate(c.Agg.AE, 3),
			formatEstimate(c.Agg.ACT, 0),
		})
	}
	return t
}
