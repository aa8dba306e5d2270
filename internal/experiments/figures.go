package experiments

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/stats"
)

// LabeledSeries is one curve of a figure. Err, when non-nil, holds the
// per-point 95% confidence half-widths of a replicated sweep (error bars);
// single-run series leave it nil.
type LabeledSeries struct {
	Label string
	Y     []float64
	Err   []float64
}

// SeriesSet is a multi-curve figure over a shared X axis.
type SeriesSet struct {
	Title          string
	XLabel, YLabel string
	X              []float64
	Series         []LabeledSeries
}

// Table is a row/column result (the bar-chart figures and ablations).
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// StaticComparisonRep runs all eight algorithms under the headline static
// setting of Figs. 4-6 (shared topology and workload per replication),
// replicated over reps independent seeds through the streaming sweep
// engine. Replication 0 runs at the root seed itself, so its per-run
// records (Cell.Stats[0]) are the single-seed comparison the golden
// determinism test pins.
func StaticComparisonRep(scale Scale, seed int64, reps int) (*SweepResult, error) {
	return RunSweepStream(SweepSpec{
		Name:   "static-comparison",
		Scales: []Scale{scale},
		Seed:   seed,
		Reps:   reps,
	}, RunOptions{})
}

// Figure titles of the static comparison.
const (
	fig4Title = "Fig. 4: Throughput of Workflows in Static P2P Grid System"
	fig5Title = "Fig. 5: Average Finish-time of Workflows in Static P2P Grid System"
	fig6Title = "Fig. 6: Average Efficiency of Workflows in Static P2P Grid System"
)

// Streaming-side series extractors: the runner drops full Results as cells
// finalize, so replicated figures read the reduced per-replication records.
func statThroughput(st *metrics.RunStats) []float64 { return st.Throughput }
func statACT(st *metrics.RunStats) []float64        { return st.ACT }
func statAE(st *metrics.RunStats) []float64         { return st.AE }

// Fig4Throughput, Fig5FinishTime and Fig6Efficiency on a SweepResult
// extract the static figures with error bars (mean ± 95% CI across the
// sweep's replications).
func (r *SweepResult) Fig4Throughput() SeriesSet {
	return r.Series(fig4Title, "hour", "# of workflows finished", statThroughput)
}

// Fig5FinishTime extracts the replicated ACT series of Fig. 5.
func (r *SweepResult) Fig5FinishTime() SeriesSet {
	return r.Series(fig5Title, "hour", "ACT (s)", statACT)
}

// Fig6Efficiency extracts the replicated AE series of Fig. 6.
func (r *SweepResult) Fig6Efficiency() SeriesSet {
	return r.Series(fig6Title, "hour", "AE", statAE)
}

// FCFSAblation reproduces the Section IV.B numbers: the converged ACT of
// min-min, max-min, sufferage and DHEFT with their second-phase policies
// versus the "original versions using FCFS on the second-phase scheduling".
// reps > 1 replicates the comparison over independent seeds and reports
// mean ± 95% CI: the paper's own max-min gap (33495 vs 33746) is under 1%,
// well inside single-run noise, so multi-seed means are the honest
// comparison. Cells alternate policy and FCFS variant per base algorithm.
func FCFSAblation(scale Scale, seed int64, reps int) (Table, *SweepResult, error) {
	var algos []string
	for _, base := range []string{"min-min", "max-min", "sufferage", "DHEFT"} {
		algos = append(algos, base, base+"+FCFS")
	}
	res, err := RunSweepStream(SweepSpec{
		Name:       "fcfs-ablation",
		Scales:     []Scale{scale},
		Algorithms: algos,
		Seed:       seed,
		Reps:       reps,
	}, RunOptions{})
	if err != nil {
		return Table{}, nil, err
	}
	title := "Section IV.B: converged ACT with second-phase policy vs FCFS"
	if res.Spec.Reps > 1 {
		title += fmt.Sprintf(" (mean ± 95%% CI over %d seeds)", res.Spec.Reps)
	}
	table := Table{
		Title:  title,
		Header: []string{"algorithm", "ACT(policy)", "ACT(FCFS)", "policy wins"},
	}
	for i := 0; i < len(res.Cells); i += 2 {
		with, fcfs := res.Cells[i].Agg.ACT, res.Cells[i+1].Agg.ACT
		table.Rows = append(table.Rows, []string{
			res.Cells[i].Algo,
			formatEstimate(with, 0),
			formatEstimate(fcfs, 0),
			fmt.Sprintf("%v", with.Mean <= fcfs.Mean),
		})
	}
	return table, res, nil
}

// LoadFactorAxis returns the load-factor axis 1..maxLF of the Figs. 7-8
// sweep (shared by the figure runner and the CLI sweep's lf axis).
func LoadFactorAxis(maxLF int) ([]int, error) {
	if maxLF < 1 {
		return nil, fmt.Errorf("experiments: load-factor axis needs maxLF >= 1, got %d", maxLF)
	}
	lfs := make([]int, maxLF)
	for i := range lfs {
		lfs[i] = i + 1
	}
	return lfs, nil
}

// LoadFactorSweepRep replicates the Figs. 7-8 load-factor sweep over reps
// independent seeds through the sweep engine; with reps > 1 every cell
// reports mean ± 95% CI.
func LoadFactorSweepRep(scale Scale, seed int64, maxLF, reps int) (actTable, aeTable Table, err error) {
	lfs, err := LoadFactorAxis(maxLF)
	if err != nil {
		return
	}
	res, err := RunSweepStream(SweepSpec{
		Name:        "load-factor",
		Scales:      []Scale{scale},
		Seed:        seed,
		Reps:        reps,
		LoadFactors: lfs,
	}, RunOptions{})
	if err != nil {
		return
	}
	algos := res.Spec.Algorithms
	actTable = Table{Title: "Fig. 7: Average finish-time vs load factor", Header: []string{"algorithm"}}
	aeTable = Table{Title: "Fig. 8: Average efficiency vs load factor", Header: []string{"algorithm"}}
	for _, lf := range lfs {
		actTable.Header = append(actTable.Header, fmt.Sprintf("lf=%d", lf))
		aeTable.Header = append(aeTable.Header, fmt.Sprintf("lf=%d", lf))
	}
	for ai, a := range algos {
		actRow := []string{a}
		aeRow := []string{a}
		for lfi := range lfs {
			c := res.Cells[lfi*len(algos)+ai]
			actRow = append(actRow, formatEstimate(c.Agg.ACT, 0))
			aeRow = append(aeRow, formatEstimate(c.Agg.AE, 3))
		}
		actTable.Rows = append(actTable.Rows, actRow)
		aeTable.Rows = append(aeTable.Rows, aeRow)
	}
	return actTable, aeTable, nil
}

// CCRCase is one of the four load/data combinations of Figs. 9-10.
type CCRCase struct {
	Label  string
	LoadMI stats.Range
	DataMb stats.Range
}

// CCRCases returns the paper's four combinations (CCR roughly 1.6, 0.16,
// 1.6 and 16 in figure order).
func CCRCases() []CCRCase {
	return []CCRCase{
		{"Load:10-1000 data:10-1000", stats.Range{Min: 10, Max: 1000}, stats.Range{Min: 10, Max: 1000}},
		{"Load:10-1000 data:100-10000", stats.Range{Min: 10, Max: 1000}, stats.Range{Min: 100, Max: 10000}},
		{"Load:100-10000 data:10-1000", stats.Range{Min: 100, Max: 10000}, stats.Range{Min: 10, Max: 1000}},
		{"Load:100-10000 data:100-10000", stats.Range{Min: 100, Max: 10000}, stats.Range{Min: 100, Max: 10000}},
	}
}

// CCRSweepRep replicates the Figs. 9-10 CCR sweep over reps independent
// seeds through the sweep engine; with reps > 1 every cell reports
// mean ± 95% CI.
func CCRSweepRep(scale Scale, seed int64, reps int) (actTable, aeTable Table, err error) {
	cases := CCRCases()
	res, err := RunSweepStream(SweepSpec{
		Name:     "ccr",
		Scales:   []Scale{scale},
		Seed:     seed,
		Reps:     reps,
		CCRCases: cases,
	}, RunOptions{})
	if err != nil {
		return
	}
	algos := res.Spec.Algorithms
	actTable = Table{Title: "Fig. 9: Average finish-time under different CCRs", Header: []string{"algorithm"}}
	aeTable = Table{Title: "Fig. 10: Average efficiency under different CCRs", Header: []string{"algorithm"}}
	for _, c := range cases {
		actTable.Header = append(actTable.Header, c.Label)
		aeTable.Header = append(aeTable.Header, c.Label)
	}
	for ai, a := range algos {
		actRow := []string{a}
		aeRow := []string{a}
		for ci := range cases {
			c := res.Cells[ci*len(algos)+ai]
			actRow = append(actRow, formatEstimate(c.Agg.ACT, 0))
			aeRow = append(aeRow, formatEstimate(c.Agg.AE, 3))
		}
		actTable.Rows = append(actTable.Rows, actRow)
		aeTable.Rows = append(aeTable.Rows, aeRow)
	}
	return actTable, aeTable, nil
}

// ScalabilitySweep runs Fig. 11: DSMF alone across the ScalabilityScales
// axis of the given preset, replicated over reps independent seeds. It is
// the CLI's -axes scale sweep spec; ScalabilityTable renders the result.
func ScalabilitySweep(scale Scale, seed int64, reps int) (*SweepResult, error) {
	return RunSweepStream(SweepSpec{
		Name:       "scalability",
		Scales:     ScalabilityScales(scale),
		Algorithms: []string{"DSMF"},
		Seed:       seed,
		Reps:       reps,
	}, RunOptions{})
}

// ChurnSweepRep runs Figs. 12-14 through the sweep engine: DSMF under
// increasing dynamic factors, half the nodes stable (all homes among them,
// at twice the load factor) and the other half churning. The df=0 baseline
// keeps the same half-homes layout (SweepSpec.ChurnLayout), so every cell
// of the axis is directly comparable; reps > 1 replicates the whole axis
// over independent seeds and the figure extractors gain 95% CI error bars,
// exactly like Figs. 4-10. Setting reschedule=true exercises the paper's
// future-work extension in every cell.
func ChurnSweepRep(scale Scale, seed int64, dfs []float64, reschedule bool, reps int) (*SweepResult, error) {
	return RunSweepStream(SweepSpec{
		Name:         "churn",
		Scales:       []Scale{scale},
		Algorithms:   []string{"DSMF"},
		Seed:         seed,
		Reps:         reps,
		ChurnFactors: dfs,
		ChurnLayout:  true,
		Reschedule:   reschedule,
	}, RunOptions{})
}

// churnLabel names a churn-axis cell the way the paper's legends do.
func churnLabel(c *Cell) string { return fmt.Sprintf("df=%.1f", c.Scenario.Churn) }

// Figure titles of the churn sweep.
const (
	fig12Title = "Fig. 12: Throughput of DSMF in Dynamic Environment"
	fig13Title = "Fig. 13: Average Finish-Time of DSMF in Dynamic Environment"
	fig14Title = "Fig. 14: Average Efficiency of DSMF in Dynamic Environment"
)

// Fig12Throughput, Fig13FinishTime and Fig14Efficiency on a SweepResult
// extract the churn figures from a ChurnSweepRep run, one curve per
// dynamic factor with error bars when replicated.
func (r *SweepResult) Fig12Throughput() SeriesSet {
	return r.SeriesBy(fig12Title, "hour", "# of workflows finished", statThroughput, churnLabel)
}

// Fig13FinishTime extracts the replicated churn ACT series.
func (r *SweepResult) Fig13FinishTime() SeriesSet {
	return r.SeriesBy(fig13Title, "hour", "ACT (s)", statACT, churnLabel)
}

// Fig14Efficiency extracts the replicated churn AE series.
func (r *SweepResult) Fig14Efficiency() SeriesSet {
	return r.SeriesBy(fig14Title, "hour", "AE", statAE, churnLabel)
}

// ChurnSummaryTable condenses a ChurnSweepRep result into the final-state
// comparison, one row per dynamic factor.
func (r *SweepResult) ChurnSummaryTable(title string) Table {
	return r.summaryTable(title, churnLabel)
}

// TableI returns the experimental-setting table exactly as printed in the
// paper, as implemented by this reproduction's defaults.
func TableI() Table {
	return Table{
		Title:  "Table I: Experimental Setting",
		Header: []string{"parameter", "value"},
		Rows: [][]string{
			{"# of nodes", "200 - 2000"},
			{"# of tasks per workflow", "2 - 30"},
			{"computing amount per task", "100 - 10000 MI"},
			{"image size per task", "10 - 100 Mb"},
			{"dependent data size", "100 - 10000 Mb (10 - 1000 in Figs. 4-6)"},
			{"network bandwidth", "0.1 - 10 Mb/s"},
			{"node capacity", "1, 2, 4, 8 or 16 MIPS"},
			{"CCR", "0.16 - 16"},
			{"scheduling interval", "15 min"},
			{"gossip cycle", "5 min, TTL 4, fan-out log2(n)"},
		},
	}
}
