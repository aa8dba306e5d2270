package experiments

import (
	"strings"
	"testing"

	"repro/internal/heuristics"
	"repro/internal/metrics"
)

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"paper", "small", "tiny"} {
		s, err := ScaleByName(name)
		if err != nil {
			t.Fatalf("ScaleByName(%s): %v", name, err)
		}
		if s.Name != name || s.Nodes <= 0 {
			t.Fatalf("bad scale %+v", s)
		}
	}
	if _, err := ScaleByName("galactic"); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

func TestRunProducesSnapshotsAndCompletions(t *testing.T) {
	r, err := Run(NewSetting(TinyScale, 1), heuristics.NewDSMF())
	if err != nil {
		t.Fatal(err)
	}
	if r.Algo != "DSMF" {
		t.Fatalf("algo label %s", r.Algo)
	}
	if r.Submitted != TinyScale.Nodes*TinyScale.LoadFactor {
		t.Fatalf("submitted %d, want %d", r.Submitted, TinyScale.Nodes*TinyScale.LoadFactor)
	}
	wantSnaps := int(TinyScale.HorizonHours / TinyScale.SnapshotHours)
	if len(r.Collector.Snapshots) != wantSnaps {
		t.Fatalf("snapshots %d, want %d", len(r.Collector.Snapshots), wantSnaps)
	}
	if r.Final.Completed == 0 {
		t.Fatal("nothing completed in the tiny static run")
	}
	if r.CCR <= 0 {
		t.Fatalf("CCR %v", r.CCR)
	}
	tp := r.Collector.Throughput()
	for i := 1; i < len(tp); i++ {
		if tp[i] < tp[i-1] {
			t.Fatalf("throughput decreased at snapshot %d: %v", i, tp)
		}
	}
}

func TestRunDeterministicForSameSeed(t *testing.T) {
	a, err := Run(NewSetting(TinyScale, 7), heuristics.NewDSMF())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(NewSetting(TinyScale, 7), heuristics.NewDSMF())
	if err != nil {
		t.Fatal(err)
	}
	if a.Final.Completed != b.Final.Completed || a.Final.ACT != b.Final.ACT || a.Final.AE != b.Final.AE {
		t.Fatalf("same seed diverged: %+v vs %+v", a.Final, b.Final)
	}
	c, err := Run(NewSetting(TinyScale, 8), heuristics.NewDSMF())
	if err != nil {
		t.Fatal(err)
	}
	if a.Final.ACT == c.Final.ACT && a.Final.AE == c.Final.AE {
		t.Fatal("different seeds produced identical metrics (suspicious)")
	}
}

// Shape check against the paper's headline claim: DSMF beats the
// decentralized HEFT on both ACT and AE, and reaches higher mid-run
// throughput (Figs. 4-6). A small 24-hour run is enough for the ordering
// to be stable.
func TestDSMFBeatsDHEFTShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation in -short mode")
	}
	scale := Scale{Name: "shape", Nodes: 80, LoadFactor: 2, HorizonHours: 24, SnapshotHours: 1}
	res, err := RunSweepStream(SweepSpec{
		Scales:     []Scale{scale},
		Algorithms: []string{"DSMF", "DHEFT"},
		Seed:       11,
	}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dsmf, dheft := res.Cells[0].Stats[0], res.Cells[1].Stats[0]
	if dsmf.Final.ACT >= dheft.Final.ACT {
		t.Errorf("DSMF ACT %.0f not below DHEFT ACT %.0f", dsmf.Final.ACT, dheft.Final.ACT)
	}
	if dsmf.Final.AE <= dheft.Final.AE {
		t.Errorf("DSMF AE %.3f not above DHEFT AE %.3f", dsmf.Final.AE, dheft.Final.AE)
	}
	// Cumulative area under the throughput curve captures "finishes work
	// earlier" more robustly than any single sample.
	area := func(st metrics.RunStats) (sum float64) {
		for _, v := range st.Throughput {
			sum += v
		}
		return
	}
	if area(dsmf) <= area(dheft) {
		t.Errorf("DSMF throughput area %v not above DHEFT %v", area(dsmf), area(dheft))
	}
}

func TestChurnSweepDegradesThroughputOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation in -short mode")
	}
	scale := Scale{Name: "churn", Nodes: 60, LoadFactor: 1, HorizonHours: 18, SnapshotHours: 1}
	res, err := ChurnSweepRep(scale, 13, []float64{0, 0.3}, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	static, churny := res.Cells[0].Stats[0], res.Cells[1].Stats[0]
	if static.Final.Failed != 0 {
		t.Fatalf("df=0 failed %d workflows", static.Final.Failed)
	}
	if churny.Final.Failed == 0 {
		t.Fatal("df=0.3 produced no failures (churn not biting)")
	}
	if churny.Final.Completed >= static.Final.Completed {
		t.Fatalf("churn throughput %d not below static %d",
			churny.Final.Completed, static.Final.Completed)
	}
	if label := churnLabel(&res.Cells[1]); label != "df=0.3" {
		t.Fatalf("cell label %s", label)
	}
}

func TestReschedulingImprovesChurnThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation in -short mode")
	}
	scale := Scale{Name: "resched", Nodes: 60, LoadFactor: 1, HorizonHours: 18, SnapshotHours: 1}
	plain, err := ChurnSweepRep(scale, 17, []float64{0.3}, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	resched, err := ChurnSweepRep(scale, 17, []float64{0.3}, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, r := plain.Cells[0].Stats[0].Final, resched.Cells[0].Stats[0].Final
	if r.Completed < p.Completed {
		t.Errorf("rescheduling lowered throughput: %d vs %d", r.Completed, p.Completed)
	}
}

func TestScalabilitySweepBoundsGossipView(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation in -short mode")
	}
	base := Scale{Name: "scal", Nodes: 0, LoadFactor: 1, HorizonHours: 10, SnapshotHours: 1}
	res, err := ScalabilitySweep(base, 19, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 3 {
		t.Fatalf("cells %d, want one per size of the default axis (30, 60, 90)", len(res.Cells))
	}
	var rss []float64
	for _, c := range res.Cells {
		if c.Algo != "DSMF" {
			t.Fatalf("scalability cell runs %s, want DSMF", c.Algo)
		}
		final := c.Stats[0].Final
		if final.MeanRSS <= 0 {
			t.Fatalf("%s: empty RSS", c.Scenario.Scale.Name)
		}
		if final.MeanRSS > 40 {
			t.Fatalf("%s: RSS %v not bounded", c.Scenario.Scale.Name, final.MeanRSS)
		}
		if final.MeanIdleKnown > final.MeanRSS {
			t.Fatalf("idle known %v exceeds RSS %v", final.MeanIdleKnown, final.MeanRSS)
		}
		rss = append(rss, final.MeanRSS)
	}
	if rss[2] <= rss[0] {
		t.Errorf("RSS should grow (log-like) with scale: %v", rss)
	}
	if rows := ScalabilityTable(res).Rows; len(rows) != 3 || rows[0][0] != "30" {
		t.Errorf("scalability table rows: %v", rows)
	}
}

func TestTableIContent(t *testing.T) {
	tbl := TableI()
	out := tbl.Format()
	for _, frag := range []string{"MIPS", "2 - 30", "0.1 - 10 Mb/s", "100 - 10000 MI"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Table I output missing %q", frag)
		}
	}
	if len(tbl.Rows) < 8 {
		t.Fatalf("Table I has %d rows", len(tbl.Rows))
	}
}

func TestCCRCasesMatchPaperRegimes(t *testing.T) {
	cases := CCRCases()
	if len(cases) != 4 {
		t.Fatalf("%d CCR cases, want 4", len(cases))
	}
	const avgCap, avgBW = 6.2, 5.05
	var ccrs []float64
	for _, c := range cases {
		cfg := NewSetting(TinyScale, 1)
		cfg.Gen.LoadMI = c.LoadMI
		cfg.Gen.DataMb = c.DataMb
		ccrs = append(ccrs, cfg.Gen.DataMb.Mid()/avgBW/(cfg.Gen.LoadMI.Mid()/avgCap))
	}
	// Figure order: ~1.6, ~16, ~0.16, ~1.6.
	if !(ccrs[1] > ccrs[0] && ccrs[0] > ccrs[2]) {
		t.Fatalf("CCR ordering wrong: %v", ccrs)
	}
}

func TestFormatsRender(t *testing.T) {
	tbl := Table{Title: "T", Header: []string{"a", "bb"}, Rows: [][]string{{"x", "y"}}}
	out := tbl.Format()
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "x") {
		t.Fatalf("table format broken:\n%s", out)
	}
	ss := SeriesSet{Title: "S", XLabel: "x", YLabel: "y", X: []float64{1, 2},
		Series: []LabeledSeries{{Label: "l", Y: []float64{3, 4}}}}
	sout := ss.Format()
	if !strings.Contains(sout, "S\n") || !strings.Contains(sout, "3.000") {
		t.Fatalf("series format broken:\n%s", sout)
	}
	// Ragged series render placeholders rather than panicking.
	ragged := SeriesSet{Title: "R", X: []float64{1, 2}, Series: []LabeledSeries{{Label: "l", Y: []float64{3}}}}
	if !strings.Contains(ragged.Format(), "-") {
		t.Fatal("ragged series missing placeholder")
	}
}

// TestReplicateAggregatesAcrossSeeds runs the Section IV.B ablation over
// three seeds: every cell aggregates three independent replications, and
// the table reports mean ± 95% CI.
func TestReplicateAggregatesAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation in -short mode")
	}
	table, res, err := FCFSAblation(microScale, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 8 || len(table.Rows) != 4 {
		t.Fatalf("%d cells and %d rows, want 8 and 4", len(res.Cells), len(table.Rows))
	}
	if res.Cells[0].Algo != "min-min" || res.Cells[1].Algo != "min-min+FCFS" {
		t.Fatalf("cells run %s, %s; want each policy next to its FCFS variant", res.Cells[0].Algo, res.Cells[1].Algo)
	}
	for _, c := range res.Cells {
		if c.Agg.Reps != 3 || c.Agg.ACT.N != 3 {
			t.Fatalf("cell %s aggregates %d/%d replications", c.Algo, c.Agg.Reps, c.Agg.ACT.N)
		}
		if c.Agg.ACT.Mean <= 0 || c.Agg.Completed.Mean <= 0 {
			t.Fatalf("cell %s empty: %+v", c.Algo, c.Agg)
		}
		// Independent seeds must actually vary.
		if c.Agg.ACT.Std == 0 {
			t.Fatalf("cell %s shows zero variance across seeds", c.Algo)
		}
	}
	out := table.Format()
	if !strings.Contains(out, "±") || !strings.Contains(out, "over 3 seeds") {
		t.Fatalf("replicated table missing ± columns or seed count:\n%s", out)
	}
}

func TestExtensionExperimentsProduceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation in -short mode")
	}
	shoot, err := PlannerShootout(TinyScale, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(shoot.Rows) != 5 {
		t.Fatalf("shootout rows %d", len(shoot.Rows))
	}
	fam, err := FamilyComparison(TinyScale, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(fam.Rows) != 4 {
		t.Fatalf("family rows %d", len(fam.Rows))
	}
	churn, err := ChurnModelAblation(TinyScale, 5, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(churn.Rows) != 2 {
		t.Fatalf("churn model rows %d", len(churn.Rows))
	}
}

func TestReportRendersShapeChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation in -short mode")
	}
	out, err := Report(TinyScale, 21)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"# Reproduction report", "Shape checks", "DSMF", "SMF", "| algorithm |"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("report missing %q:\n%s", frag, out)
		}
	}
	if !strings.Contains(out, "PASS") {
		t.Fatal("report contains no passing checks")
	}
}
