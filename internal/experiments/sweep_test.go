package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/heuristics"
)

// microScale keeps sweep tests fast: a full RunSweep cell completes in
// milliseconds.
var microScale = Scale{Name: "micro", Nodes: 30, LoadFactor: 1, HorizonHours: 4, SnapshotHours: 1}

func TestSweepSpecExpansion(t *testing.T) {
	tiny := TinyScale
	small := SmallScale
	cases := []struct {
		name      string
		spec      SweepSpec
		scenarios int
		algos     int
		first     string // Label of the first scenario
		last      string // Label of the last scenario
	}{
		{
			name:      "defaults collapse to one scenario and all algorithms",
			spec:      SweepSpec{Scales: []Scale{tiny}},
			scenarios: 1, algos: 8,
			first: "scale=tiny", last: "scale=tiny",
		},
		{
			name:      "load factor axis",
			spec:      SweepSpec{Scales: []Scale{tiny}, LoadFactors: []int{1, 2, 3}, Algorithms: []string{"DSMF"}},
			scenarios: 3, algos: 1,
			first: "scale=tiny lf=1", last: "scale=tiny lf=3",
		},
		{
			name: "churn x ccr cross product, churn outer",
			spec: SweepSpec{
				Scales:       []Scale{tiny},
				ChurnFactors: []float64{0, 0.2},
				CCRCases:     CCRCases(),
				Algorithms:   []string{"DSMF"},
			},
			scenarios: 8, algos: 1,
			first: "scale=tiny ccr=Load:10-1000 data:10-1000",
			last:  "scale=tiny churn=0.2 ccr=Load:100-10000 data:100-10000",
		},
		{
			name:      "scale axis outermost",
			spec:      SweepSpec{Scales: []Scale{tiny, small}, LoadFactors: []int{1, 2}, Algorithms: []string{"DSMF", "SMF"}},
			scenarios: 4, algos: 2,
			first: "scale=tiny lf=1", last: "scale=small lf=2",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			scens := tc.spec.Scenarios()
			if len(scens) != tc.scenarios {
				t.Fatalf("got %d scenarios, want %d", len(scens), tc.scenarios)
			}
			if got := scens[0].Label(); got != tc.first {
				t.Errorf("first scenario %q, want %q", got, tc.first)
			}
			if got := scens[len(scens)-1].Label(); got != tc.last {
				t.Errorf("last scenario %q, want %q", got, tc.last)
			}
			if got := len(tc.spec.withDefaults().Algorithms); got != tc.algos {
				t.Errorf("algorithm axis %d, want %d", got, tc.algos)
			}
		})
	}
}

func TestSweepSpecValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec SweepSpec
	}{
		{"no scales", SweepSpec{}},
		{"unknown algorithm", SweepSpec{Scales: []Scale{TinyScale}, Algorithms: []string{"nope"}}},
		{"churn above 1", SweepSpec{Scales: []Scale{TinyScale}, ChurnFactors: []float64{1.5}}},
		{"negative load factor", SweepSpec{Scales: []Scale{TinyScale}, LoadFactors: []int{-1}}},
	} {
		if _, err := RunSweepStream(tc.spec, RunOptions{}); err == nil {
			t.Errorf("%s: RunSweepStream accepted invalid spec", tc.name)
		}
	}
}

func TestSweepSeedDerivation(t *testing.T) {
	const root = 2010
	if got := sweepSeed(root, 0, 0); got != root {
		t.Fatalf("cell (0,0) seed %d, want the root %d (golden continuity)", got, root)
	}
	seen := map[int64]string{}
	for si := 0; si < 3; si++ {
		for r := 0; r < 5; r++ {
			if si == 0 && r == 0 {
				continue
			}
			s := sweepSeed(root, si, r)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision between (%d,%d) and %s", si, r, prev)
			}
			seen[s] = strings.TrimSpace(string(rune('0'+si)) + "," + string(rune('0'+r)))
			if s == root {
				t.Fatalf("derived seed (%d,%d) equals the root", si, r)
			}
		}
	}
	// Derivation must be a pure function.
	if sweepSeed(root, 2, 3) != sweepSeed(root, 2, 3) {
		t.Fatal("sweepSeed not deterministic")
	}
}

func TestRunSweepDeterministicJSON(t *testing.T) {
	spec := SweepSpec{
		Name:       "determinism",
		Scales:     []Scale{microScale},
		Algorithms: []string{"DSMF", "min-min"},
		Reps:       2,
		Seed:       7,
	}
	run := func() []byte {
		res, err := RunSweepStream(spec, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		data, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same spec produced different JSON:\n%s\nvs\n%s", a, b)
	}
	var decoded struct {
		Schema string `json:"schema"`
		Cells  []struct {
			Algo      string  `json:"algo"`
			Seeds     []int64 `json:"seeds"`
			Aggregate struct {
				ACT struct {
					N    int     `json:"n"`
					Mean float64 `json:"mean"`
				} `json:"act"`
			} `json:"aggregate"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(a, &decoded); err != nil {
		t.Fatalf("sweep JSON not parseable: %v", err)
	}
	if decoded.Schema != "p2pgridsim/sweep/v1" {
		t.Fatalf("schema %q", decoded.Schema)
	}
	if len(decoded.Cells) != 2 {
		t.Fatalf("cells %d, want 2", len(decoded.Cells))
	}
	for _, c := range decoded.Cells {
		if c.Aggregate.ACT.N != 2 {
			t.Errorf("%s: ACT estimate over %d reps, want 2", c.Algo, c.Aggregate.ACT.N)
		}
		if len(c.Seeds) != 2 || c.Seeds[0] != 7 {
			t.Errorf("%s: seeds %v, want rep 0 = root 7", c.Algo, c.Seeds)
		}
	}
}

func TestRunSweepRepZeroMatchesSingleRun(t *testing.T) {
	const seed = 42
	res, err := RunSweepStream(SweepSpec{
		Scales:     []Scale{microScale},
		Algorithms: []string{"DSMF"},
		Reps:       3,
		Seed:       seed,
	}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cell := res.Cells[0]
	single, err := Run(NewSetting(microScale, seed), heuristics.NewDSMF())
	if err != nil {
		t.Fatal(err)
	}
	if cell.Stats[0].Final != single.Final {
		t.Fatalf("replication 0 diverged from the single-seed run:\n%+v\nvs\n%+v",
			cell.Stats[0].Final, single.Final)
	}
	// Aggregate mean must be the plain mean of the replications.
	var mean float64
	for _, st := range cell.Stats {
		mean += st.Final.ACT
	}
	mean /= float64(len(cell.Stats))
	if math.Abs(cell.Agg.ACT.Mean-mean) > 1e-9 {
		t.Fatalf("aggregate ACT mean %v, want %v", cell.Agg.ACT.Mean, mean)
	}
	if cell.Agg.CompletionRate.Mean < 0 || cell.Agg.CompletionRate.Mean > 1 {
		t.Fatalf("completion rate %v outside [0,1]", cell.Agg.CompletionRate.Mean)
	}
}

func TestRunSweepProgressAndErrorBars(t *testing.T) {
	spec := SweepSpec{
		Scales:     []Scale{microScale},
		Algorithms: []string{"DSMF", "SMF"},
		Reps:       2,
		Seed:       3,
	}
	var calls int
	var last [2]int
	progress := RunOptions{Progress: func(done, total int) {
		calls++
		last = [2]int{done, total}
	}}
	res, err := RunSweepStream(spec, progress)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 4 || last != [2]int{4, 4} {
		t.Fatalf("progress calls=%d last=%v, want 4 calls ending (4,4)", calls, last)
	}
	// A shard and a cell unit count only the jobs they were given, so each
	// call's progress ends at (n, n) for its own n.
	for i := 0; i < 3; i++ {
		part, err := RunShard(spec, i, 3, progress)
		if err != nil {
			t.Fatal(err)
		}
		if n := part.NumCovered(); last != [2]int{n, n} {
			t.Fatalf("shard %d/3 over %d jobs: last progress %v", i, n, last)
		}
	}
	if _, err := RunCellUnit(spec, 1, progress); err != nil {
		t.Fatal(err)
	}
	if last != [2]int{2, 2} {
		t.Fatalf("cell unit over 2 jobs: last progress %v, want (2,2)", last)
	}
	set := res.Fig5FinishTime()
	if len(set.Series) != 2 {
		t.Fatalf("series %d, want 2", len(set.Series))
	}
	for _, ls := range set.Series {
		if ls.Err == nil || len(ls.Err) != len(ls.Y) {
			t.Fatalf("%s: replicated series missing error bars (Y=%d Err=%d)", ls.Label, len(ls.Y), len(ls.Err))
		}
	}
	// Error bars must survive the artifact pipeline.
	csv := set.CSV()
	if !strings.Contains(csv, "DSMF_ci95") {
		t.Fatalf("CSV missing CI column:\n%s", csv)
	}
	gp := set.GnuplotScript("f.dat", "f.png")
	if !strings.Contains(gp, "yerrorlines") {
		t.Fatalf("gnuplot script missing yerrorlines:\n%s", gp)
	}
	if !strings.Contains(gp, "using 1:4:5") {
		t.Fatalf("gnuplot error-bar columns wrong:\n%s", gp)
	}
	dat := set.DAT()
	if !strings.Contains(dat, "DSMF_ci95") {
		t.Fatalf("DAT missing CI column:\n%s", dat)
	}
}

func TestStaticComparisonRepSharesScenarioInputs(t *testing.T) {
	res, err := RunSweepStream(SweepSpec{
		Scales:     []Scale{microScale},
		Algorithms: []string{"DSMF", "min-min"},
		Reps:       2,
		Seed:       9,
	}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dsmf, minmin := res.Cells[0], res.Cells[1]
	if dsmf.Algo != "DSMF" || minmin.Algo != "min-min" {
		t.Fatalf("cells out of spec order: %s, %s", dsmf.Algo, minmin.Algo)
	}
	for r := range dsmf.Stats {
		if dsmf.Stats[r].Submitted != minmin.Stats[r].Submitted {
			t.Fatalf("rep %d: algorithms faced different workload sizes", r)
		}
		if dsmf.Seeds[r] != minmin.Seeds[r] {
			t.Fatalf("rep %d: algorithms got different seeds (pairing broken)", r)
		}
	}
	if dsmf.Stats[0].Final.ACT == dsmf.Stats[1].Final.ACT {
		t.Fatal("replications produced identical ACT (independence broken)")
	}
}

func TestChurnScenarioKeepsWorkflowTotal(t *testing.T) {
	res, err := RunSweepStream(SweepSpec{
		Scales:       []Scale{microScale},
		Algorithms:   []string{"DSMF"},
		ChurnFactors: []float64{0, 0.3},
		Seed:         5,
	}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	static, churny := res.Cells[0], res.Cells[1]
	if static.Stats[0].Submitted != churny.Stats[0].Submitted {
		t.Fatalf("churn cell submitted %d workflows, static %d: totals must match",
			churny.Stats[0].Submitted, static.Stats[0].Submitted)
	}
	if churny.Scenario.Churn != 0.3 {
		t.Fatalf("cell order wrong: %+v", churny.Scenario)
	}
}
