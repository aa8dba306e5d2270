package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
)

// runCLI invokes cliMain with captured output.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errBuf syncBuffer
	code = cliMain(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

// syncBuffer is a bytes.Buffer that takes the concurrent writes of a
// daemon: its request handlers log while its main goroutine reports.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestErrorPathsExitNonZero pins the exit-code contract: every bad input
// must fail loudly. The positional-argument case used to silently run the
// default experiment and exit 0, and so did the last three, which ran
// while ignoring part of what was asked (TestFlagScopes pins their code
// and message).
func TestErrorPathsExitNonZero(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown experiment", []string{"-experiment", "bogus", "-scale", "tiny"}},
		{"unknown scale", []string{"-experiment", "table1", "-scale", "galactic"}},
		{"unknown algorithm", []string{"-experiment", "single", "-algo", "nope", "-scale", "tiny"}},
		{"unknown flag", []string{"-definitely-not-a-flag"}},
		{"stray positional argument", []string{"sweep"}},
		{"positional after flags", []string{"-scale", "tiny", "fig4-6"}},
		{"non-positive reps", []string{"-experiment", "table1", "-reps", "0"}},
		{"negative maxlf on fig7-8", []string{"-experiment", "fig7-8", "-scale", "tiny", "-maxlf", "-1"}},
		{"negative maxlf on sweep lf axis", []string{"-experiment", "sweep", "-scale", "tiny", "-axes", "lf", "-maxlf", "0"}},
		{"unknown sweep axis", []string{"-experiment", "sweep", "-scale", "tiny", "-axes", "algo,warp"}},
		{"unwritable out", []string{"-experiment", "sweep", "-scale", "tiny", "-axes", "", "-out", "/nonexistent-dir/x.json"}},
		{"malformed shard", []string{"-experiment", "sweep", "-scale", "tiny", "-axes", "", "-shard", "two/three"}},
		{"shard with trailing garbage", []string{"-experiment", "sweep", "-scale", "tiny", "-axes", "", "-shard", "0/2/4"}},
		{"shard with suffixed count", []string{"-experiment", "sweep", "-scale", "tiny", "-axes", "", "-shard", "1/10x"}},
		{"shard with artifacts", []string{"-experiment", "sweep", "-scale", "tiny", "-axes", "", "-shard", "0/2", "-artifacts", "arts"}},
		{"merge with cache", []string{"-experiment", "sweep", "-merge", "a.json", "-cache", "cellcache"}},
		{"shard index out of range", []string{"-experiment", "sweep", "-scale", "tiny", "-axes", "", "-shard", "2/2"}},
		{"shard with precision", []string{"-experiment", "sweep", "-scale", "tiny", "-axes", "", "-shard", "0/2", "-precision", "0.1"}},
		{"merge with shard", []string{"-experiment", "sweep", "-merge", "a.json", "-shard", "0/2"}},
		{"merge without files", []string{"-experiment", "sweep", "-merge", " , "}},
		{"merge unreadable file", []string{"-experiment", "sweep", "-merge", "/nonexistent-dir/shard.json"}},
		{"negative precision", []string{"-experiment", "sweep", "-scale", "tiny", "-axes", "", "-precision", "-0.5"}},
		{"malformed arrival spec", []string{"-experiment", "single", "-scale", "tiny", "-arrival", "poisson"}},
		{"malformed arrival on non-consuming experiment", []string{"-arrival", "poisson"}},
		{"missing trace on non-consuming experiment", []string{"-trace", "/nonexistent-dir/t.swf"}},
		{"unknown arrival kind", []string{"-experiment", "single", "-scale", "tiny", "-arrival", "gamma:3"}},
		{"missing trace file", []string{"-experiment", "single", "-scale", "tiny", "-trace", "/nonexistent-dir/t.swf"}},
		{"trace with non-trace arrival", []string{"-experiment", "single", "-scale", "tiny", "-arrival", "poisson:10", "-trace", "sample"}},
		{"arrival with arrival axis", []string{"-experiment", "sweep", "-scale", "tiny", "-axes", "arrival", "-arrival", "poisson:10"}},
		{"arrival experiment with -arrival", []string{"-experiment", "arrival", "-scale", "tiny", "-arrival", "poisson:10"}},
		{"negative trace-scale", []string{"-experiment", "single", "-scale", "tiny", "-trace", "sample", "-trace-scale", "-2"}},
		{"trace-scale without trace", []string{"-experiment", "single", "-scale", "tiny", "-trace-scale", "0.5"}},
		{"cache-gc without cache", []string{"-cache-gc", "-cache-budget", "1"}},
		{"cache-gc without bounds", []string{"-cache-gc", "-cache", "somewhere"}},
		{"cache-gc negative budget", []string{"-cache-gc", "-cache", "somewhere", "-cache-budget", "-2"}},
		{"worker on missing dir", []string{"-worker", "/nonexistent-dir/work"}},
		{"worker with coordinate", []string{"-worker", "w", "-coordinate", "c"}},
		{"sleep-per-job without worker", []string{"-experiment", "table1", "-sleep-per-job", "1ms"}},
		{"negative sleep-per-job", []string{"-worker", "w", "-sleep-per-job", "-1s"}},
		{"lease-ttl without coordinate", []string{"-worker", "w", "-lease-ttl", "5s"}},
		{"non-positive lease-ttl", []string{"-experiment", "sweep", "-coordinate", "c", "-lease-ttl", "0s"}},
		{"coordinate with shard", []string{"-experiment", "sweep", "-scale", "tiny", "-axes", "", "-coordinate", "c", "-shard", "0/2"}},
		{"coordinate with precision", []string{"-experiment", "sweep", "-scale", "tiny", "-axes", "", "-coordinate", "c", "-precision", "0.1"}},
		{"coordinate with merge", []string{"-experiment", "sweep", "-merge", "a.json", "-coordinate", "c"}},
		{"cache-gc with sweep flags", []string{"-cache-gc", "-cache", "d", "-cache-days", "1", "-experiment", "sweep", "-reps", "5", "-out", "x.json"}},
		{"sweep flags on table1", []string{"-experiment", "table1", "-out", "t.json", "-shard", "0/2", "-coordinate", "c"}},
		{"cache-budget without cache-gc", []string{"-experiment", "fig3", "-cache-budget", "5"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCLI(tc.args...)
			if code == 0 {
				t.Fatalf("args %v exited 0; stderr:\n%s", tc.args, stderr)
			}
			if stderr == "" {
				t.Fatalf("args %v failed silently", tc.args)
			}
		})
	}
	// A NaN or infinite number in a spec is a malformed spec: it exits 2
	// like -arrival poisson instead of running some other load or pricing.
	// A NaN -trace-scale would otherwise submit every job at t = 0.
	for _, spec := range [][]string{
		{"-arrival", "poisson:NaN"}, {"-arrival", "poisson:Inf"}, {"-sla", "deadline:NaN"},
		{"-price", "NaN"}, {"-price", "Inf"}, {"-price", "1:NaN"},
		{"-trace", "sample", "-trace-scale", "NaN"}, {"-trace", "sample", "-trace-scale", "Inf"},
		{"-trace", "sample", "-trace-scale", "-Inf"},
	} {
		args := append([]string{"-experiment", "single", "-scale", "tiny", "-algo", "DBC-ct"}, spec...)
		t.Run("non-finite "+strings.Join(spec, " "), func(t *testing.T) {
			if code, _, stderr := runCLI(args...); code != 2 {
				t.Fatalf("args %v exited %d, want 2; stderr:\n%s", args, code, stderr)
			}
		})
	}
}

// TestFlagScopes pins the one flag-scope check: a flag the selected mode
// or experiment would ignore exits 2 with a message naming it, and the
// flags a mode does take still pass the check.
func TestFlagScopes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-cache-gc", "-cache", "d", "-cache-days", "1", "-experiment", "sweep", "-reps", "5", "-out", "x.json"},
			"-experiment does not combine with -cache-gc, which takes only -cache, -cache-budget, -cache-days"},
		{[]string{"-experiment", "table1", "-out", "t.json", "-shard", "0/2", "-coordinate", "c"},
			"-coordinate only applies to -experiment sweep"},
		{[]string{"-experiment", "fig3", "-cache-budget", "5"}, "-cache-budget only applies to -cache-gc"},
		{[]string{"-experiment", "fig4-6", "-cache", "d"}, "-cache only applies to -experiment sweep"},
		{[]string{"-worker", "w", "-axes", "algo"}, "-axes does not combine with -worker"},
		{[]string{"-pace", "3"}, "-pace only applies to -serve"},
	} {
		code, _, stderr := runCLI(tc.args...)
		if code != 2 || !strings.Contains(stderr, tc.want) {
			t.Errorf("args %v: exit %d, stderr %q; want exit 2 with %q", tc.args, code, stderr, tc.want)
		}
	}
	// -cache is legal in worker mode: the run gets past the flag check and
	// fails on the missing work directory instead (exit 1).
	if code, _, stderr := runCLI("-worker", "/nonexistent-dir/work", "-cache", t.TempDir()); code != 1 {
		t.Errorf("worker with -cache: exit %d, stderr %q; want 1", code, stderr)
	}
}

func TestTable1Succeeds(t *testing.T) {
	code, stdout, stderr := runCLI("-experiment", "table1", "-scale", "tiny")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "Table I") {
		t.Fatalf("missing table:\n%s", stdout)
	}
}

// TestSweepJSONDeterministic is the acceptance check of the sweep mode: two
// identical invocations must produce byte-identical JSON with interval
// estimates per cell.
func TestSweepJSONDeterministic(t *testing.T) {
	args := []string{"-experiment", "sweep", "-scale", "tiny", "-reps", "2", "-axes", ""}
	code, first, stderr := runCLI(args...)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "sweep: ") {
		t.Fatalf("no progress streamed to stderr:\n%s", stderr)
	}
	code, second, _ := runCLI(args...)
	if code != 0 {
		t.Fatal("second invocation failed")
	}
	if first != second {
		t.Fatalf("sweep JSON not byte-identical:\n%s\nvs\n%s", first, second)
	}
	var doc struct {
		Schema string `json:"schema"`
		Reps   int    `json:"reps"`
		Cells  []struct {
			Algo      string `json:"algo"`
			Aggregate struct {
				ACT struct {
					N    int     `json:"n"`
					Mean float64 `json:"mean"`
					Std  float64 `json:"std"`
					CI95 float64 `json:"ci95"`
				} `json:"act"`
			} `json:"aggregate"`
		} `json:"cells"`
	}
	if err := json.Unmarshal([]byte(first), &doc); err != nil {
		t.Fatalf("stdout is not valid JSON: %v", err)
	}
	if doc.Schema != "p2pgridsim/sweep/v1" || doc.Reps != 2 {
		t.Fatalf("unexpected header: schema=%q reps=%d", doc.Schema, doc.Reps)
	}
	if len(doc.Cells) != 1 || doc.Cells[0].Algo != "DSMF" {
		t.Fatalf("cells: %+v", doc.Cells)
	}
	act := doc.Cells[0].Aggregate.ACT
	if act.N != 2 || act.Mean <= 0 || act.CI95 <= 0 {
		t.Fatalf("degenerate ACT estimate: %+v", act)
	}
}

func TestSweepOutFileAndArtifacts(t *testing.T) {
	dir := t.TempDir()
	outFile := filepath.Join(dir, "sweep-tiny.json")
	code, stdout, stderr := runCLI(
		"-experiment", "sweep", "-scale", "tiny", "-reps", "1", "-axes", "",
		"-out", outFile, "-artifacts", dir)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	data, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatalf("-out file missing: %v", err)
	}
	if !json.Valid(data) {
		t.Fatal("-out file is not valid JSON")
	}
	if !strings.Contains(stdout, "Sweep") {
		t.Fatalf("summary table missing when -out is set:\n%s", stdout)
	}
	for _, base := range []string{"sweep.json", "sweep.csv"} {
		if _, err := os.Stat(filepath.Join(dir, base)); err != nil {
			t.Errorf("artifact %s missing: %v", base, err)
		}
	}
}

// TestSweepShardMergeMatchesSingleHost drives the distributed-sweep recipe
// end to end through the CLI: two shards, merged, byte-identical to the
// single-host JSON.
func TestSweepShardMergeMatchesSingleHost(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-experiment", "sweep", "-scale", "tiny", "-reps", "2", "-axes", ""}
	code, single, stderr := runCLI(base...)
	if code != 0 {
		t.Fatalf("single-host run: exit %d, stderr:\n%s", code, stderr)
	}
	s0, s1 := filepath.Join(dir, "s0.json"), filepath.Join(dir, "s1.json")
	for i, out := range []string{s0, s1} {
		args := append(append([]string{}, base...), "-shard", fmt.Sprintf("%d/2", i), "-out", out)
		code, _, stderr := runCLI(args...)
		if code != 0 {
			t.Fatalf("shard %d: exit %d, stderr:\n%s", i, code, stderr)
		}
		if !strings.Contains(stderr, fmt.Sprintf("shard %d/2", i)) {
			t.Fatalf("shard %d: no range note on stderr:\n%s", i, stderr)
		}
	}
	code, merged, stderr := runCLI("-experiment", "sweep", "-merge", s0+","+s1)
	if code != 0 {
		t.Fatalf("merge: exit %d, stderr:\n%s", code, stderr)
	}
	if merged != single {
		t.Fatalf("merged JSON differs from single-host run:\n%s\nvs\n%s", merged, single)
	}
	// Merging a shard file against itself must fail (overlap).
	if code, _, _ := runCLI("-experiment", "sweep", "-merge", s0+","+s0); code == 0 {
		t.Fatal("overlapping merge exited 0")
	}
}

// TestSweepCacheWarmStart checks the -cache flag: the second run restores
// every cell from disk and its stdout JSON stays byte-identical.
func TestSweepCacheWarmStart(t *testing.T) {
	cacheDir := filepath.Join(t.TempDir(), "cells")
	args := []string{"-experiment", "sweep", "-scale", "tiny", "-reps", "2", "-axes", "", "-cache", cacheDir}
	code, cold, stderr := runCLI(args...)
	if code != 0 {
		t.Fatalf("cold run: exit %d, stderr:\n%s", code, stderr)
	}
	entries, err := filepath.Glob(filepath.Join(cacheDir, "*", "*.json"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no cache entries written (err=%v)", err)
	}
	code, warm, _ := runCLI(args...)
	if code != 0 {
		t.Fatal("warm run failed")
	}
	if warm != cold {
		t.Fatalf("warm JSON differs from cold:\n%s\nvs\n%s", warm, cold)
	}
}

// TestSweepAdaptivePrecision checks the -precision flag: a loose target
// stops every cell at the 3-replication floor (below the -reps cap) and
// reports the ragged shape.
func TestSweepAdaptivePrecision(t *testing.T) {
	code, stdout, stderr := runCLI(
		"-experiment", "sweep", "-scale", "tiny", "-reps", "6", "-axes", "", "-precision", "100")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "adaptive: 3 replications across 1 cells (per-cell 3..3)") {
		t.Fatalf("no adaptive note on stderr:\n%s", stderr)
	}
	var doc struct {
		Reps int `json:"reps"`
	}
	if err := json.Unmarshal([]byte(stdout), &doc); err != nil {
		t.Fatalf("stdout not JSON: %v", err)
	}
	if doc.Reps != 3 {
		t.Fatalf("adaptive JSON reports %d reps, want 3", doc.Reps)
	}
}

// TestArrivalExperimentAndFlags drives the arrival subsystem through the
// CLI: the arrival figure (with the bundled trace column), a single run
// under a Poisson process, and a trace-replay sweep cell.
func TestArrivalExperimentAndFlags(t *testing.T) {
	code, stdout, stderr := runCLI("-experiment", "arrival", "-scale", "tiny", "-reps", "1", "-trace", "sample")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	for _, frag := range []string{"arrival intensity", "batch", "poisson:", "trace:sample.swf", "DSMF"} {
		if !strings.Contains(stdout, frag) {
			t.Fatalf("arrival figure missing %q:\n%s", frag, stdout)
		}
	}

	code, stdout, stderr = runCLI("-experiment", "single", "-scale", "tiny", "-arrival", "poisson:30")
	if code != 0 {
		t.Fatalf("single with arrival: exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "DSMF at tiny scale") {
		t.Fatalf("single output:\n%s", stdout)
	}

	code, stdout, stderr = runCLI("-experiment", "single", "-scale", "tiny", "-arrival", "trace", "-trace-scale", "0.5")
	if code != 0 {
		t.Fatalf("single with trace replay: exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "42 workflows") {
		t.Fatalf("trace replay should submit one workflow per sample job:\n%s", stdout)
	}

	// A process far slower than the horizon leaves an unsubmitted tail,
	// and the single-run output reports it instead of hiding it.
	code, stdout, stderr = runCLI("-experiment", "single", "-scale", "tiny", "-arrival", "poisson:1")
	if code != 0 {
		t.Fatalf("slow arrivals: exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "arrived after the horizon") {
		t.Fatalf("unsubmitted tail not reported:\n%s", stdout)
	}

	// Valid flags on an experiment that ignores them warn but still run.
	code, _, stderr = runCLI("-experiment", "table1", "-scale", "tiny", "-arrival", "poisson:10")
	if code != 0 || !strings.Contains(stderr, "only apply to single, sweep and arrival") {
		t.Fatalf("ignored-flag warning missing (exit %d):\n%s", code, stderr)
	}

	// A sweep pinned to one arrival case labels its cells with it.
	code, stdout, stderr = runCLI("-experiment", "sweep", "-scale", "tiny", "-axes", "", "-arrival", "poisson:30")
	if code != 0 {
		t.Fatalf("sweep with arrival: exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, `"arrival": "poisson:30"`) {
		t.Fatalf("sweep JSON missing arrival label:\n%s", stdout)
	}
}

// TestSweepArrivalAxisDeterministic pins the CLI arrival axis: two
// invocations are byte-identical and the JSON carries one cell per rung
// of the intensity ladder plus the batch endpoint.
func TestSweepArrivalAxisDeterministic(t *testing.T) {
	args := []string{"-experiment", "sweep", "-scale", "tiny", "-reps", "1", "-axes", "arrival"}
	code, first, stderr := runCLI(args...)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	code, second, _ := runCLI(args...)
	if code != 0 || first != second {
		t.Fatalf("arrival-axis sweep JSON not reproducible (exit %d)", code)
	}
	var doc struct {
		Cells []struct {
			Arrival string `json:"arrival"`
		} `json:"cells"`
	}
	if err := json.Unmarshal([]byte(first), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Cells) != 5 {
		t.Fatalf("%d cells, want 5 (4 poisson rungs + batch)", len(doc.Cells))
	}
	if doc.Cells[len(doc.Cells)-1].Arrival != "" {
		t.Fatalf("last cell should be the batch endpoint, got %q", doc.Cells[len(doc.Cells)-1].Arrival)
	}
	if !strings.HasPrefix(doc.Cells[0].Arrival, "poisson:") {
		t.Fatalf("first cell %q not a poisson rung", doc.Cells[0].Arrival)
	}
}

// TestCacheGCFlag drives the -cache-gc pass end to end: populate the cell
// cache via a sweep, then trim it to a tiny budget.
func TestCacheGCFlag(t *testing.T) {
	cacheDir := filepath.Join(t.TempDir(), "cells")
	code, _, stderr := runCLI("-experiment", "sweep", "-scale", "tiny", "-reps", "1", "-axes", "", "-cache", cacheDir)
	if code != 0 {
		t.Fatalf("populate run: exit %d, stderr:\n%s", code, stderr)
	}
	entries, _ := filepath.Glob(filepath.Join(cacheDir, "*", "*.json"))
	if len(entries) == 0 {
		t.Fatal("no cache entries to GC")
	}
	code, stdout, stderr := runCLI("-cache-gc", "-cache", cacheDir, "-cache-budget", "0", "-cache-days", "30")
	if code != 0 {
		t.Fatalf("age-only GC: exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "0 deleted") {
		t.Fatalf("fresh entries should survive a 30-day bound:\n%s", stdout)
	}
	// Backdate every entry two days, then a 1-day bound must clear them.
	past := time.Now().Add(-48 * time.Hour)
	for _, e := range entries {
		if err := os.Chtimes(e, past, past); err != nil {
			t.Fatal(err)
		}
	}
	code, stdout, stderr = runCLI("-cache-gc", "-cache", cacheDir, "-cache-days", "1")
	if code != 0 {
		t.Fatalf("tight GC: exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, fmt.Sprintf("%d deleted", len(entries))) {
		t.Fatalf("tight age bound should delete all %d entries:\n%s", len(entries), stdout)
	}
	left, _ := filepath.Glob(filepath.Join(cacheDir, "*", "*.json"))
	if len(left) != 0 {
		t.Fatalf("%d entries survived the tight bound", len(left))
	}
}

func TestSweepSpecFromAxes(t *testing.T) {
	sc, err := experiments.ScaleByName("tiny")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := sweepSpecFromAxes("algo,churn,lf,ccr,arrival", sc, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Algorithms != nil {
		t.Errorf("algo axis should select all algorithms, got %v", spec.Algorithms)
	}
	if len(spec.ChurnFactors) != 5 || len(spec.LoadFactors) != 3 || len(spec.CCRCases) != 4 || len(spec.Arrivals) != 5 {
		t.Errorf("axes wrong: churn=%d lf=%d ccr=%d arrivals=%d",
			len(spec.ChurnFactors), len(spec.LoadFactors), len(spec.CCRCases), len(spec.Arrivals))
	}
	spec, err = sweepSpecFromAxes("scale", sc, 1, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Scales) < 2 {
		t.Errorf("scale axis did not expand: %d scales", len(spec.Scales))
	}
	if spec.Algorithms == nil || spec.Algorithms[0] != "DSMF" {
		t.Errorf("without algo axis the sweep should run DSMF alone, got %v", spec.Algorithms)
	}
	if _, err := sweepSpecFromAxes("hyperdrive", sc, 1, 1, 8); err == nil {
		t.Error("unknown axis accepted")
	}
}

// TestCoordinatedSweepCLI drives the work-stealing coordinator end to end
// through the CLI: a coordinator process (which participates as a worker)
// and a concurrent -worker process drain one directory, and the merged
// JSON is byte-identical to the single-host artifact. A late worker on the
// drained directory finds nothing to do, and re-coordinating merges again
// without simulating.
func TestCoordinatedSweepCLI(t *testing.T) {
	tmp := t.TempDir()
	single := filepath.Join(tmp, "single.json")
	merged := filepath.Join(tmp, "merged.json")
	work := filepath.Join(tmp, "work")

	code, _, stderr := runCLI("-experiment", "sweep", "-scale", "tiny", "-reps", "2", "-out", single)
	if code != 0 {
		t.Fatalf("single-host run: exit %d, stderr:\n%s", code, stderr)
	}

	// Initialize the work dir up front so the concurrent worker never
	// races the coordinator's first write.
	sc, err := experiments.ScaleByName("tiny")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := sweepSpecFromAxes("algo", sc, 2010, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := experiments.InitSweepWork(work, spec, time.Hour); err != nil {
		t.Fatal(err)
	}

	workerDone := make(chan struct{})
	var wcode int
	var wout, werr string
	go func() {
		defer close(workerDone)
		wcode, wout, werr = runCLI("-worker", work)
	}()
	code, _, stderr = runCLI("-experiment", "sweep", "-scale", "tiny", "-reps", "2", "-coordinate", work, "-out", merged)
	<-workerDone
	if code != 0 {
		t.Fatalf("coordinate: exit %d, stderr:\n%s", code, stderr)
	}
	if wcode != 0 {
		t.Fatalf("worker: exit %d, stderr:\n%s", wcode, werr)
	}
	if !strings.Contains(wout, "cells completed") {
		t.Fatalf("worker summary missing:\n%s", wout)
	}
	if !strings.Contains(stderr, "coordinate "+work) {
		t.Fatalf("coordinator summary missing:\n%s", stderr)
	}
	singleJSON, err := os.ReadFile(single)
	if err != nil {
		t.Fatal(err)
	}
	mergedJSON, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(singleJSON, mergedJSON) {
		t.Fatal("coordinated sweep JSON differs from single-host artifact")
	}

	// The drained directory: a late worker completes nothing, and
	// re-coordinating just re-merges.
	code, stdout, _ := runCLI("-worker", work)
	if code != 0 || !strings.Contains(stdout, "0 cells completed") {
		t.Fatalf("late worker: exit %d, stdout:\n%s", code, stdout)
	}
	remerged := filepath.Join(tmp, "remerged.json")
	code, _, _ = runCLI("-experiment", "sweep", "-scale", "tiny", "-reps", "2", "-coordinate", work, "-out", remerged)
	if code != 0 {
		t.Fatalf("re-coordinate failed: %d", code)
	}
	again, err := os.ReadFile(remerged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(singleJSON, again) {
		t.Fatal("re-coordinated merge differs from single-host artifact")
	}

	// A different spec refuses the used directory.
	code, _, stderr = runCLI("-experiment", "sweep", "-scale", "tiny", "-reps", "3", "-coordinate", work)
	if code == 0 || stderr == "" {
		t.Fatalf("foreign spec accepted by used work dir (exit %d)", code)
	}
}
