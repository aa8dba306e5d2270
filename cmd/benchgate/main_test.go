package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const baselineJSON = `{
  "schema": "p2pgridsim/bench-baseline/v2",
  "benchmark": "BenchmarkSingleDSMFRun",
  "environment": {"goos": "linux", "cpu": "test", "go": "go1.24"},
  "metrics": {"ns_per_op": 100000000, "bytes_per_op": 2000000, "allocs_per_op": 20000},
  "thresholds": {"ns_per_op": 0.20, "bytes_per_op": 0.20},
  "iterations": 20
}`

// benchLines renders count result lines at the given metrics, in the exact
// layout `go test -bench -benchmem` prints.
func benchLines(ns, bytesOp, allocs float64, count int) string {
	var b strings.Builder
	b.WriteString("goos: linux\ngoarch: amd64\npkg: repro\n")
	for i := 0; i < count; i++ {
		// Vary ns/op slightly so the median logic is exercised.
		jitter := float64(i-count/2) * 1e5
		fmt.Fprintf(&b, "BenchmarkSingleDSMFRun-8   \t      20\t  %.0f ns/op\t %.0f B/op\t   %.0f allocs/op\n",
			ns+jitter, bytesOp, allocs)
	}
	b.WriteString("PASS\nok  \trepro\t1.234s\n")
	return b.String()
}

func writeBaseline(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, []byte(baselineJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runGate(t *testing.T, baselinePath, benchOutput string) (code int, stdout, stderr string) {
	t.Helper()
	inPath := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(inPath, []byte(benchOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errBuf bytes.Buffer
	code = gateMain([]string{"-baseline", baselinePath, "-input", inPath}, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

func TestGatePassesAtBaseline(t *testing.T) {
	base := writeBaseline(t)
	code, stdout, stderr := runGate(t, base, benchLines(100e6, 2e6, 20000, 5))
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "median of 5 runs") {
		t.Fatalf("report:\n%s", stdout)
	}
}

func TestGatePassesWithinThreshold(t *testing.T) {
	base := writeBaseline(t)
	// +15% ns/op and +10% B/op: noisy but inside the 20% gate; allocs/op
	// at its baseline.
	code, stdout, _ := runGate(t, base, benchLines(115e6, 2.2e6, 20000, 5))
	if code != 0 {
		t.Fatalf("within-threshold run failed:\n%s", stdout)
	}
}

// TestGateFailsOnSyntheticRegression is the acceptance check: a synthetic
// >20% regression must fail the gate.
func TestGateFailsOnSyntheticRegression(t *testing.T) {
	base := writeBaseline(t)
	// +30% ns/op.
	code, stdout, _ := runGate(t, base, benchLines(130e6, 2e6, 20000, 5))
	if code != 1 {
		t.Fatalf("ns/op regression not caught (exit %d):\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "FAIL") {
		t.Fatalf("report missing FAIL verdict:\n%s", stdout)
	}
	// +25% B/op with flat ns/op must also fail.
	code, stdout, _ = runGate(t, base, benchLines(100e6, 2.5e6, 20000, 5))
	if code != 1 {
		t.Fatalf("B/op regression not caught (exit %d):\n%s", code, stdout)
	}
}

// TestGateAllocsWithinOne pins the allocs/op gate: the median may exceed
// the baseline by one allocation, not by two, however small that is
// relative to the baseline. It compares only samples run at the baseline's
// iteration count, and a baseline without one leaves allocs/op ungated.
func TestGateAllocsWithinOne(t *testing.T) {
	base := writeBaseline(t)
	if code, stdout, _ := runGate(t, base, benchLines(100e6, 2e6, 20001, 5)); code != 0 {
		t.Fatalf("+1 alloc/op failed the gate (exit %d):\n%s", code, stdout)
	}
	code, stdout, _ := runGate(t, base, benchLines(100e6, 2e6, 20002, 5))
	if code != 1 || !strings.Contains(stdout, "FAIL (> +1)") {
		t.Fatalf("+2 allocs/op passed the gate (exit %d):\n%s", code, stdout)
	}
	if code, stdout, _ = runGate(t, base, benchLines(100e6, 2e6, 19990, 5)); code != 0 || !strings.Contains(stdout, "refreshing the baseline") {
		t.Fatalf("fewer allocs/op not reported as an improvement (exit %d):\n%s", code, stdout)
	}
	// One sample at the default -benchtime's count instead of 20x.
	in := strings.Replace(benchLines(100e6, 2e6, 20000, 5), "\t      20\t", "\t      37\t", 1)
	code, stdout, stderr := runGate(t, base, in)
	if code != 2 || !strings.Contains(stderr, "ran 37 iterations") || !strings.Contains(stderr, "-benchtime=20x") {
		t.Fatalf("a 37-iteration sample was gated against a 20-iteration baseline (exit %d):\n%s%s", code, stdout, stderr)
	}
	code, stdout, _ = runGateArgs(t, strings.Replace(baselineJSON, `,
  "iterations": 20`, "", 1), benchLines(100e6, 2e6, 20002, 5))
	if code != 0 || !strings.Contains(stdout, "info (the baseline records no iteration count)") {
		t.Fatalf("allocs/op gated without a recorded iteration count (exit %d):\n%s", code, stdout)
	}
}

func TestGateReportsImprovement(t *testing.T) {
	base := writeBaseline(t)
	code, stdout, _ := runGate(t, base, benchLines(60e6, 1.2e6, 15000, 3))
	if code != 0 {
		t.Fatalf("improvement failed the gate:\n%s", stdout)
	}
	if !strings.Contains(stdout, "refreshing the baseline") {
		t.Fatalf("improvement not flagged:\n%s", stdout)
	}
}

func TestGateErrorPaths(t *testing.T) {
	base := writeBaseline(t)
	var out, errBuf bytes.Buffer
	if code := gateMain([]string{"-baseline", "/nonexistent.json"}, &out, &errBuf); code != 2 {
		t.Fatalf("missing baseline exited %d", code)
	}
	// Input without any matching benchmark lines.
	if code, _, stderr := runGate(t, base, "PASS\nok repro 1s\n"); code != 2 || !strings.Contains(stderr, "no BenchmarkSingleDSMFRun results") {
		t.Fatalf("empty input exited %d, stderr: %s", code, stderr)
	}
	// Stray positional args.
	if code := gateMain([]string{"extra"}, &out, &errBuf); code != 2 {
		t.Fatalf("positional args exited %d", code)
	}
}

func TestGateFailsWithoutBenchmem(t *testing.T) {
	base := writeBaseline(t)
	// ns/op-only lines (no -benchmem): the B/op gate must fail loudly
	// instead of reading 0 as an improvement.
	in := "BenchmarkSingleDSMFRun-8 \t 20 \t 100000000 ns/op\n"
	code, stdout, _ := runGate(t, base, in)
	if code != 1 {
		t.Fatalf("missing B/op passed the gate (exit %d):\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "metric missing") {
		t.Fatalf("report does not explain the failure:\n%s", stdout)
	}
}

func TestParseBenchMedian(t *testing.T) {
	in := strings.NewReader(
		"BenchmarkSingleDSMFRun-8 \t 20 \t 300 ns/op \t 50 B/op \t 7 allocs/op\n" +
			"BenchmarkSingleDSMFRun-8 \t 20 \t 100 ns/op \t 52 B/op \t 7 allocs/op\n" +
			"BenchmarkSingleDSMFRun-8 \t 20 \t 200 ns/op \t 51 B/op \t 7 allocs/op\n" +
			"BenchmarkOther-8 \t 20 \t 999 ns/op \t 9 B/op \t 1 allocs/op\n")
	samples, err := parseBench(in, "BenchmarkSingleDSMFRun")
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 {
		t.Fatalf("parsed %d samples, want 3", len(samples))
	}
	ns := []float64{samples[0].nsPerOp, samples[1].nsPerOp, samples[2].nsPerOp}
	if got := median(ns); got != 200 {
		t.Fatalf("median %v, want 200", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("even median %v, want 2.5", got)
	}
}

const cpuKeyedBaselineJSON = `{
  "schema": "p2pgridsim/bench-baseline/v3",
  "benchmark": "BenchmarkSingleDSMFRun",
  "environment": {"goos": "linux", "cpu": "Recorded Host CPU", "go": "go1.24"},
  "metrics": {"ns_per_op": 100000000, "bytes_per_op": 2000000, "allocs_per_op": 20000},
  "thresholds": {"ns_per_op": 0.20, "bytes_per_op": 0.20},
  "baselines": [
    {
      "cpu": "Fast CI Runner v5",
      "metrics": {"ns_per_op": 50000000, "bytes_per_op": 2000000, "allocs_per_op": 20000},
      "thresholds": {"ns_per_op": 0.10}
    }
  ]
}`

func runGateCPU(t *testing.T, cpu, benchOutput string) (code int, stdout string) {
	t.Helper()
	dir := t.TempDir()
	basePath := filepath.Join(dir, "baseline.json")
	if err := os.WriteFile(basePath, []byte(cpuKeyedBaselineJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	inPath := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(inPath, []byte(benchOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errBuf bytes.Buffer
	code = gateMain([]string{"-baseline", basePath, "-input", inPath, "-cpu", cpu}, &out, &errBuf)
	return code, out.String()
}

// TestGateSelectsPerCPUBaseline pins the CPU-keyed schema: a matching
// model gates against its own entry (metrics AND tightened thresholds),
// case-insensitively.
func TestGateSelectsPerCPUBaseline(t *testing.T) {
	// 100e6 ns/op is exactly the recorded host's baseline, but a +100%
	// regression against the fast runner's 50e6 entry.
	code, stdout := runGateCPU(t, "fast ci runner V5", benchLines(100e6, 2e6, 20000, 5))
	if code != 1 {
		t.Fatalf("per-CPU regression not caught (exit %d):\n%s", code, stdout)
	}
	if !strings.Contains(stdout, `per-CPU baseline "Fast CI Runner v5"`) {
		t.Fatalf("report does not name the per-CPU baseline:\n%s", stdout)
	}
	// At the entry's own level it passes; its tightened 10% ns/op
	// threshold is live (+15% fails where the recorded host's 20% would
	// not).
	if code, stdout = runGateCPU(t, "Fast CI Runner v5", benchLines(50e6, 2e6, 20000, 5)); code != 0 {
		t.Fatalf("at-baseline run failed:\n%s", stdout)
	}
	if code, stdout = runGateCPU(t, "Fast CI Runner v5", benchLines(57.5e6, 2e6, 20000, 5)); code != 1 {
		t.Fatalf("tightened per-CPU threshold not applied (exit %d):\n%s", code, stdout)
	}
}

// TestGateFallsBackToRecordedHost pins the graceful fallback: an unknown
// CPU gates against the top-level recorded-host metrics and the report
// says so.
func TestGateFallsBackToRecordedHost(t *testing.T) {
	code, stdout := runGateCPU(t, "Mystery Engine 9000", benchLines(100e6, 2e6, 20000, 5))
	if code != 0 {
		t.Fatalf("fallback run failed (exit %d):\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "recorded-host baseline (Recorded Host CPU)") ||
		!strings.Contains(stdout, `no per-CPU entry for "Mystery Engine 9000"`) {
		t.Fatalf("fallback not explained:\n%s", stdout)
	}
}

func TestDetectCPUNeverPanics(t *testing.T) {
	// Whatever the platform, detection must return without error; on
	// linux it should find a non-empty model name.
	model := detectCPU()
	if _, err := os.Stat("/proc/cpuinfo"); err == nil && model == "" {
		t.Skip("cpuinfo present but modelless (container?); nothing to assert")
	}
	t.Logf("detected CPU model: %q", model)
}

const calibratedBaselineJSON = `{
  "schema": "p2pgridsim/bench-baseline/v3",
  "benchmark": "BenchmarkSingleDSMFRun",
  "environment": {"goos": "linux", "cpu": "Recorded Host CPU", "go": "go1.24"},
  "metrics": {"ns_per_op": 100000000, "bytes_per_op": 2000000, "allocs_per_op": 20000},
  "thresholds": {"ns_per_op": 0.20, "bytes_per_op": 0.20},
  "calibration": {"ns_per_pass": 10000000},
  "baselines": [
    {
      "cpu": "Known Runner",
      "metrics": {"ns_per_op": 50000000, "bytes_per_op": 2000000, "allocs_per_op": 20000}
    }
  ]
}`

func runGateArgs(t *testing.T, baselineJSON, benchOutput string, extra ...string) (code int, stdout, stderr string) {
	t.Helper()
	dir := t.TempDir()
	basePath := filepath.Join(dir, "baseline.json")
	if err := os.WriteFile(basePath, []byte(baselineJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	inPath := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(inPath, []byte(benchOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errBuf bytes.Buffer
	args := append([]string{"-baseline", basePath, "-input", inPath}, extra...)
	code = gateMain(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

// TestGateCalibratedFallback pins the calibration satellite: on an unknown
// CPU whose calibration pass runs 2x slower than the recorded host's, a
// 2x-slower ns/op median is at baseline (passes), while 2.5x slower is a
// +25% normalized regression and fails — the fallback now gates at the
// same 20% as a known CPU.
func TestGateCalibratedFallback(t *testing.T) {
	// Local pass 20ms vs recorded 10ms: ratio 2. Measured 190e6 ns/op
	// against the normalized 200e6 baseline: -5%, pass.
	code, stdout, _ := runGateArgs(t, calibratedBaselineJSON, benchLines(190e6, 2e6, 20000, 5),
		"-cpu", "Mystery Engine 9000", "-calibration-ns", "20000000")
	if code != 0 {
		t.Fatalf("calibrated at-baseline run failed (exit %d):\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "ratio 2.000") || !strings.Contains(stdout, "normalized") {
		t.Fatalf("calibration not reported:\n%s", stdout)
	}
	// 250e6 vs normalized 200e6: +25%, fail — loose no more.
	code, stdout, _ = runGateArgs(t, calibratedBaselineJSON, benchLines(250e6, 2e6, 20000, 5),
		"-cpu", "Mystery Engine 9000", "-calibration-ns", "20000000")
	if code != 1 {
		t.Fatalf("calibrated fallback missed a +25%% regression (exit %d):\n%s", code, stdout)
	}
	// A per-CPU match never calibrates, even with -calibration-ns given.
	code, stdout, _ = runGateArgs(t, calibratedBaselineJSON, benchLines(50e6, 2e6, 20000, 5),
		"-cpu", "Known Runner", "-calibration-ns", "20000000")
	if code != 0 {
		t.Fatalf("per-CPU run failed (exit %d):\n%s", code, stdout)
	}
	if strings.Contains(stdout, "normalized") {
		t.Fatalf("per-CPU match applied calibration:\n%s", stdout)
	}
	// A baseline without a calibration block keeps the uncalibrated
	// fallback behavior (2x "regression" passes loosely on a faster host —
	// nothing to normalize against).
	code, stdout, _ = runGateArgs(t, cpuKeyedBaselineJSON, benchLines(100e6, 2e6, 20000, 5),
		"-cpu", "Mystery Engine 9000", "-calibration-ns", "20000000")
	if code != 0 || strings.Contains(stdout, "normalized") {
		t.Fatalf("calibration applied without a recorded pass time (exit %d):\n%s", code, stdout)
	}
}

// TestCalibrateFlagAndKernel: -calibrate measures and reports without
// gating, the kernel is deterministic work (two passes agree to sane
// bounds is NOT asserted — wall time varies — but the flag contract is).
func TestCalibrateFlagAndKernel(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := gateMain([]string{"-calibrate", "-calibration-passes", "1"}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("-calibrate exited %d, stderr: %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "ns/pass") {
		t.Fatalf("calibration output: %q", out.String())
	}
	if ns := calibrate(1); ns <= 0 {
		t.Fatalf("calibration time %v", ns)
	}
	if code := gateMain([]string{"-calibration-passes", "0"}, &out, &errBuf); code != 2 {
		t.Fatalf("non-positive passes exited %d", code)
	}
	if code := gateMain([]string{"-calibration-ns", "-5"}, &out, &errBuf); code != 2 {
		t.Fatalf("negative calibration-ns exited %d", code)
	}
}

// TestRecordCandidate pins the baseline auto-append satellite: the
// candidate file carries a promotable envBaseline entry with this run's
// medians, and the summary names the CPU.
func TestRecordCandidate(t *testing.T) {
	dir := t.TempDir()
	candPath := filepath.Join(dir, "candidate.json")
	code, stdout, stderr := runGateArgs(t, calibratedBaselineJSON, benchLines(190e6, 2e6, 20000, 5),
		"-cpu", "New Runner Class", "-calibration-ns", "20000000", "-record-candidate", candPath)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, `candidate baseline for "New Runner Class"`) {
		t.Fatalf("candidate summary missing:\n%s", stdout)
	}
	data, err := os.ReadFile(candPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc candidateJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("candidate not valid JSON: %v", err)
	}
	if doc.Schema != "p2pgridsim/bench-candidate/v1" || doc.Samples != 5 {
		t.Fatalf("candidate header: %+v", doc)
	}
	if doc.Entry.CPU != "New Runner Class" || doc.Entry.Metrics.NsPerOp != 190e6 ||
		doc.Entry.Metrics.BytesPerOp != 2e6 || doc.Entry.Metrics.AllocsPerOp != 20000 {
		t.Fatalf("candidate entry: %+v", doc.Entry)
	}
	if doc.CalibrationNs != 20000000 {
		t.Fatalf("candidate calibration %v, want the supplied 20ms", doc.CalibrationNs)
	}
	if doc.Entry.Recorded == "" {
		t.Fatal("candidate entry missing a recorded date")
	}
	// An unwritable candidate path fails loudly.
	if code, _, stderr := runGateArgs(t, calibratedBaselineJSON, benchLines(190e6, 2e6, 20000, 5),
		"-cpu", "x", "-calibration-ns", "1", "-record-candidate", "/nonexistent-dir/c.json"); code != 2 || stderr == "" {
		t.Fatalf("unwritable candidate exited %d", code)
	}
}
