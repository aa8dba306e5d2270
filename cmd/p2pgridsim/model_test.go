package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/workload/mining"
	"repro/internal/workload/traces"
)

// sampleModelFile fits the bundled sample trace and writes the artifact
// to a temp file.
func sampleModelFile(t *testing.T) string {
	t.Helper()
	m, err := mining.Fit(traces.Sample())
	if err != nil {
		t.Fatal(err)
	}
	data, err := mining.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestModelSingleRun: -model drives a single run through the trace-replay
// machinery; -synth picks the workload size; repeated runs are identical.
func TestModelSingleRun(t *testing.T) {
	model := sampleModelFile(t)
	code, stdout, stderr := runCLI("-experiment", "single", "-scale", "tiny", "-model", model, "-synth", "20")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "20 workflows") {
		t.Fatalf("-synth 20 should submit 20 workflows:\n%s", stdout)
	}
	_, again, _ := runCLI("-experiment", "single", "-scale", "tiny", "-model", model, "-synth", "20")
	if stdout != again {
		t.Fatal("two identical -model runs differ")
	}

	// Without -synth the model's own fitted job count is the workload.
	code, stdout, stderr = runCLI("-experiment", "single", "-scale", "tiny", "-model", model)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "42 workflows") {
		t.Fatalf("default synthesis count should be the model's 42 jobs:\n%s", stdout)
	}
}

// TestModelSweepCell: -model adds a labeled arrival case to a sweep, and
// the cell label names the model source and scale so artifacts stay
// self-describing.
func TestModelSweepCell(t *testing.T) {
	model := sampleModelFile(t)
	code, stdout, stderr := runCLI("-experiment", "sweep", "-scale", "tiny", "-axes", "", "-reps", "1", "-model", model, "-synth", "15")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, `"arrival": "trace:model:sample.swf:n15"`) {
		t.Fatalf("sweep JSON missing the model cell label:\n%s", stdout)
	}
	_, again, _ := runCLI("-experiment", "sweep", "-scale", "tiny", "-axes", "", "-reps", "1", "-model", model, "-synth", "15")
	if stdout != again {
		t.Fatal("model-driven sweep is not deterministic")
	}
}

// TestModelFlagRules: combination and validation errors exit 2 before any
// simulation runs.
func TestModelFlagRules(t *testing.T) {
	model := sampleModelFile(t)
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"synth without model", []string{"-experiment", "single", "-scale", "tiny", "-synth", "10"}, "-synth needs -model"},
		{"model with arrival", []string{"-experiment", "single", "-scale", "tiny", "-model", model, "-arrival", "poisson:30"}, "combines with neither"},
		{"model with trace", []string{"-experiment", "single", "-scale", "tiny", "-model", model, "-trace", "sample"}, "combines with neither"},
		{"missing model file", []string{"-experiment", "single", "-scale", "tiny", "-model", "/nonexistent-dir/m.json"}, "m.json"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCLI(tc.args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2; stderr:\n%s", code, stderr)
			}
			if !strings.Contains(stderr, tc.wantErr) {
				t.Fatalf("stderr missing %q:\n%s", tc.wantErr, stderr)
			}
		})
	}

	// -model on an experiment that does not read it is a flag error.
	code, _, stderr := runCLI("-experiment", "table1", "-scale", "tiny", "-model", model)
	if code != 2 || !strings.Contains(stderr, "-model only applies to -experiment single, sweep and arrival") {
		t.Fatalf("ignored -model: exit %d, want 2 naming where it applies:\n%s", code, stderr)
	}
}
