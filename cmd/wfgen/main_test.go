package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func runWfgen(args ...string) (code int, stdout, stderr string) {
	var out, errBuf bytes.Buffer
	code = cliMain(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

func TestFormatDot(t *testing.T) {
	code, stdout, stderr := runWfgen("-family", "montage", "-scale", "4", "-format", "dot")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	for _, frag := range []string{"digraph", "->"} {
		if !strings.Contains(stdout, frag) {
			t.Fatalf("DOT output missing %q:\n%s", frag, stdout)
		}
	}
}

func TestFormatJSON(t *testing.T) {
	code, stdout, stderr := runWfgen("-family", "pipeline", "-scale", "3", "-format", "json")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !json.Valid([]byte(stdout)) {
		t.Fatalf("output is not valid JSON:\n%s", stdout)
	}
}

func TestFormatSummaryDeterministicAndEstimateFlags(t *testing.T) {
	args := []string{"-family", "random", "-count", "3", "-seed", "9", "-format", "summary"}
	code, first, stderr := runWfgen(args...)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if got := strings.Count(first, "random-"); got != 3 {
		t.Fatalf("%d summaries, want 3:\n%s", got, first)
	}
	_, second, _ := runWfgen(args...)
	if first != second {
		t.Fatal("same seed produced different summaries")
	}
	// Doubling the capacity halves execution-time estimates, so the eft
	// column must move: -mips/-bw are live, not decorative.
	_, faster, _ := runWfgen(append(args, "-mips", "12.4")...)
	if first == faster {
		t.Fatal("-mips did not change the summary estimates")
	}
	// A structured family summarizes too.
	code, montage, stderr := runWfgen("-family", "montage", "-scale", "4", "-format", "summary")
	if code != 0 || !strings.HasPrefix(montage, "montage-0: 14 tasks") {
		t.Fatalf("montage summary: exit %d, stdout %q, stderr:\n%s", code, montage, stderr)
	}
}

func TestFormatScheduleSynthetic(t *testing.T) {
	code, stdout, stderr := runWfgen("-count", "5", "-seed", "3", "-format", "schedule", "-arrival", "poisson:120")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "poisson:120/h") {
		t.Fatalf("schedule header missing the process:\n%s", stdout)
	}
	var rows int
	prev := -1.0
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		rows++
		fields := strings.Fields(line)
		at, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			t.Fatalf("bad submit time %q: %v", fields[0], err)
		}
		if at < prev {
			t.Fatalf("schedule not sorted at %q", line)
		}
		prev = at
	}
	if rows != 5 {
		t.Fatalf("%d schedule rows, want 5", rows)
	}
}

func TestFormatScheduleTraceDefaultsCountToTraceLength(t *testing.T) {
	code, stdout, stderr := runWfgen("-format", "schedule", "-arrival", "trace", "-trace", "sample")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "42 workflows") {
		t.Fatalf("trace schedule should default to the 42 sample jobs:\n%s", stdout)
	}
	// An explicit -count overrides the default.
	_, short, _ := runWfgen("-format", "schedule", "-arrival", "trace", "-count", "3")
	if !strings.Contains(short, "3 workflows") {
		t.Fatalf("-count not honored under trace replay:\n%s", short)
	}
}

// TestScheduleTraceRowsUseReplayScaling pins the schedule/replay
// agreement: under a trace, the printed load column is the replay rule's
// runtime x procs x mips, not the raw generator draw.
func TestScheduleTraceRowsUseReplayScaling(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.swf")
	// One job: 100 s x 2 procs at 10 MIPS -> exactly 2000 MI.
	if err := os.WriteFile(path, []byte("1 0 -1 100 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runWfgen("-format", "schedule", "-arrival", "trace", "-trace", path, "-mips", "10")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	var rows []string
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		if !strings.HasPrefix(line, "#") {
			rows = append(rows, line)
		}
	}
	if len(rows) != 1 {
		t.Fatalf("rows %v, want 1", rows)
	}
	fields := strings.Fields(rows[0])
	if load := fields[3]; load != "2000" {
		t.Fatalf("load column %q, want 2000 (runtime x procs x mips)", load)
	}
	// -trace-scale compresses the printed submit times.
	if err := os.WriteFile(path, []byte("1 0 -1 100 2\n2 1000 -1 50 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, scaled, _ := runWfgen("-format", "schedule", "-arrival", "trace", "-trace", path, "-trace-scale", "0.5")
	if !strings.Contains(scaled, "500.0") {
		t.Fatalf("-trace-scale not applied to submit times:\n%s", scaled)
	}
}

// TestArrivalFlagsValidatedForEveryFormat pins the eager-validation
// contract: a malformed workload spec is a usage error (exit 2, no
// output) even when the format ignores the flags, and valid-but-ignored
// flags warn on stderr.
func TestArrivalFlagsValidatedForEveryFormat(t *testing.T) {
	for _, args := range [][]string{
		{"-format", "summary", "-arrival", "poisson:zero"},
		{"-format", "summary", "-arrival", "trace", "-trace", "/nonexistent-dir/t.swf"},
		{"-format", "schedule", "-arrival", "trace", "-trace", "sample", "-trace-scale", "NaN"},
		{"-format", "schedule", "-arrival", "trace", "-trace", "sample", "-trace-scale", "Inf"},
		{"-format", "schedule", "-arrival", "trace", "-trace", "sample", "-trace-scale", "-Inf"},
	} {
		code, stdout, stderr := runWfgen(args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, "wfgen: ") {
			t.Errorf("args %v: exit %d, stdout %q, stderr %q; want exit 2, an error and no output", args, code, stdout, stderr)
		}
	}
	code, _, stderr := runWfgen("-format", "summary", "-arrival", "poisson:10")
	if code != 0 {
		t.Fatalf("valid ignored flag failed (exit %d):\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "only affect -format schedule") {
		t.Fatalf("no ignored-flag warning:\n%s", stderr)
	}
}

func TestFormatScheduleTraceFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.swf")
	if err := os.WriteFile(path, []byte("1 0 -1 60 1\n2 30 -1 90 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runWfgen("-format", "schedule", "-arrival", "trace", "-trace", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "2 workflows") {
		t.Fatalf("file trace schedule:\n%s", stdout)
	}
}

func TestErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-definitely-not-a-flag"}},
		{"stray positional", []string{"dot"}},
		{"unknown family", []string{"-family", "fractal"}},
		{"unknown format", []string{"-format", "yaml"}},
		{"non-positive mips", []string{"-mips", "0"}},
		{"non-positive bw", []string{"-bw", "-3"}},
		{"bad arrival spec", []string{"-format", "schedule", "-arrival", "poisson:zero"}},
		{"trace without trace arrival", []string{"-format", "schedule", "-arrival", "poisson:10", "-trace", "sample"}},
		{"missing trace file", []string{"-format", "schedule", "-arrival", "trace", "-trace", "/nonexistent-dir/t.swf"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runWfgen(tc.args...)
			if code == 0 {
				t.Fatalf("args %v exited 0", tc.args)
			}
			if stderr == "" {
				t.Fatalf("args %v failed silently", tc.args)
			}
		})
	}
}
