package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestObsFlagValidation pins the observability flags' guard rails: each
// applies where the scope table says, and everything else is a flag error.
func TestObsFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"trace-out on non-single", []string{"-experiment", "table1", "-scale", "tiny", "-trace-out", "t.json"}},
		{"gantt on non-single", []string{"-experiment", "sweep", "-scale", "tiny", "-axes", "", "-gantt"}},
		{"trace-out with worker", []string{"-worker", "w", "-trace-out", "t.json"}},
		{"obs on non-sweep", []string{"-experiment", "single", "-scale", "tiny", "-obs"}},
		{"obs with shard", []string{"-experiment", "sweep", "-scale", "tiny", "-axes", "", "-obs", "-shard", "0/2"}},
		{"obs with coordinate", []string{"-experiment", "sweep", "-scale", "tiny", "-axes", "", "-obs", "-coordinate", "c"}},
		{"obs with precision", []string{"-experiment", "sweep", "-scale", "tiny", "-axes", "", "-obs", "-precision", "0.1"}},
		{"obs with cache", []string{"-experiment", "sweep", "-scale", "tiny", "-axes", "", "-obs", "-cache", "cc"}},
		{"log-level without a long-lived mode", []string{"-experiment", "table1", "-scale", "tiny", "-log-level", "debug"}},
		{"bad log level", []string{"-experiment", "sweep", "-scale", "tiny", "-axes", "", "-coordinate", "c", "-log-level", "loud"}},
		{"bad log format", []string{"-experiment", "sweep", "-scale", "tiny", "-axes", "", "-coordinate", "c", "-log-format", "xml"}},
		{"pprof without serve", []string{"-experiment", "table1", "-scale", "tiny", "-pprof"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCLI(tc.args...)
			if code != 2 {
				t.Fatalf("args %v exited %d, want 2; stderr:\n%s", tc.args, code, stderr)
			}
			if stderr == "" {
				t.Fatalf("args %v failed silently", tc.args)
			}
		})
	}
}

// Byte pins of the trace ring's two CLI consumers at -scale tiny -seed
// 2010, recorded before the grid reported through one tap.
const (
	traceOutDigest = "b53e1dfc376239899842cf1633e99c123ea448d76f807095ec64ceff7a199478"
	ganttDigest    = "cb2e39fd70d9f9848470bdd2535b6a16f1a47a5b8b640e070904a90e63f4df79"
)

// sha256Hex returns the hex SHA-256 of b.
func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestTraceOutWritesChromeTrace is the satellite acceptance check: the
// -trace-out file of a single run is structurally valid Chrome
// trace-event JSON — parseable, non-empty, with only known phases and
// non-negative durations — and its bytes are pinned.
func TestTraceOutWritesChromeTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	code, _, stderr := runCLI("-experiment", "single", "-scale", "tiny", "-trace-out", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "trace events") {
		t.Fatalf("no confirmation line on stderr:\n%s", stderr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(data); got != traceOutDigest {
		t.Errorf("trace file digest %s, want %s", got, traceOutDigest)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string  `json:"ph"`
			Ts  float64 `json:"ts"`
			Dur float64 `json:"dur"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" || len(doc.TraceEvents) == 0 {
		t.Fatalf("unexpected trace document: unit=%q events=%d", doc.DisplayTimeUnit, len(doc.TraceEvents))
	}
	var spans int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			spans++
			if e.Dur < 0 || e.Ts < 0 {
				t.Fatalf("bad span geometry: %+v", e)
			}
		case "i", "M":
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	if spans == 0 {
		t.Fatal("trace carries no complete spans")
	}
}

// TestGanttFlagRendersChart wires the satellite: -gantt on a single run
// prints the per-node ASCII Gantt chart after the metrics series, byte for
// byte as pinned.
func TestGanttFlagRendersChart(t *testing.T) {
	code, stdout, stderr := runCLI("-experiment", "single", "-scale", "tiny", "-gantt")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "node") || !strings.Contains(stdout, "gantt") {
		t.Fatalf("no gantt chart in output:\n%s", stdout)
	}
	if got := sha256Hex([]byte(stdout)); got != ganttDigest {
		t.Errorf("stdout digest %s, want %s", got, ganttDigest)
	}
}

// TestSweepObsFlag pins the CLI face of RunOptions.Obs: the sweep JSON
// gains per-cell distribution summaries with -obs and carries no trace of
// them without.
func TestSweepObsFlag(t *testing.T) {
	dir := t.TempDir()
	withPath := filepath.Join(dir, "with.json")
	withoutPath := filepath.Join(dir, "without.json")
	args := []string{"-experiment", "sweep", "-scale", "tiny", "-axes", "", "-reps", "2", "-out"}
	if code, _, stderr := runCLI(append(args, withPath, "-obs")...); code != 0 {
		t.Fatalf("obs sweep exit %d:\n%s", code, stderr)
	}
	if code, _, stderr := runCLI(append(args, withoutPath)...); code != 0 {
		t.Fatalf("plain sweep exit %d:\n%s", code, stderr)
	}
	with, err := os.ReadFile(withPath)
	if err != nil {
		t.Fatal(err)
	}
	without, err := os.ReadFile(withoutPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(with), `"obs"`) || !strings.Contains(string(with), `"exec_seconds"`) {
		t.Fatalf("-obs artifact has no distribution summaries:\n%.400s", with)
	}
	if strings.Contains(string(without), `"obs"`) {
		t.Fatalf("plain artifact mentions obs:\n%.400s", without)
	}
}
