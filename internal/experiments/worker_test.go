package experiments

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments/executor"
)

// TestCoordinatedSweepByteIdentical is the tentpole acceptance test: three
// concurrent workers drain one work directory and the merged result is
// byte-identical to the single-host sweep JSON.
func TestCoordinatedSweepByteIdentical(t *testing.T) {
	spec := microSpec([]string{"DSMF", "min-min"}, 2, 7)
	single, err := RunSweepStream(spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, single)

	dir := t.TempDir()
	c, _, err := InitSweepWork(dir, spec, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if c.Units != 2 {
		t.Fatalf("work dir holds %d units, want one per cell (2)", c.Units)
	}

	const workers = 3
	stats := make([]executor.DrainStats, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stats[w], errs[w] = RunSweepWorker(dir, WorkerOptions{Owner: string(rune('a' + w))})
		}(w)
	}
	wg.Wait()
	completed := 0
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		completed += stats[w].Completed
	}
	if completed != c.Units {
		t.Fatalf("workers completed %d units, want %d", completed, c.Units)
	}

	merged, err := MergeSweepWork(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustJSON(t, merged); !bytes.Equal(want, got) {
		t.Fatalf("coordinated sweep JSON differs from single-host run:\n%s\nvs\n%s", got, want)
	}
}

// TestCoordinateSweepSoloCompletes pins the one-command path: CoordinateSweep
// alone initializes, drains and merges, with no extra workers.
func TestCoordinateSweepSoloCompletes(t *testing.T) {
	spec := microSpec([]string{"DSMF"}, 2, 7)
	single, err := RunSweepStream(spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := CoordinateSweep(t.TempDir(), spec, time.Hour, WorkerOptions{Owner: "solo"})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != 1 || stats.Stolen != 0 {
		t.Fatalf("solo coordinate stats = %+v, want 1 completed, 0 stolen", stats)
	}
	if !bytes.Equal(mustJSON(t, single), mustJSON(t, res)) {
		t.Fatal("solo coordinated result differs from direct run")
	}
}

// TestCoordinatedSweepCrashRecovery simulates a worker dying mid-cell: a
// claimed lease is abandoned, the TTL lapses, and a second worker steals
// the cell — the merged output is still byte-identical and the steal is
// recorded.
func TestCoordinatedSweepCrashRecovery(t *testing.T) {
	spec := microSpec([]string{"DSMF", "min-min"}, 2, 7)
	single, err := RunSweepStream(spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	const ttl = 80 * time.Millisecond
	if _, _, err := InitSweepWork(dir, spec, ttl); err != nil {
		t.Fatal(err)
	}
	// The "crashing" worker claims cell 0 and never completes or renews.
	c, _, err := OpenSweepWork(dir)
	if err != nil {
		t.Fatal(err)
	}
	unit, _, _, ok, err := c.Claim("crasher")
	if err != nil || !ok || unit != 0 {
		t.Fatalf("crasher claim: unit=%d ok=%v err=%v", unit, ok, err)
	}

	stats, err := RunSweepWorker(dir, WorkerOptions{Owner: "rescuer"})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != c.Units {
		t.Fatalf("rescuer completed %d units, want %d", stats.Completed, c.Units)
	}
	if stats.Stolen < 1 || c.Steals() < 1 {
		t.Fatalf("crash recovery recorded no steal (stolen=%d, markers=%d)", stats.Stolen, c.Steals())
	}
	merged, err := MergeSweepWork(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, single), mustJSON(t, merged)) {
		t.Fatal("crash-recovered sweep differs from single-host run")
	}
}

// TestSweepWorkRejectsForeignSpec pins the safety rails: a used work dir
// refuses a different sweep, and MergeSweepWork refuses an undrained dir.
func TestSweepWorkRejectsForeignSpec(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := InitSweepWork(dir, microSpec([]string{"DSMF"}, 2, 7), time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, _, err := InitSweepWork(dir, microSpec([]string{"DSMF"}, 3, 7), time.Hour); err == nil {
		t.Fatal("work dir accepted a different spec")
	}
	// Same spec re-initializes fine.
	if _, _, err := InitSweepWork(dir, microSpec([]string{"DSMF"}, 2, 7), time.Hour); err != nil {
		t.Fatalf("idempotent re-init failed: %v", err)
	}
	if _, err := MergeSweepWork(dir); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Fatalf("merge of undrained dir = %v, want incomplete error", err)
	}
	if _, _, err := OpenSweepWork(t.TempDir()); err == nil {
		t.Fatal("opened an uninitialized work dir")
	}
}
