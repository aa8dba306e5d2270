package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/trace"
)

// TestSweepObsByteIdentity pins the artifact contract of RunOptions.Obs:
// an obs-off sweep's JSON carries no "obs" key anywhere, and an obs-on
// sweep differs from it ONLY by the per-cell omitempty summary block —
// strip the summaries and the bytes are identical. This is what lets the
// distribution block ride the existing sweep/v1 schema without a version
// bump.
func TestSweepObsByteIdentity(t *testing.T) {
	spec := microSpec([]string{"DSMF", "min-min"}, 2, 2010)
	off, err := RunSweepStream(spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	on, err := RunSweepStream(spec, RunOptions{Obs: true})
	if err != nil {
		t.Fatal(err)
	}
	offJSON := mustJSON(t, off)
	if bytes.Contains(offJSON, []byte(`"obs"`)) {
		t.Fatalf("obs-off artifact mentions obs:\n%s", offJSON)
	}
	for i := range on.Cells {
		c := &on.Cells[i]
		if c.Obs == nil {
			t.Fatalf("cell %d has no summary under RunOptions.Obs", i)
		}
		if c.Obs.ExecSeconds == nil || c.Obs.ExecSeconds.Count == 0 {
			t.Fatalf("cell %d exec histogram empty: %+v", i, c.Obs)
		}
		if c.Obs.WorkflowCompletionSeconds == nil || c.Obs.WorkflowCompletionSeconds.Count == 0 {
			t.Fatalf("cell %d completion histogram empty: %+v", i, c.Obs)
		}
	}
	onJSON := mustJSON(t, on)
	if !bytes.Contains(onJSON, []byte(`"obs"`)) {
		t.Fatal("obs-on artifact carries no obs blocks")
	}
	for i := range on.Cells {
		on.Cells[i].Obs = nil
	}
	stripped := mustJSON(t, on)
	if !bytes.Equal(stripped, offJSON) {
		t.Fatal("stripping obs summaries does not recover the obs-off artifact byte for byte")
	}
}

// TestSweepObsDeterministic pins the replication-order merge: two obs-on
// runs of the same spec produce byte-identical artifacts, summaries
// included (the float sums are order-sensitive, so this fails if the
// merge ever follows completion order instead).
func TestSweepObsDeterministic(t *testing.T) {
	spec := microSpec([]string{"DSMF"}, 3, 77)
	a, err := RunSweepStream(spec, RunOptions{Obs: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSweepStream(spec, RunOptions{Obs: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, a), mustJSON(t, b)) {
		t.Fatal("obs-on sweep artifacts differ between identical runs")
	}
}

// TestSettingObservationFieldsInvisible pins that the observation field
// on Setting is excluded from every JSON-derived identity (cell-cache
// keys, spec hashes, shard partials): a Setting marshals to the same
// bytes with and without a trace ring and metrics tap attached. The cell key
// itself is additionally pinned as independent of the replication count,
// which is what lets a higher-Reps plan extend a cached prefix.
func TestSettingObservationFieldsInvisible(t *testing.T) {
	plan, err := newSweepPlan(microSpec([]string{"DSMF"}, 1, 5))
	if err != nil {
		t.Fatal(err)
	}
	setting := plan.scens[0].setting(5, nil, false)
	plain, err := json.Marshal(setting)
	if err != nil {
		t.Fatal(err)
	}
	setting.Tap = grid.Taps{obs.NewGridMetrics(), grid.TraceTap{Buf: trace.NewBuffer(8)}}
	decorated, err := json.Marshal(setting)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, decorated) {
		t.Fatalf("observation fields leak into Setting JSON:\n%s\n%s", plain, decorated)
	}
	wider, err := newSweepPlan(microSpec([]string{"DSMF"}, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	if plan.cellKey(0) != wider.cellKey(0) {
		t.Fatal("cell key depends on the replication count")
	}
}
