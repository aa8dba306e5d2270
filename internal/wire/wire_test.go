package wire

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// testSpec stands in for the experiments sweep spec in generic envelopes.
type testSpec struct {
	Name string `json:"name"`
	Reps int    `json:"reps"`
}

func roundTrip[T any](t *testing.T, in T) {
	t.Helper()
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var out T
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestRoundTrip(t *testing.T) {
	stats := []metrics.RunStats{{
		Final:     metrics.Snapshot{TimeHours: 8, Completed: 41, ACT: 1234.5, AE: 0.25, AliveNodes: 60},
		Submitted: 42,
		CCR:       0.16,
		Hours:     []float64{1, 2},
		ACT:       []float64{1000, 1200},
	}}
	roundTrip(t, Sweep{
		Schema:     SweepV1,
		Name:       "tiny",
		Seed:       2010,
		Reps:       3,
		Algorithms: []string{"DSMF"},
		Cells: []SweepCell{{
			Scenario: "tiny lf=1", Scale: "tiny", Nodes: 60, LoadFactor: 1,
			Algo: "DSMF", Seeds: []int64{2010, 7, 9},
			Aggregate: metrics.RunAggregate{Reps: 3},
		}},
	})
	roundTrip(t, Shard[testSpec]{
		Schema: ShardV1, Hash: "abc", Lo: 0, Hi: 2, Jobs: 8,
		Spec: testSpec{Name: "s", Reps: 3}, Stats: stats,
	})
	roundTrip(t, CellCache{Schema: CellCacheV1, Stats: stats})
	roundTrip(t, SweepWork[testSpec]{Schema: SweepWorkV1, Hash: "abc", Spec: testSpec{Name: "s"}})
	roundTrip(t, WorkDir{Schema: WorkDirV1, Units: 9, LeaseTTLSeconds: 120, Meta: json.RawMessage(`{"x":1}`)})
	roundTrip(t, SubmitRequest{Name: "wf", Gen: &GenRequest{Seed: 11}})
	roundTrip(t, WorkflowStatus{ID: 3, Name: "wf", State: "active", Placed: 2,
		Tasks: []TaskStatus{{ID: 1, State: "running", Node: 4, LoadMI: 500}}})
	roundTrip(t, NextTaskResponse{Node: 4, Alive: true, Ready: 2,
		Next: &TaskRef{Workflow: 3, Task: 1, LoadMI: 500}})
	roundTrip(t, MetricsResponse{Schema: APIV1, Clock: "virtual", NowSeconds: 60,
		Admitted: 5, Rejected: 1, InFlight: 4, MaxInFlight: 64})
	roundTrip(t, ReplayRequest{Arrival: "trace", Trace: "sample", Count: 42})
	roundTrip(t, ReplayRequest{Model: "model.json", Synth: 100, Seed: 7})
	roundTrip(t, Model{Schema: ModelV1, Source: "t.swf", Jobs: 3, SpanSeconds: 60,
		Arrival: ModelArrival{Kind: "mmpp", RatePerHour: 12, CV: 1.4, Burst: 6, DwellHours: 0.5, Episodes: 3},
		Size:    ModelSize{LogMeanCPUSeconds: 7, LogStdCPUSeconds: 1.2, Procs: []ProcsBin{{Procs: 1, Count: 2}, {Procs: 4, Count: 1}}},
		GoF:     ModelGoF{MeanErr: 0.01, CVErr: 0.02, KS: 0.1, SizeLogMeanErr: 0.03}})
	roundTrip(t, ErrorResponse{Error: "overloaded", RetryAfterSeconds: 900})
}

// The artifact field order is part of the byte-identity contract: shard
// merges and warm-start re-runs are validated with cmp against single-host
// output, so a reordered or renamed field is a breaking change even when it
// round-trips fine.
func TestArtifactFieldOrder(t *testing.T) {
	data, err := json.Marshal(Shard[testSpec]{Schema: ShardV1, Hash: "h", Lo: 1, Hi: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"schema":"p2pgridsim/shard/v1","spec_hash":"h","lo":1,"hi":2,"jobs":0,"spec":{"name":"","reps":0},"stats":null}`
	if string(data) != want {
		t.Fatalf("shard encoding drifted:\n got %s\nwant %s", data, want)
	}
	data, err = json.Marshal(Sweep{Schema: SweepV1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want = `{"schema":"p2pgridsim/sweep/v1","seed":1,"reps":0,"algorithms":null,"cells":null}`
	if string(data) != want {
		t.Fatalf("sweep encoding drifted:\n got %s\nwant %s", data, want)
	}
	data, err = json.Marshal(Model{
		Schema: ModelV1, Source: "s", Jobs: 2, SpanSeconds: 10,
		Arrival: ModelArrival{Kind: "poisson", RatePerHour: 1, CV: 0.5},
		Size:    ModelSize{Procs: []ProcsBin{{Procs: 1, Count: 2}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want = `{"schema":"p2pgridsim/model/v1","source":"s","jobs":2,"span_seconds":10,` +
		`"arrival":{"kind":"poisson","rate_per_hour":1,"cv":0.5},` +
		`"size":{"log_mean_cpu_seconds":0,"log_std_cpu_seconds":0,"procs":[{"procs":1,"count":2}]},` +
		`"gof":{"interarrival_mean_err":0,"interarrival_cv_err":0,"ks_distance":0,"size_log_mean_err":0}}`
	if string(data) != want {
		t.Fatalf("model encoding drifted:\n got %s\nwant %s", data, want)
	}
}

func TestExpect(t *testing.T) {
	if err := Expect(SweepV1, SweepV1); err != nil {
		t.Fatalf("matching schema rejected: %v", err)
	}
	err := Expect(SweepV1, ShardV1)
	if err == nil {
		t.Fatal("mismatched schema accepted")
	}
	for _, frag := range []string{SweepV1, ShardV1} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("error %q does not name %q", err, frag)
		}
	}
}

// Tampering with an envelope's schema tag must be caught by the uniform
// check every reader routes through.
func TestTamperedSchemaRejected(t *testing.T) {
	data, err := json.Marshal(CellCache{Schema: CellCacheV1})
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(data), CellCacheV1, "p2pgridsim/cellcache/v2", 1)
	var doc CellCache
	if err := json.Unmarshal([]byte(tampered), &doc); err != nil {
		t.Fatal(err)
	}
	if err := Expect(doc.Schema, CellCacheV1); err == nil {
		t.Fatal("tampered schema version accepted")
	}
}
