package experiments

import (
	"encoding/json"
	"testing"
)

// runWithShards executes one tiny-scale run at the given shard count and
// returns a canonical JSON rendering of everything observable: the metric
// series, the final sample, and the submission accounting. Shards is
// zeroed in the rendered Setting so the comparison sees only outcomes.
func runWithShards(t *testing.T, setting Setting, algo string, shards int) string {
	t.Helper()
	setting.Shards = shards
	res, err := SingleRunWith(setting, algo)
	if err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	blob, err := json.Marshal(struct {
		Collector   any
		Final       any
		Submitted   int
		Dropped     int
		Unsubmitted int
	}{res.Collector, res.Final, res.Submitted, res.Dropped, res.Unsubmitted})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(blob)
}

// TestShardInvariance pins the engine's headline guarantee: a K-shard run
// is bit-identical to the serial run - same completions, same ACT/AE to
// the last bit, same metric series, and the same event stream and latency
// histograms along the way - across the JIT path, the full-ahead planner
// path, and churn with rescheduling.
func TestShardInvariance(t *testing.T) {
	tiny := ScaleByNameMust(t, "tiny")
	churn := churnSetting(t, 77)
	churn.RescheduleFailed = true
	cases := []struct {
		name    string
		algo    string
		setting Setting
	}{
		{name: "jit-dsmf", algo: "DSMF", setting: NewSetting(tiny, 2010)},
		{name: "planner-smf", algo: "SMF", setting: NewSetting(tiny, 2010)},
		{name: "churn-reschedule", algo: "DSMF", setting: churn},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial := runWithShards(t, tc.setting, tc.algo, 1)
			stream := tapRun(t, tc.setting, tc.algo)
			for _, k := range []int{2, 4} {
				if got := runWithShards(t, tc.setting, tc.algo, k); got != serial {
					t.Errorf("shards=%d result differs from serial run\nserial: %.200s\nshards: %.200s",
						k, serial, got)
				}
				sharded := tc.setting
				sharded.Shards = k
				if got := tapRun(t, sharded, tc.algo); got != stream {
					t.Errorf("shards=%d event stream %+v, serial %+v", k, got, stream)
				}
			}
		})
	}
}

// ScaleByNameMust is a test helper around ScaleByName.
func ScaleByNameMust(t *testing.T, name string) Scale {
	t.Helper()
	sc, err := ScaleByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}
