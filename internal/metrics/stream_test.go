package metrics

import (
	"encoding/json"
	"math"
	"testing"
)

func sampleStats(i int) RunStats {
	return RunStats{
		Final: Snapshot{
			TimeHours: 8, Completed: 40 + i, Failed: i,
			ACT: 17000.123456789 + float64(i)*13.7, AE: 0.44 + float64(i)/100,
		},
		Submitted:  60,
		CCR:        0.16,
		Hours:      []float64{1, 2},
		Throughput: []float64{float64(10 + i), float64(20 + i)},
		ACT:        []float64{15000.5, 16000.25},
		AE:         []float64{0.4, 0.41},
	}
}

func TestReduceRunFlattensCollector(t *testing.T) {
	c := Collector{Snapshots: []Snapshot{
		{TimeHours: 1, Completed: 3, ACT: 100, AE: 0.5},
		{TimeHours: 2, Completed: 7, ACT: 90, AE: 0.6},
	}}
	final := c.Final()
	st := ReduceRun(&c, final, 12, 1.6)
	if st.Final != final || st.Submitted != 12 || st.CCR != 1.6 {
		t.Fatalf("header fields wrong: %+v", st)
	}
	if len(st.Hours) != 2 || st.Hours[0] != 1 || st.Hours[1] != 2 {
		t.Fatalf("hours %v", st.Hours)
	}
	if st.Throughput[0] != 3 || st.Throughput[1] != 7 {
		t.Fatalf("throughput %v", st.Throughput)
	}
	if st.ACT[1] != 90 || st.AE[1] != 0.6 {
		t.Fatalf("series %v %v", st.ACT, st.AE)
	}
	empty := ReduceRun(&Collector{}, Snapshot{}, 0, 0)
	if empty.Hours != nil || empty.Throughput != nil {
		t.Fatalf("empty collector produced series: %+v", empty)
	}
}

// TestRunStatsJSONRoundTripExact pins the property the warm-start cache and
// shard merge rely on: a RunStats record survives a JSON round trip
// bit-for-bit, so aggregates recomputed from cached records are identical
// to aggregates from live runs.
func TestRunStatsJSONRoundTripExact(t *testing.T) {
	in := sampleStats(3)
	in.Final.ACT = 1.0 / 3.0 * 17356.123 // force a non-terminating decimal
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out RunStats
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(out.Final.ACT) != math.Float64bits(in.Final.ACT) {
		t.Fatalf("ACT changed across round trip: %v vs %v", out.Final.ACT, in.Final.ACT)
	}
	if math.Float64bits(out.ACT[1]) != math.Float64bits(in.ACT[1]) {
		t.Fatal("series value changed across round trip")
	}
}

func TestCellAccumulatorOutOfOrderMatchesBatch(t *testing.T) {
	const reps = 5
	acc := NewCellAccumulator(reps)
	order := []int{3, 0, 4, 1, 2}
	for _, r := range order {
		if acc.Done() {
			t.Fatal("done before all replications")
		}
		if err := acc.Add(r, sampleStats(r)); err != nil {
			t.Fatal(err)
		}
	}
	if !acc.Done() || acc.Count() != reps {
		t.Fatalf("done=%v count=%d", acc.Done(), acc.Count())
	}
	finals := make([]Snapshot, reps)
	submitted := make([]int, reps)
	for r := 0; r < reps; r++ {
		st, ok := acc.Get(r)
		if !ok {
			t.Fatalf("replication %d missing", r)
		}
		finals[r] = st.Final
		submitted[r] = st.Submitted
	}
	want := AggregateRuns(finals, submitted)
	got := acc.Aggregate()
	if math.Float64bits(got.ACT.Mean) != math.Float64bits(want.ACT.Mean) ||
		math.Float64bits(got.ACT.CI95) != math.Float64bits(want.ACT.CI95) {
		t.Fatalf("accumulator diverged from batch aggregate:\n%+v\nvs\n%+v", got.ACT, want.ACT)
	}
	if got.Reps != reps {
		t.Fatalf("reps %d", got.Reps)
	}
}

func TestCellAccumulatorRejectsBadAdds(t *testing.T) {
	acc := NewCellAccumulator(2)
	if err := acc.Add(2, RunStats{}); err == nil {
		t.Error("out-of-range replication accepted")
	}
	if err := acc.Add(-1, RunStats{}); err == nil {
		t.Error("negative replication accepted")
	}
	if err := acc.Add(0, RunStats{}); err != nil {
		t.Fatal(err)
	}
	if err := acc.Add(0, RunStats{}); err == nil {
		t.Error("duplicate replication accepted")
	}
}

// TestCellAccumulatorDisjointHalvesMatchWhole pins the merge property the
// shard reassembly path relies on: two accumulations covering disjoint
// replication sets (as two shards would deliver them via Add) aggregate
// identically to one accumulation of the whole.
func TestCellAccumulatorDisjointHalvesMatchWhole(t *testing.T) {
	split := NewCellAccumulator(4)
	for _, r := range []int{1, 3, 0, 2} { // two interleaved "shards", out of order
		if err := split.Add(r, sampleStats(r)); err != nil {
			t.Fatal(err)
		}
	}
	if !split.Done() {
		t.Fatal("split accumulator incomplete")
	}
	whole := NewCellAccumulator(4)
	for r := 0; r < 4; r++ {
		if err := whole.Add(r, sampleStats(r)); err != nil {
			t.Fatal(err)
		}
	}
	if math.Float64bits(split.Aggregate().ACT.Mean) != math.Float64bits(whole.Aggregate().ACT.Mean) {
		t.Fatal("split-delivery aggregate differs from whole")
	}
}
