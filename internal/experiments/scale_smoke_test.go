package experiments

import (
	"os"
	"testing"
)

// TestHundredThousandNodeShortRun is the large-grid acceptance smoke: a
// 100k-node topology (the compact struct-of-arrays representation - a
// dense matrix pair at this size would need ~150 GB) must construct, run
// a short simulation with a 4-worker gossip replay end to end, and produce
// a sane final sample.
// Three full gossip cycles over 100k caches took 11 s on a 2-vCPU Xeon
// @ 2.10GHz with a 450 MB peak resident set, so the test only runs when
// asked for explicitly (the CI large-grid job sets the variable).
func TestHundredThousandNodeShortRun(t *testing.T) {
	if os.Getenv("P2PGRID_LARGE") == "" {
		t.Skip("set P2PGRID_LARGE=1 to run the 100k-node smoke (about 11 s on 2 vCPUs)")
	}
	scale := Scale{
		Name:          "100k-smoke",
		Nodes:         100_000,
		LoadFactor:    1,
		HorizonHours:  0.25, // 900s: three 300s gossip cycles
		SnapshotHours: 0.25,
	}
	setting := NewSetting(scale, 42)
	setting.Homes = 64 // the grid is huge, the workload need not be
	setting.Shards = 4
	res, err := SingleRunWith(setting, "DSMF")
	if err != nil {
		t.Fatal(err)
	}
	if res.Submitted != 64 {
		t.Fatalf("submitted %d workflows, want one per home", res.Submitted)
	}
	if res.Final.AliveNodes <= 0 || res.Final.AliveNodes > scale.Nodes {
		t.Fatalf("final alive count %d out of range", res.Final.AliveNodes)
	}
}
