package experiments

import (
	"math"
	"testing"

	"repro/internal/heuristics"
)

// TestGoldenDeterminism pins the exact Final metrics of every algorithm at
// TinyScale under a fixed seed. Determinism is the simulator's contract:
// the same seed must produce bit-identical results, and any hot-path
// optimization (gossip cache layout, ready-set maintenance, event-queue
// reuse) must reproduce these values exactly. The goldens were generated
// from the pre-optimization implementation; a mismatch means an
// "optimization" changed observable behaviour, not just speed.
//
// Regenerate (only after an INTENTIONAL semantic change) by printing
// c.Algo, c.Stats[0].Final.ACT, .AE and .Completed for every cell of
// StaticComparisonRep(TinyScale, goldenSeed, 1) with %v formatting.
func TestGoldenDeterminism(t *testing.T) {
	const goldenSeed = 2010
	golden := []struct {
		algo      string
		act, ae   float64
		completed int
	}{
		{"DHEFT", 21650.865260590817, 0.35423967796614614, 60},
		{"HEFT", 15006.369483712935, 0.6425945728020367, 60},
		{"max-min", 20833.573222114566, 0.33883855090769716, 50},
		{"min-min", 18590.0298482585, 0.4136518639231221, 60},
		{"DSDF", 18686.64008545777, 0.41624480292662763, 59},
		{"sufferage", 20200.382501676297, 0.3760035387326499, 56},
		{"DSMF", 17151.088496413126, 0.4436445756268499, 53},
		{"SMF", 13190.577234911616, 1.001781028659834, 60},
	}

	res, err := StaticComparisonRep(TinyScale, goldenSeed, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != len(golden) {
		t.Fatalf("got %d cells, want %d", len(res.Cells), len(golden))
	}
	for i, want := range golden {
		c := res.Cells[i]
		if c.Algo != want.algo {
			t.Errorf("cell %d: algorithm %q, want %q", i, c.Algo, want.algo)
			continue
		}
		got := c.Stats[0].Final
		if bitsDiffer(got.ACT, want.act) {
			t.Errorf("%s: ACT = %v, want exactly %v", want.algo, got.ACT, want.act)
		}
		if bitsDiffer(got.AE, want.ae) {
			t.Errorf("%s: AE = %v, want exactly %v", want.algo, got.AE, want.ae)
		}
		if got.Completed != want.completed {
			t.Errorf("%s: Completed = %d, want %d", want.algo, got.Completed, want.completed)
		}
	}
}

// bitsDiffer compares float64s for bit-identity (the determinism contract
// is exact reproduction, not tolerance-based closeness).
func bitsDiffer(a, b float64) bool {
	return math.Float64bits(a) != math.Float64bits(b)
}

// TestGoldenSeedSensitivity guards the golden test itself: a different
// seed must produce different metrics, proving the pinned values actually
// depend on the seeded randomness rather than being degenerate constants.
func TestGoldenSeedSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("two extra TinyScale runs")
	}
	a, err := Run(NewSetting(TinyScale, 2010), heuristics.NewDSMF())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(NewSetting(TinyScale, 2011), heuristics.NewDSMF())
	if err != nil {
		t.Fatal(err)
	}
	if a.Final.ACT == b.Final.ACT && a.Final.AE == b.Final.AE {
		t.Fatalf("seeds 2010 and 2011 produced identical finals (%v, %v): golden test is degenerate",
			a.Final.ACT, a.Final.AE)
	}
}
