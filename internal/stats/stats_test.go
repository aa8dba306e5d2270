package stats

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func TestSplitSeedDistinctStreams(t *testing.T) {
	seen := make(map[int64]uint64)
	for label := uint64(0); label < 1000; label++ {
		s := SplitSeed(42, label)
		if prev, dup := seen[s]; dup {
			t.Fatalf("labels %d and %d collide on seed %d", prev, label, s)
		}
		seen[s] = label
	}
}

func TestSplitSeedDeterministic(t *testing.T) {
	if SplitSeed(7, 3) != SplitSeed(7, 3) {
		t.Fatal("SplitSeed is not deterministic")
	}
	if SplitSeed(7, 3) == SplitSeed(8, 3) {
		t.Fatal("different parents produced the same seed")
	}
}

func TestRangeSampleWithinBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := Range{Min: 100, Max: 10000}
	for i := 0; i < 1000; i++ {
		v := r.Sample(rng)
		if !r.Contains(v) {
			t.Fatalf("sample %v outside [%v,%v]", v, r.Min, r.Max)
		}
	}
}

func TestRangeDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := Range{Min: 5, Max: 5}
	if v := r.Sample(rng); v != 5 {
		t.Fatalf("degenerate range sampled %v, want 5", v)
	}
	if got := (Range{Min: 2, Max: 8}).Mid(); got != 5 {
		t.Fatalf("Mid = %v, want 5", got)
	}
}

func TestSampleIntInclusiveBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sawMin, sawMax := false, false
	for i := 0; i < 10000; i++ {
		v := SampleInt(rng, 2, 5)
		if v < 2 || v > 5 {
			t.Fatalf("SampleInt out of range: %d", v)
		}
		sawMin = sawMin || v == 2
		sawMax = sawMax || v == 5
	}
	if !sawMin || !sawMax {
		t.Fatal("SampleInt never hit an endpoint in 10k draws")
	}
	if v := SampleInt(rng, 7, 7); v != 7 {
		t.Fatalf("degenerate SampleInt = %d, want 7", v)
	}
}

func TestSampleWithoutExcludesAndIsDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		got := SampleWithout(rng, 20, 5, 7)
		if len(got) != 5 {
			t.Fatalf("got %d samples, want 5", len(got))
		}
		seen := map[int]bool{}
		for _, v := range got {
			if v == 7 {
				t.Fatal("excluded value sampled")
			}
			if v < 0 || v >= 20 {
				t.Fatalf("out-of-range sample %d", v)
			}
			if seen[v] {
				t.Fatalf("duplicate sample %d", v)
			}
			seen[v] = true
		}
	}
}

func TestSampleWithoutSmallPopulation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	got := SampleWithout(rng, 3, 10, 1)
	if len(got) != 2 {
		t.Fatalf("want all 2 candidates, got %v", got)
	}
}

// sampleWithoutReference is the dense partial Fisher-Yates the sparse
// SampleWithoutInto replaced: materialize every candidate, then swap the
// first k positions into place. Every seeded run depends on the sampler's
// exact draws, so the rewrite is pinned to this body.
func sampleWithoutReference(rng *rand.Rand, n, k, exclude int) []int {
	var candidates []int
	for i := 0; i < n; i++ {
		if i != exclude {
			candidates = append(candidates, i)
		}
	}
	if k >= len(candidates) {
		return candidates
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(len(candidates)-i)
		candidates[i], candidates[j] = candidates[j], candidates[i]
	}
	return candidates[:k]
}

func TestSampleWithoutIntoMatchesReference(t *testing.T) {
	params := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60000; trial++ {
		n := params.Intn(80)
		k := params.Intn(n + 3)
		exclude := params.Intn(n+4) - 2
		seed := params.Int63()
		wantRng := rand.New(rand.NewSource(seed))
		want := sampleWithoutReference(wantRng, n, k, exclude)

		gotRng := rand.New(rand.NewSource(seed))
		got := SampleWithoutInto(gotRng, n, k, exclude, make([]int, 0, params.Intn(8)))
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (n %d, k %d, exclude %d): got %v, want %v", trial, n, k, exclude, got, want)
		}
		if g, w := gotRng.Int63(), wantRng.Int63(); g != w {
			t.Fatalf("trial %d (n %d, k %d, exclude %d): rng advanced differently", trial, n, k, exclude)
		}
	}
}

func TestSampleWithoutAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const n, k = 100000, 17
	buf := make([]int, 0, 3*k)
	if a := testing.AllocsPerRun(100, func() { buf = SampleWithoutInto(rng, n, k, 5, buf) }); a != 0 {
		t.Fatalf("SampleWithoutInto into a 3k buffer: %v allocs/op, want 0", a)
	}
	for _, k := range []int{1, 17, n - 1, n + 5} {
		if a := testing.AllocsPerRun(10, func() { SampleWithout(rng, n, k, 5) }); a != 1 {
			t.Fatalf("SampleWithout(k %d): %v allocs/op, want 1", k, a)
		}
	}
}

var sampleSink []int

func BenchmarkSampleWithoutInto(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		k := Log2Ceil(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			buf := make([]int, 0, 3*k)
			for i := 0; i < b.N; i++ {
				buf = SampleWithoutInto(rng, n, k, i%n, buf)
			}
			sampleSink = buf
		})
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 1000: 10, 1024: 10, 1025: 11, 2000: 11}
	for n, want := range cases {
		if got := Log2Ceil(n); got != want {
			t.Errorf("Log2Ceil(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean([1 2 3]) != 2")
	}
}

func TestChainSeed(t *testing.T) {
	const root = 2010
	if ChainSeed(root) != root {
		t.Fatal("ChainSeed with no labels must return the parent unchanged")
	}
	if ChainSeed(root, 5) != SplitSeed(root, 5) {
		t.Fatal("single-label ChainSeed must match SplitSeed")
	}
	if ChainSeed(root, 1, 2) != SplitSeed(SplitSeed(root, 1), 2) {
		t.Fatal("ChainSeed must fold labels left to right")
	}
	// Label order matters: (1,2) and (2,1) are different streams.
	if ChainSeed(root, 1, 2) == ChainSeed(root, 2, 1) {
		t.Fatal("ChainSeed ignored label order")
	}
	seen := map[int64]bool{ChainSeed(root): true}
	for a := uint64(0); a < 8; a++ {
		for b := uint64(0); b < 8; b++ {
			s := ChainSeed(root, a, b)
			if seen[s] {
				t.Fatalf("collision at labels (%d,%d)", a, b)
			}
			seen[s] = true
		}
	}
}
