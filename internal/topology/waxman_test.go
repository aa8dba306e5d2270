package topology

import (
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func genSmall(t testing.TB, n int, seed int64) *Network {
	t.Helper()
	net, err := Generate(Config{N: n, Seed: seed})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return net
}

func TestGenerateRejectsEmpty(t *testing.T) {
	if _, err := Generate(Config{N: 0}); !errors.Is(err, ErrConfig) {
		t.Fatalf("N=0: error %v, want ErrConfig", err)
	}
}

// TestGenerateRejectsBadBandwidth pins the ranges whose links could draw a
// negative, infinite or NaN bandwidth to an ErrConfig naming the range, in
// both representations; such a link used to panic the widest-path tree.
// A degenerate range draws its Min, which may be zero.
func TestGenerateRejectsBadBandwidth(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, r := range []stats.Range{
		{Min: -5, Max: -1}, {Min: -0.5, Max: 5}, {Min: nan, Max: nan}, {Min: 1, Max: nan},
		{Min: nan, Max: 1}, {Min: inf, Max: inf}, {Min: 0, Max: inf}, {Min: -inf, Max: 1},
	} {
		for _, compact := range []bool{false, true} {
			_, err := Generate(Config{N: 21, BandwidthRange: r, Compact: compact})
			if !errors.Is(err, ErrConfig) || !strings.Contains(err.Error(), "bandwidth range") {
				t.Errorf("range %+v (compact %v): error %v, want an ErrConfig naming the range", r, compact, err)
			}
		}
	}
	for _, r := range []stats.Range{{Min: 0, Max: -1}, {Min: 7, Max: 3}, {Min: 0, Max: 1e300}} {
		if _, err := Generate(Config{N: 21, BandwidthRange: r}); err != nil {
			t.Errorf("range %+v: %v", r, err)
		}
	}
}

func TestSingleNodeNetwork(t *testing.T) {
	net := genSmall(t, 1, 1)
	if !math.IsInf(net.Bandwidth(0, 0), 1) {
		t.Fatal("self bandwidth must be +Inf")
	}
	if net.TransferTime(0, 0, 100) != 0 {
		t.Fatal("self transfer must be instantaneous")
	}
}

func TestGeneratedNetworkIsConnected(t *testing.T) {
	for _, n := range []int{2, 5, 50, 300} {
		net := genSmall(t, n, int64(n))
		// BFS over physical links.
		seen := make([]bool, n)
		queue := []int{0}
		seen[0] = true
		count := 1
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, l := range net.Adj[u] {
				if !seen[l.To] {
					seen[l.To] = true
					count++
					queue = append(queue, l.To)
				}
			}
		}
		if count != n {
			t.Fatalf("n=%d: only %d reachable nodes", n, count)
		}
	}
}

func TestPairwiseBandwidthPositiveAndSymmetric(t *testing.T) {
	net := genSmall(t, 80, 7)
	for a := 0; a < net.N(); a++ {
		for b := 0; b < net.N(); b++ {
			bw := net.Bandwidth(a, b)
			if a == b {
				continue
			}
			if bw <= 0 || math.IsInf(bw, 0) {
				t.Fatalf("bandwidth(%d,%d)=%v not positive finite", a, b, bw)
			}
			if got := net.Bandwidth(b, a); got != bw {
				t.Fatalf("bandwidth asymmetric: (%d,%d)=%v vs %v", a, b, bw, got)
			}
			if !net.Cfg.BandwidthRange.Contains(bw) {
				t.Fatalf("bottleneck bandwidth %v outside link range", bw)
			}
		}
	}
}

func TestLatencySymmetricNonNegative(t *testing.T) {
	net := genSmall(t, 60, 9)
	for a := 0; a < net.N(); a++ {
		for b := a + 1; b < net.N(); b++ {
			la, lb := net.Latency(a, b), net.Latency(b, a)
			if la < 0 || la != lb {
				t.Fatalf("latency(%d,%d)=%v latency(%d,%d)=%v", a, b, la, b, a, lb)
			}
		}
	}
	if net.Latency(3, 3) != 0 {
		t.Fatal("self latency must be 0")
	}
}

// Widest-path correctness: compare the MST-derived bottleneck with an
// independent Dijkstra-style widest-path computation on the raw graph.
func widestPathDijkstra(net *Network, src int) []float64 {
	n := net.N()
	bottle := make([]float64, n)
	done := make([]bool, n)
	bottle[src] = math.Inf(1)
	for {
		u, best := -1, -1.0
		for v := 0; v < n; v++ {
			if !done[v] && bottle[v] > best {
				u, best = v, bottle[v]
			}
		}
		if u == -1 || best == 0 {
			break
		}
		done[u] = true
		for _, l := range net.Adj[u] {
			if nb := math.Min(bottle[u], l.Bandwidth); nb > bottle[l.To] {
				bottle[l.To] = nb
			}
		}
	}
	return bottle
}

func TestBottleneckMatchesDijkstraWidestPath(t *testing.T) {
	for _, seed := range []int64{3, 11, 42} {
		net := genSmall(t, 40, seed)
		for src := 0; src < net.N(); src += 7 {
			want := widestPathDijkstra(net, src)
			for v := 0; v < net.N(); v++ {
				if v == src {
					continue
				}
				got := net.Bandwidth(src, v)
				if math.Abs(got-want[v]) > 1e-5*want[v] {
					t.Fatalf("seed %d: bandwidth(%d,%d)=%v, dijkstra says %v", seed, src, v, got, want[v])
				}
			}
		}
	}
}

func TestTransferTimeScalesWithSize(t *testing.T) {
	net := genSmall(t, 20, 5)
	t1 := net.TransferTime(0, 1, 100)
	t2 := net.TransferTime(0, 1, 200)
	if t2 <= t1 {
		t.Fatalf("transfer time must grow with size: %v vs %v", t1, t2)
	}
	if net.TransferTime(0, 1, 0) != 0 {
		t.Fatal("zero-size transfer must be free")
	}
}

func TestDeterminism(t *testing.T) {
	a := genSmall(t, 50, 99)
	b := genSmall(t, 50, 99)
	for i := 0; i < 50; i++ {
		if a.Pos[i] != b.Pos[i] {
			t.Fatal("same seed produced different positions")
		}
		if len(a.Adj[i]) != len(b.Adj[i]) {
			t.Fatal("same seed produced different adjacency")
		}
	}
	for x := 0; x < 50; x++ {
		for y := 0; y < 50; y++ {
			if a.Bandwidth(x, y) != b.Bandwidth(x, y) {
				t.Fatal("same seed produced different bandwidth matrix")
			}
		}
	}
	c := genSmall(t, 50, 100)
	same := true
	for i := 0; i < 50 && same; i++ {
		same = a.Pos[i] == c.Pos[i]
	}
	if same {
		t.Fatal("different seeds produced identical layouts")
	}
}

func TestWaxmanLocalityBias(t *testing.T) {
	// Links should preferentially connect nearby nodes: the mean linked
	// distance must be well below the mean distance of all pairs.
	net := genSmall(t, 400, 123)
	var linkSum float64
	var linkCount int
	for i := range net.Adj {
		for _, l := range net.Adj[i] {
			if l.To > i {
				linkSum += net.Pos[i].Dist(net.Pos[l.To])
				linkCount++
			}
		}
	}
	var allSum float64
	var allCount int
	for i := 0; i < net.N(); i++ {
		for j := i + 1; j < net.N(); j++ {
			allSum += net.Pos[i].Dist(net.Pos[j])
			allCount++
		}
	}
	meanLink := linkSum / float64(linkCount)
	meanAll := allSum / float64(allCount)
	if meanLink >= meanAll*0.9 {
		t.Fatalf("no locality bias: mean link distance %v vs mean pair %v", meanLink, meanAll)
	}
}

func TestAvgBandwidthWithinLinkRange(t *testing.T) {
	net := genSmall(t, 100, 4)
	avg := net.AvgBandwidth()
	if !net.Cfg.BandwidthRange.Contains(avg) {
		t.Fatalf("avg bandwidth %v outside link range", avg)
	}
}

func TestLandmarkEstimateIsLowerBoundAndExactViaLandmark(t *testing.T) {
	net := genSmall(t, 120, 21)
	est, err := NewLandmarkEstimator(net, stats.Log2Ceil(net.N()), 21)
	if err != nil {
		t.Fatalf("NewLandmarkEstimator: %v", err)
	}
	for a := 0; a < net.N(); a += 3 {
		for b := 0; b < net.N(); b += 5 {
			if a == b {
				continue
			}
			lo := est.Estimate(a, b)
			hi := net.Bandwidth(a, b)
			if lo > hi+1e-6 {
				t.Fatalf("landmark estimate %v exceeds true bandwidth %v for (%d,%d)", lo, hi, a, b)
			}
			if lo <= 0 {
				t.Fatalf("landmark estimate non-positive for (%d,%d)", a, b)
			}
		}
	}
	// A pair where one endpoint IS a landmark must estimate exactly.
	lm := est.Landmarks()[0]
	other := (lm + 1) % net.N()
	if got, want := est.Estimate(lm, other), net.Bandwidth(lm, other); math.Abs(got-want) > 1e-6*want {
		t.Fatalf("estimate via own landmark %v, want exact %v", got, want)
	}
}

func TestLandmarkEstimatorClampsK(t *testing.T) {
	net := genSmall(t, 5, 2)
	est, err := NewLandmarkEstimator(net, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(est.Landmarks()); got != 5 {
		t.Fatalf("landmarks = %d, want clamped to 5", got)
	}
	est2, err := NewLandmarkEstimator(net, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(est2.Landmarks()); got != 1 {
		t.Fatalf("landmarks = %d, want clamped to 1", got)
	}
}

func TestBandwidthOracleMatchesNetwork(t *testing.T) {
	net := genSmall(t, 30, 8)
	o := BandwidthOracle{Net: net}
	if o.Estimate(1, 2) != net.Bandwidth(1, 2) {
		t.Fatal("oracle bandwidth mismatch")
	}
	if o.EstimateTransferTime(1, 2, 50) != net.TransferTime(1, 2, 50) {
		t.Fatal("oracle transfer time mismatch")
	}
}

// Property: for random seeds and sizes, triangulated estimates never exceed
// the true widest-path bandwidth (the estimator must stay conservative).
func TestQuickLandmarkLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		n := 20 + int(uint64(seed)%30)
		net, err := Generate(Config{N: n, Seed: seed})
		if err != nil {
			return false
		}
		est, err := NewLandmarkEstimator(net, 4, seed)
		if err != nil {
			return false
		}
		for a := 0; a < n; a += 3 {
			for b := 0; b < n; b += 4 {
				if a != b && est.Estimate(a, b) > net.Bandwidth(a, b)+1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestGenerateAllocations pins the dense build's allocation count below a
// bound that no per-node or per-row allocation fits under: fixed arrays,
// one adjacency block and one allocation per pair table, plus the link
// list's amortized growth and patchConnectivity's one growing member
// list. Per-node adjacency slices and per-row tables took 1,192
// allocations at 150 nodes and 10,785 at 1000. A 32-node build bridges
// several components; a map of every component per bridge took 97-212
// allocations there.
func TestGenerateAllocations(t *testing.T) {
	for _, c := range []struct {
		n    int
		seed int64
	}{{32, 1}, {32, 2}, {32, 3}, {150, 1}, {1000, 1}, {2000, 1}} {
		got := testing.AllocsPerRun(1, func() {
			if _, err := Generate(Config{N: c.n, Seed: c.seed}); err != nil {
				t.Fatal(err)
			}
		})
		if got > 64 {
			t.Errorf("n=%d seed %d: %v allocations per build, want at most 64", c.n, c.seed, got)
		}
	}
}

// BenchmarkGenerate times one dense build at the small, paper and largest
// Fig. 11 sizes, each iteration on its own seed.
func BenchmarkGenerate(b *testing.B) {
	for _, n := range []int{150, 1000, 2000} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Generate(Config{N: n, Seed: int64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
