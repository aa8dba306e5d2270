package topology

import (
	"math"
	"testing"
)

func testNet(t *testing.T, n int) *Network {
	t.Helper()
	net, err := Generate(Config{N: n, Seed: 7})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return net
}

func TestNewLandmarkEstimatorClampsK(t *testing.T) {
	net := testNet(t, 12)
	tests := []struct {
		name  string
		k     int
		wantK int
	}{
		{"below one clamps to one", 0, 1},
		{"negative clamps to one", -5, 1},
		{"in range kept", 4, 4},
		{"above n clamps to n", 40, 12},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewLandmarkEstimator(net, tc.k, 11)
			if err != nil {
				t.Fatal(err)
			}
			lms := e.Landmarks()
			if len(lms) != tc.wantK {
				t.Fatalf("got %d landmarks, want %d", len(lms), tc.wantK)
			}
			seen := map[int]bool{}
			for _, lm := range lms {
				if lm < 0 || lm >= net.N() {
					t.Fatalf("landmark %d out of range", lm)
				}
				if seen[lm] {
					t.Fatalf("duplicate landmark %d", lm)
				}
				seen[lm] = true
			}
		})
	}
}

func TestNewLandmarkEstimatorEmptyNetwork(t *testing.T) {
	if _, err := NewLandmarkEstimator(&Network{}, 3, 1); err == nil {
		t.Fatal("expected error for empty network")
	}
}

func TestLandmarksReturnsACopy(t *testing.T) {
	e, err := NewLandmarkEstimator(testNet(t, 8), 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	lms := e.Landmarks()
	lms[0] = -99
	if e.Landmarks()[0] == -99 {
		t.Fatal("Landmarks exposed internal state")
	}
}

// TestEstimateIsConservativeLowerBound checks the documented contract: a
// triangulated estimate never exceeds the true widest-path bandwidth (each
// landmark path is a real path, so its bottleneck bounds the optimum from
// below).
func TestEstimateIsConservativeLowerBound(t *testing.T) {
	net := testNet(t, 20)
	e, err := NewLandmarkEstimator(net, 5, 13)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < net.N(); a++ {
		for b := 0; b < net.N(); b++ {
			if a == b {
				continue
			}
			got, want := e.Estimate(a, b), net.Bandwidth(a, b)
			if got > want {
				t.Fatalf("estimate(%d,%d) = %v exceeds true bandwidth %v", a, b, got, want)
			}
			if got < 0 {
				t.Fatalf("estimate(%d,%d) = %v negative", a, b, got)
			}
		}
	}
}

// TestEstimateExactWithAllLandmarks: when every node is a landmark, the
// triangulation through b itself yields min(bw(a,b), bw(b,b)=Inf) =
// bw(a,b), so the estimate is exact.
func TestEstimateExactWithAllLandmarks(t *testing.T) {
	net := testNet(t, 10)
	e, err := NewLandmarkEstimator(net, net.N(), 13)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < net.N(); a++ {
		for b := 0; b < net.N(); b++ {
			if a == b {
				continue
			}
			if got, want := e.Estimate(a, b), net.Bandwidth(a, b); got != want {
				t.Fatalf("estimate(%d,%d) = %v, want exact %v", a, b, got, want)
			}
		}
	}
}

func TestEstimateSelfIsInfinite(t *testing.T) {
	e, err := NewLandmarkEstimator(testNet(t, 6), 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(e.Estimate(4, 4), 1) {
		t.Fatal("self estimate should be +Inf")
	}
}

func TestEstimateTransferTime(t *testing.T) {
	net := testNet(t, 10)
	e, err := NewLandmarkEstimator(net, 4, 17)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		a, b   int
		sizeMb float64
		want   func(got float64) bool
	}{
		{"self transfer is free", 3, 3, 100, func(g float64) bool { return g == 0 }},
		{"zero size is free", 1, 2, 0, func(g float64) bool { return g == 0 }},
		{"negative size is free", 1, 2, -4, func(g float64) bool { return g == 0 }},
		{"positive transfer is size over bandwidth", 1, 2, 50,
			func(g float64) bool { return g == 50/e.Estimate(1, 2) && g > 0 }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := e.EstimateTransferTime(tc.a, tc.b, tc.sizeMb); !tc.want(got) {
				t.Fatalf("EstimateTransferTime(%d,%d,%v) = %v", tc.a, tc.b, tc.sizeMb, got)
			}
		})
	}
}

func TestEstimateTransferTimeZeroBandwidth(t *testing.T) {
	// A hand-built estimator with no usable landmark measurements must
	// report an infinite transfer time rather than dividing by zero.
	e := &LandmarkEstimator{landmarks: []int{0}, toLM: [][]float64{{0}, {0}}}
	if got := e.EstimateTransferTime(0, 1, 10); !math.IsInf(got, 1) {
		t.Fatalf("transfer over zero bandwidth = %v, want +Inf", got)
	}
}

func TestBandwidthOraclePassthrough(t *testing.T) {
	net := testNet(t, 8)
	o := BandwidthOracle{Net: net}
	if got, want := o.Estimate(2, 5), net.Bandwidth(2, 5); got != want {
		t.Fatalf("oracle estimate %v, want %v", got, want)
	}
	if got, want := o.EstimateTransferTime(2, 5, 30), net.TransferTime(2, 5, 30); got != want {
		t.Fatalf("oracle transfer time %v, want %v", got, want)
	}
}

// TestEstimateMatchesMathMin pins Estimate's builtin min to the math.Min
// triangulation it replaced, on hand-built rows with +Inf bandwidths,
// zeros and ties, and on a generated network.
func TestEstimateMatchesMathMin(t *testing.T) {
	inf := math.Inf(1)
	ref := func(e *LandmarkEstimator, a, b int) float64 {
		if a == b {
			return inf
		}
		best := 0.0
		for k := range e.toLM[a] {
			if v := math.Min(e.toLM[a][k], e.toLM[b][k]); v > best {
				best = v
			}
		}
		return best
	}
	hand := &LandmarkEstimator{landmarks: []int{0, 1, 2, 3}, toLM: [][]float64{
		{inf, 5, 5, 0},
		{inf, 5, 7, inf},
		{3, inf, 5, 5},
		{inf, inf, inf, inf},
		{0, 0, 0, 0},
		{5, 5, 5, 5},
	}}
	net := testNet(t, 12)
	gen, err := NewLandmarkEstimator(net, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*LandmarkEstimator{hand, gen} {
		n := len(e.toLM)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				got, want := e.Estimate(a, b), ref(e, a, b)
				if got != want || math.Signbit(got) != math.Signbit(want) {
					t.Fatalf("Estimate(%d,%d) = %v, math.Min reference %v", a, b, got, want)
				}
			}
		}
	}
}
