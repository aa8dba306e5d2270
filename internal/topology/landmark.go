package topology

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// LandmarkEstimator reproduces the paper's landmark-based network status
// mechanism [Maniymaran & Maheswaran, GLOBECOM'07]: every node measures its
// bandwidth to log2(n) landmark nodes and publishes the list via the
// epidemic gossip protocol; any node can then estimate the bandwidth between
// two arbitrary peers by triangulating through the landmarks.
//
// The estimate for (a,b) is max over landmarks L of min(bw(a,L), bw(L,b)).
// Because end-to-end bandwidth is a widest-path bottleneck, every such
// triangulated value is a provable LOWER bound of the true bandwidth, and it
// is exact whenever the widest a-b path passes a landmark. This gives the
// scheduler realistic, slightly conservative information rather than an
// oracle.
type LandmarkEstimator struct {
	landmarks []int
	// toLM[i][k] is the measured bandwidth from node i to landmark k.
	toLM [][]float64
}

// NewLandmarkEstimator selects k landmarks uniformly at random (k is clamped
// to [1, n]) and measures each node's bandwidth to all of them.
func NewLandmarkEstimator(net *Network, k int, seed int64) (*LandmarkEstimator, error) {
	n := net.N()
	if n == 0 {
		return nil, fmt.Errorf("topology: empty network")
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	rng := stats.NewRand(seed, 0xB2)
	lms := stats.SampleWithout(rng, n, k, -1)
	e := &LandmarkEstimator{landmarks: lms, toLM: make([][]float64, n)}
	for i := 0; i < n; i++ {
		row := make([]float64, len(lms))
		for j, lm := range lms {
			row[j] = net.Bandwidth(i, lm)
		}
		e.toLM[i] = row
	}
	return e, nil
}

// Estimate returns the triangulated bandwidth between a and b in Mb/s.
func (e *LandmarkEstimator) Estimate(a, b int) float64 {
	if a == b {
		return math.Inf(1)
	}
	best := 0.0
	ra, rb := e.toLM[a], e.toLM[b]
	rb = rb[:len(ra)]
	for k := range ra {
		v := min(ra[k], rb[k]) // math.Min's results, without its call
		if v > best {
			best = v
		}
	}
	return best
}

// EstimateTransferTime mirrors Network.TransferTime using estimated
// bandwidth (latency is ignored: the landmark mechanism measures bandwidth).
func (e *LandmarkEstimator) EstimateTransferTime(a, b int, sizeMb float64) float64 {
	if a == b || sizeMb <= 0 {
		return 0
	}
	bw := e.Estimate(a, b)
	if bw <= 0 {
		return math.Inf(1)
	}
	return sizeMb / bw
}

// BandwidthOracle adapts a Network to the estimator interface used by the
// schedulers, for information-quality ablations (perfect knowledge).
type BandwidthOracle struct{ Net *Network }

// Estimate returns the true end-to-end bandwidth.
func (o BandwidthOracle) Estimate(a, b int) float64 { return o.Net.Bandwidth(a, b) }

// EstimateTransferTime returns the true transfer time.
func (o BandwidthOracle) EstimateTransferTime(a, b int, sizeMb float64) float64 {
	return o.Net.TransferTime(a, b, sizeMb)
}
