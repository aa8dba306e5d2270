package main

import (
	"time"

	"repro/internal/experiments"
	"repro/internal/stats"
	"repro/internal/topology"
)

// sink keeps probed results alive so the compiler cannot drop the calls.
var sink float64

// probeLayers times direct calls into the topology and sampling layers on
// a network of the workload's size: the dense all-pairs tables up to 4096
// nodes, the compact spanning tree above.
func probeLayers(r *report, nodes int, seed int64) error {
	setting := experiments.NewSetting(experiments.Scale{Nodes: nodes}, seed)
	net, err := setting.BuildNet()
	if err != nil {
		return err
	}
	k := max(1, stats.Log2Ceil(nodes))
	est, err := topology.NewLandmarkEstimator(net, k, seed)
	if err != nil {
		return err
	}
	rng := stats.NewRand(seed, 0xBE)
	pairs := make([][2]int, 1024)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(nodes), rng.Intn(nodes)}
	}
	buf := make([]int, 0, nodes)

	var landmarkErr error
	landmark := perOp(func(int) { _, landmarkErr = topology.NewLandmarkEstimator(net, k, seed) })
	if landmarkErr != nil {
		return landmarkErr
	}
	r.add("topology.landmark_s", "s", landmark, 1)
	r.add("topology.avgbw_s", "s", perOp(func(int) { sink += net.AvgBandwidth() }), 1)
	r.add("topology.query_ns", "ns", 1e9*perOp(func(i int) {
		p := pairs[i%len(pairs)]
		sink += net.TransferTime(p[0], p[1], 100)
	}), 1)
	r.add("topology.estimate_ns", "ns", 1e9*perOp(func(i int) {
		p := pairs[i%len(pairs)]
		sink += est.Estimate(p[0], p[1])
	}), 1)
	r.add("stats.sample_us", "us", 1e6*perOp(func(i int) {
		buf = stats.SampleWithoutInto(rng, nodes, k, i%nodes, buf)
	}), 1)
	return nil
}

// perOp returns the median seconds per call of fn over five batches, each
// batch long enough to take at least 5 ms.
func perOp(fn func(i int)) float64 {
	batch := func(n int) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		return time.Since(start)
	}
	n := 1
	for batch(n) < 5*time.Millisecond {
		n *= 2
	}
	per := make([]float64, 5)
	for i := range per {
		per[i] = batch(n).Seconds() / float64(n)
	}
	return median(per)
}
