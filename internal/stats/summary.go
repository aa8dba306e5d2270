package stats

// Mean returns the arithmetic mean of xs, or 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Log2Ceil returns ceil(log2(n)) for n >= 1; it is the paper's fan-out and
// landmark count ("log2(n) neighbors"). Log2Ceil(1) == 0.
func Log2Ceil(n int) int {
	if n <= 1 {
		return 0
	}
	k, v := 0, 1
	for v < n {
		v <<= 1
		k++
	}
	return k
}
