package arrival

import "sort"

// Sorted reports whether ts is non-decreasing (every Schedule result
// satisfies it by construction).
func Sorted(ts []float64) bool {
	return sort.SliceIsSorted(ts, func(i, j int) bool { return ts[i] < ts[j] })
}
