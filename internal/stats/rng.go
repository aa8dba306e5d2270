// Package stats provides the small numeric toolkit shared by the simulator:
// deterministic seed derivation, bounded distributions and descriptive
// summaries. Everything is driven from a single root seed so that any
// experiment is exactly reproducible.
package stats

import "math/rand"

// SplitSeed derives a new 64-bit seed from a parent seed and a stream label.
// It applies the SplitMix64 finalizer to the combination, which is enough to
// decorrelate streams that differ in a single bit. Deriving seeds instead of
// sharing one *rand.Rand lets independent subsystems (topology, workload,
// gossip, churn) consume randomness without perturbing each other.
func SplitSeed(parent int64, label uint64) int64 {
	z := uint64(parent) + 0x9e3779b97f4a7c15*(label+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// ChainSeed folds a sequence of stream labels into a parent seed by
// iterated SplitSeed application. It is the hierarchical form of SplitSeed:
// the sweep engine derives per-run seeds as
// ChainSeed(root, scaleLabel, repLabel), so every (scale, replication) cell
// owns an independent stream while the whole matrix stays a pure function
// of the root seed. With no labels the parent is returned unchanged.
func ChainSeed(parent int64, labels ...uint64) int64 {
	seed := parent
	for _, label := range labels {
		seed = SplitSeed(seed, label)
	}
	return seed
}

// NewRand returns a rand.Rand seeded with the derived stream seed.
func NewRand(parent int64, label uint64) *rand.Rand {
	return rand.New(rand.NewSource(SplitSeed(parent, label)))
}

// Range is a closed interval used for uniform sampling of workload and
// topology parameters (task loads, data sizes, bandwidths...).
type Range struct {
	Min, Max float64
}

// Sample draws a uniform value from the range. A degenerate range (Min==Max)
// returns Min so fixed parameters can reuse the same plumbing.
func (r Range) Sample(rng *rand.Rand) float64 {
	if r.Max <= r.Min {
		return r.Min
	}
	return r.Min + rng.Float64()*(r.Max-r.Min)
}

// Mid returns the midpoint, the expected value of a uniform sample.
func (r Range) Mid() float64 { return (r.Min + r.Max) / 2 }

// Contains reports whether v lies inside the closed interval.
func (r Range) Contains(v float64) bool { return v >= r.Min && v <= r.Max }

// SampleInt draws a uniform integer from [min, max] inclusive.
func SampleInt(rng *rand.Rand, min, max int) int {
	if max <= min {
		return min
	}
	return min + rng.Intn(max-min+1)
}

// Choice returns a uniformly chosen element of the non-empty slice.
func Choice[T any](rng *rand.Rand, xs []T) T {
	return xs[rng.Intn(len(xs))]
}

// Shuffle permutes xs in place using the supplied generator.
func Shuffle[T any](rng *rand.Rand, xs []T) {
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// SampleWithout draws k distinct integers from [0, n) excluding the given
// value (pass a negative excluded value to disable exclusion). It is used for
// gossip fan-out neighbor selection. If fewer than k candidates exist, all of
// them are returned.
func SampleWithout(rng *rand.Rand, n, k, exclude int) []int {
	return SampleWithoutInto(rng, n, k, exclude, make([]int, 0, 3*min(k, n)))
}

// SampleWithoutInto is SampleWithout reusing buf's backing array, for
// callers that sample every cycle (the gossip hot loop). The result aliases
// buf and is only valid until the buffer's next use. It draws exactly the
// same rng sequence as SampleWithout, so swapping between the two never
// perturbs a seeded run.
//
// The draw is a partial Fisher-Yates shuffle over the candidate list
// [0, n) without exclude, which is never built: position p holds p, or p+1
// past the excluded value, until a swap overwrites it. The first k positions
// live in buf[:k]; the at most k positions at or beyond k that a swap
// touches are kept as (position, value) pairs in buf[k:3k]. The cost is
// O(k²) and independent of n, and a buffer of capacity 3k is never grown.
// When k covers every candidate, all of them are returned in ascending
// order without drawing.
func SampleWithoutInto(rng *rand.Rand, n, k, exclude int, buf []int) []int {
	m := n
	if exclude >= 0 && exclude < n {
		m--
	}
	candidate := func(p int) int {
		if exclude >= 0 && p >= exclude {
			return p + 1
		}
		return p
	}
	out := buf[:0]
	for p := 0; p < min(k, m); p++ {
		out = append(out, candidate(p))
	}
	if k >= m {
		return out
	}
	moved := out[k:] // (position, value) pairs for swapped positions >= k
	for i := 0; i < k; i++ {
		j := i + rng.Intn(m-i)
		if j < k {
			out[i], out[j] = out[j], out[i]
			continue
		}
		slot := -1
		for s := 0; s < len(moved); s += 2 {
			if moved[s] == j {
				slot = s
				break
			}
		}
		if slot < 0 {
			slot = len(moved)
			moved = append(moved, j, candidate(j))
		}
		out[i], moved[slot+1] = moved[slot+1], out[i]
	}
	return out
}
