package loadspec

import (
	"math"
	"testing"
)

// FuzzResolveOptions feeds -arrival × -trace-scale × {no trace, -trace
// sample} to ResolveOptions. Whatever resolves must submit at finite,
// non-negative, non-decreasing times: the trace's own times when it
// resolves to one, else 16 scheduled arrivals. The seed corpus, NaN and
// ±Inf scales included, runs in every go test.
func FuzzResolveOptions(f *testing.F) {
	f.Fuzz(func(t *testing.T, arrivalSpec string, scale float64, sample bool, seed int64) {
		o := Options{Arrival: arrivalSpec, TraceScale: scale}
		if sample {
			o.Trace = "sample"
		}
		sp, err := ResolveOptions(o)
		if err != nil {
			return
		}
		spec := sp.Arrival
		if sp.Trace != nil {
			spec = sp.Trace.ArrivalSpec()
		}
		times, err := spec.Schedule(16, seed)
		if err != nil {
			t.Fatalf("ResolveOptions(%+v) resolved to a spec that does not schedule: %v", o, err)
		}
		if sp.Trace != nil {
			times = spec.Times
		}
		for i, at := range times {
			if math.IsNaN(at) || math.IsInf(at, 0) || at < 0 || (i > 0 && at < times[i-1]) {
				t.Fatalf("ResolveOptions(%+v) submits at %v (index %d)", o, at, i)
			}
		}
	})
}
