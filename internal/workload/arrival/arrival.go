// Package arrival models when workflows enter the system. The paper's
// experiments submit the whole Table I workload up front ("batch"), but
// just-in-time scheduling exists precisely to react to work arriving over
// time; real grid traces show Poisson-like, bursty and diurnal submission
// patterns. An arrival Spec is plain, JSON-able data (it travels inside
// sweep specs, spec hashes and warm-start cache keys) that materializes
// into a deterministic Process: given a submission count and a derived
// seed it produces the same non-decreasing schedule of virtual submit
// times on every machine, which keeps arrival-axis sweeps shardable and
// cacheable exactly like every other axis.
package arrival

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// Process kinds. The zero value ("", equivalently KindBatch) is the
// paper's batch load: every workflow is submitted at t=0, which keeps the
// default axis value bit-identical to the pre-arrival simulator.
const (
	KindBatch   = "batch"
	KindPoisson = "poisson"
	KindMMPP    = "mmpp"
	KindDiurnal = "diurnal"
	KindTrace   = "trace"
)

// Spec describes one arrival process as plain data. Zero value = batch.
type Spec struct {
	// Kind selects the process; "" means batch.
	Kind string `json:"kind,omitempty"`

	// RatePerHour is the mean system-wide arrival intensity (workflows
	// per hour) of the synthetic processes. Required (> 0) for poisson,
	// mmpp and diurnal.
	RatePerHour float64 `json:"rate_per_hour,omitempty"`

	// Burst is the MMPP burst-state rate multiplier (how many times the
	// base rate the process runs at while bursting). 0 picks the default
	// of 8. Must be >= 1 when set.
	Burst float64 `json:"burst,omitempty"`

	// DwellHours is the MMPP mean state-dwell time in hours (both
	// states). 0 picks the default of 1 hour.
	DwellHours float64 `json:"dwell_hours,omitempty"`

	// PeriodHours is the diurnal cycle length in hours; 0 picks 24.
	PeriodHours float64 `json:"period_hours,omitempty"`

	// Times is the explicit replay schedule of a trace process, in
	// seconds from the start of the run, non-decreasing. Required
	// (non-empty) for trace.
	Times []float64 `json:"times,omitempty"`
}

// IsBatch reports whether the spec is the default submit-everything-at-t0
// load.
func (s Spec) IsBatch() bool { return s.Kind == "" || s.Kind == KindBatch }

// Validate checks the parameter combination. Fields that do not apply to
// the spec's kind must be zero: a stray inapplicable parameter almost
// always means a mis-built spec, and because specs travel verbatim inside
// sweep spec hashes and warm-start cache keys, two specs that behave
// identically but differ in an ignored field would otherwise hash apart
// and silently split cache identities (see also Normalize, which collapses
// explicitly-spelled defaults for the same reason).
func (s Spec) Validate() error {
	switch s.Kind {
	case "", KindBatch, KindPoisson, KindMMPP, KindDiurnal, KindTrace:
	default:
		return fmt.Errorf("arrival: unknown kind %q (batch|poisson|mmpp|diurnal|trace)", s.Kind)
	}
	if err := s.checkApplicable(); err != nil {
		return err
	}
	switch s.Kind {
	case "", KindBatch:
		return nil
	case KindPoisson, KindMMPP, KindDiurnal:
		if !(s.RatePerHour > 0 && finite(s.RatePerHour)) {
			return fmt.Errorf("arrival: %s needs RatePerHour > 0, got %v", s.Kind, s.RatePerHour)
		}
		if s.Kind == KindMMPP && s.Burst != 0 && !(s.Burst >= 1 && finite(s.Burst)) {
			return fmt.Errorf("arrival: mmpp burst multiplier %v < 1", s.Burst)
		}
		if !(s.DwellHours >= 0 && finite(s.DwellHours)) || !(s.PeriodHours >= 0 && finite(s.PeriodHours)) {
			return fmt.Errorf("arrival: negative dwell/period in %+v", s)
		}
		return s.checkFloors()
	default: // KindTrace
		if len(s.Times) == 0 {
			return fmt.Errorf("arrival: trace replay needs a non-empty schedule")
		}
		prev := math.Inf(-1)
		for i, t := range s.Times {
			if !finite(t) || t < 0 {
				return fmt.Errorf("arrival: trace time %d is %v", i, t)
			}
			if t < prev {
				return fmt.Errorf("arrival: trace times decrease at index %d (%v after %v)", i, t, prev)
			}
			prev = t
		}
		return nil
	}
}

// minRate bounds the sparsest synthetic process Schedule samples: the
// least RatePerHour, MMPP RatePerHour × DwellHours and diurnal
// PeriodHours. Far below it a schedule overflows to +Inf or never ends: a
// Poisson gap is 3600/RatePerHour seconds, an MMPP makes about
// 1/(2·RatePerHour·DwellHours) state switches per arrival, and a cycle far
// shorter than the gaps between arrivals puts the diurnal sine's argument
// outside the float range. One arrival in 10^6 hours is far sparser than
// any run horizon can observe.
const minRate = 1e-6

// checkFloors rejects a synthetic spec too sparse for Schedule to sample.
func (s Spec) checkFloors() error {
	if s.RatePerHour < minRate {
		return fmt.Errorf("arrival: %s needs RatePerHour >= %g, got %v", s.Kind, minRate, s.RatePerHour)
	}
	if s.Kind == KindMMPP && s.DwellHours != 0 && s.RatePerHour*s.DwellHours < minRate {
		return fmt.Errorf("arrival: mmpp needs RatePerHour × DwellHours >= %g, got %v", minRate, s.RatePerHour*s.DwellHours)
	}
	if s.Kind == KindDiurnal && s.PeriodHours != 0 && s.PeriodHours < minRate {
		return fmt.Errorf("arrival: diurnal needs PeriodHours >= %g, got %v", minRate, s.PeriodHours)
	}
	return nil
}

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// checkApplicable rejects nonzero parameters the spec's kind never reads.
func (s Spec) checkApplicable() error {
	kind := s.Kind
	if kind == "" {
		kind = KindBatch
	}
	synthetic := kind == KindPoisson || kind == KindMMPP || kind == KindDiurnal
	checks := []struct {
		name       string
		set        bool
		applicable bool
	}{
		{"RatePerHour", s.RatePerHour != 0, synthetic},
		{"Burst", s.Burst != 0, kind == KindMMPP},
		{"DwellHours", s.DwellHours != 0, kind == KindMMPP},
		{"PeriodHours", s.PeriodHours != 0, kind == KindDiurnal},
		{"Times", len(s.Times) != 0, kind == KindTrace},
	}
	for _, c := range checks {
		if c.set && !c.applicable {
			return fmt.Errorf("arrival: %s does not apply to kind %q", c.name, kind)
		}
	}
	return nil
}

// Normalize returns the canonical form of the spec: KindBatch collapses to
// the zero Kind, and explicitly-spelled defaults collapse to their zero
// spelling (mmpp Burst 8 and DwellHours 1, diurnal PeriodHours 24 - the
// values Schedule substitutes for zero). Normalized equal-behavior specs
// are byte-identical under JSON, so sweep spec hashes and warm-start cache
// keys see one identity per behavior instead of one per spelling.
func (s Spec) Normalize() Spec {
	switch s.Kind {
	case KindBatch:
		s.Kind = ""
	case KindMMPP:
		if s.Burst == 8 {
			s.Burst = 0
		}
		if s.DwellHours == 1 {
			s.DwellHours = 0
		}
	case KindDiurnal:
		if s.PeriodHours == 24 {
			s.PeriodHours = 0
		}
	}
	return s
}

// String renders the spec compactly for labels and tables.
func (s Spec) String() string {
	switch s.Kind {
	case "", KindBatch:
		return KindBatch
	case KindTrace:
		return fmt.Sprintf("trace(%d)", len(s.Times))
	default:
		return fmt.Sprintf("%s:%g/h", s.Kind, s.RatePerHour)
	}
}

// Schedule produces the submit times of n workflows: a non-decreasing
// schedule in seconds, a pure function of (spec, seed). Batch consumes no
// randomness at all, so the default axis value leaves every other seeded
// stream untouched.
func (s Spec) Schedule(n int, seed int64) ([]float64, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("arrival: negative count %d", n)
	}
	out := make([]float64, n)
	switch s.Kind {
	case "", KindBatch:
		return out, nil // all zeros
	case KindPoisson:
		rng := stats.NewRand(seed, 0x4A)
		mean := 3600 / s.RatePerHour
		t := 0.0
		for i := range out {
			t += rng.ExpFloat64() * mean
			out[i] = t
		}
		return out, nil
	case KindMMPP:
		// Two-state Markov-modulated Poisson process: the instantaneous
		// rate alternates between a calm state at `low` and a burst
		// state at `low*burst`, with exponential dwell times, such that
		// the long-run mean rate is RatePerHour (states are equally
		// likely in steady state with equal mean dwells).
		rng := stats.NewRand(seed, 0x4B)
		burst := s.Burst
		if burst == 0 {
			burst = 8
		}
		dwell := s.DwellHours * 3600
		if dwell == 0 {
			dwell = 3600
		}
		low := 2 * s.RatePerHour / (1 + burst) // mean of low and low*burst is Rate
		rate := low
		inBurst := false
		t := 0.0
		switchAt := rng.ExpFloat64() * dwell
		for i := range out {
			for {
				gap := rng.ExpFloat64() * 3600 / rate
				if t+gap <= switchAt {
					t += gap
					break
				}
				// The next arrival falls beyond the state switch: advance
				// to the switch and redraw at the new rate (memorylessness
				// makes the redraw exact, not an approximation).
				t = switchAt
				inBurst = !inBurst
				if inBurst {
					rate = low * burst
				} else {
					rate = low
				}
				switchAt = t + rng.ExpFloat64()*dwell
			}
			out[i] = t
		}
		return out, nil
	case KindDiurnal:
		// Sinusoidal-rate Poisson process via Lewis-Shedler thinning:
		// rate(t) = mean * (1 + sin(2*pi*t/period)), peaking at 2*mean
		// and touching zero once per cycle.
		rng := stats.NewRand(seed, 0x4C)
		period := s.PeriodHours * 3600
		if period == 0 {
			period = 24 * 3600
		}
		mean := s.RatePerHour / 3600 // per second
		lambdaMax := 2 * mean
		t := 0.0
		for i := range out {
			for {
				t += rng.ExpFloat64() / lambdaMax
				lambda := mean * (1 + math.Sin(2*math.Pi*t/period))
				if rng.Float64()*lambdaMax <= lambda {
					break
				}
			}
			out[i] = t
		}
		return out, nil
	case KindTrace:
		// Replay the recorded schedule. A count beyond the trace wraps
		// around with the trace span added, so replays stay
		// non-decreasing (and deterministic) at any n.
		span := s.Times[len(s.Times)-1]
		if span <= 0 {
			span = 1
		}
		for i := range out {
			lap := i / len(s.Times)
			out[i] = s.Times[i%len(s.Times)] + float64(lap)*span
		}
		return out, nil
	}
	panic("unreachable: Validate covers every kind")
}

// Parse reads the CLI form of a spec: "batch", "poisson:R", "mmpp:R",
// "mmpp:R:BURST", "diurnal:R", "diurnal:R:PERIODH" or "trace" (the caller
// supplies the trace schedule separately). R is the mean arrival rate in
// workflows per hour.
func Parse(s string) (Spec, error) {
	parts := strings.Split(strings.TrimSpace(s), ":")
	kind := parts[0]
	spec := Spec{Kind: kind}
	argc := len(parts) - 1
	num := func(i int, what string) (float64, error) {
		v, err := strconv.ParseFloat(parts[i], 64)
		if err != nil || !(v > 0 && finite(v)) {
			return 0, fmt.Errorf("arrival: bad %s %q in %q", what, parts[i], s)
		}
		return v, nil
	}
	switch kind {
	case "", KindBatch, KindTrace:
		if kind == "" {
			spec.Kind = KindBatch
		}
		if argc > 0 {
			return Spec{}, fmt.Errorf("arrival: %q takes no parameters, got %q", kind, s)
		}
	case KindPoisson, KindMMPP, KindDiurnal:
		if argc < 1 || argc > 2 || (kind == KindPoisson && argc != 1) {
			return Spec{}, fmt.Errorf("arrival: %q wants %s:RATE%s, got %q", kind, kind,
				map[string]string{KindPoisson: "", KindMMPP: "[:BURST]", KindDiurnal: "[:PERIODH]"}[kind], s)
		}
		rate, err := num(1, "rate")
		if err != nil {
			return Spec{}, err
		}
		spec.RatePerHour = rate
		if argc == 2 {
			v, err := num(2, "parameter")
			if err != nil {
				return Spec{}, err
			}
			if kind == KindMMPP {
				spec.Burst = v
			} else {
				spec.PeriodHours = v
			}
		}
	default:
		return Spec{}, fmt.Errorf("arrival: unknown kind %q (batch|poisson|mmpp|diurnal|trace)", kind)
	}
	if err := spec.Validate(); err != nil && spec.Kind != KindTrace {
		return Spec{}, err
	}
	return spec, nil
}
