package arrival

import (
	"math"
	"reflect"
	"testing"
)

func mustSchedule(t *testing.T, s Spec, n int, seed int64) []float64 {
	t.Helper()
	ts, err := s.Schedule(n, seed)
	if err != nil {
		t.Fatalf("%v: %v", s, err)
	}
	if len(ts) != n {
		t.Fatalf("%v: %d times, want %d", s, len(ts), n)
	}
	if !Sorted(ts) {
		t.Fatalf("%v: schedule not non-decreasing: %v", s, ts)
	}
	for i, v := range ts {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%v: time %d is %v", s, i, v)
		}
	}
	return ts
}

func TestBatchIsZeroValueAndAllZeros(t *testing.T) {
	for _, s := range []Spec{{}, {Kind: KindBatch}} {
		if !s.IsBatch() {
			t.Fatalf("%+v not recognized as batch", s)
		}
		for _, v := range mustSchedule(t, s, 10, 42) {
			if v != 0 {
				t.Fatalf("batch produced non-zero time %v", v)
			}
		}
	}
}

func TestSchedulesDeterministicAndSeedSensitive(t *testing.T) {
	specs := []Spec{
		{Kind: KindPoisson, RatePerHour: 60},
		{Kind: KindMMPP, RatePerHour: 60},
		{Kind: KindMMPP, RatePerHour: 60, Burst: 4, DwellHours: 0.5},
		{Kind: KindDiurnal, RatePerHour: 60},
		{Kind: KindDiurnal, RatePerHour: 60, PeriodHours: 6},
	}
	for _, s := range specs {
		a := mustSchedule(t, s, 200, 7)
		b := mustSchedule(t, s, 200, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%v: same seed produced different schedules", s)
		}
		c := mustSchedule(t, s, 200, 8)
		if reflect.DeepEqual(a, c) {
			t.Errorf("%v: different seeds produced identical schedules", s)
		}
	}
}

func TestPoissonMeanSpacing(t *testing.T) {
	const rate = 120.0 // per hour
	ts := mustSchedule(t, Spec{Kind: KindPoisson, RatePerHour: rate}, 4000, 11)
	mean := ts[len(ts)-1] / float64(len(ts)) // seconds per arrival
	want := 3600 / rate
	if mean < want*0.9 || mean > want*1.1 {
		t.Fatalf("mean spacing %.1fs, want about %.1fs", mean, want)
	}
}

// TestMMPPBurstierThanPoisson checks the defining property of the
// Markov-modulated process: at the same mean rate, inter-arrival gaps
// have a larger coefficient of variation than the exponential's 1.
func TestMMPPBurstierThanPoisson(t *testing.T) {
	cv := func(ts []float64) float64 {
		var gaps []float64
		for i := 1; i < len(ts); i++ {
			gaps = append(gaps, ts[i]-ts[i-1])
		}
		var sum float64
		for _, g := range gaps {
			sum += g
		}
		mean := sum / float64(len(gaps))
		var ss float64
		for _, g := range gaps {
			ss += (g - mean) * (g - mean)
		}
		return math.Sqrt(ss/float64(len(gaps))) / mean
	}
	po := cv(mustSchedule(t, Spec{Kind: KindPoisson, RatePerHour: 60}, 5000, 3))
	mm := cv(mustSchedule(t, Spec{Kind: KindMMPP, RatePerHour: 60, Burst: 10}, 5000, 3))
	if mm <= po {
		t.Fatalf("MMPP CV %.2f not burstier than Poisson CV %.2f", mm, po)
	}
}

func TestDiurnalConcentratesArrivalsInPeak(t *testing.T) {
	const period = 24.0 // hours
	ts := mustSchedule(t, Spec{Kind: KindDiurnal, RatePerHour: 100, PeriodHours: period}, 6000, 5)
	// rate(t) ∝ 1 + sin(2πt/period): the first half-period carries the
	// peak, the second the trough.
	firstHalf := 0
	for _, v := range ts {
		phase := math.Mod(v, period*3600) / (period * 3600)
		if phase < 0.5 {
			firstHalf++
		}
	}
	frac := float64(firstHalf) / float64(len(ts))
	if frac < 0.6 {
		t.Fatalf("peak half-period holds %.0f%% of arrivals, want well above 50%%", frac*100)
	}
}

func TestTraceReplayAndWraparound(t *testing.T) {
	s := Spec{Kind: KindTrace, Times: []float64{0, 10, 25}}
	got := mustSchedule(t, s, 5, 1)
	want := []float64{0, 10, 25, 25, 35} // second lap offset by span 25
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("trace replay %v, want %v", got, want)
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	bad := []Spec{
		{Kind: "weibull"},
		{Kind: KindPoisson},
		{Kind: KindPoisson, RatePerHour: -1},
		{Kind: KindMMPP, RatePerHour: 10, Burst: 0.5},
		{Kind: KindTrace},
		{Kind: KindTrace, Times: []float64{5, 1}},
		{Kind: KindTrace, Times: []float64{-1}},
		{Kind: KindTrace, Times: []float64{math.NaN()}},
		{Kind: KindTrace, Times: []float64{0, math.Inf(1)}},
		{Kind: KindPoisson, RatePerHour: math.NaN()},
		{Kind: KindPoisson, RatePerHour: math.Inf(1)},
		{Kind: KindPoisson, RatePerHour: 1e-320},
		{Kind: KindMMPP, RatePerHour: 10, Burst: math.NaN()},
		{Kind: KindMMPP, RatePerHour: 10, Burst: math.Inf(1)},
		{Kind: KindMMPP, RatePerHour: 10, DwellHours: math.NaN()},
		{Kind: KindMMPP, RatePerHour: 1e-3, DwellHours: 1e-4},
		{Kind: KindDiurnal, RatePerHour: 10, PeriodHours: math.Inf(1)},
		{Kind: KindDiurnal, RatePerHour: 10, PeriodHours: 1e-309},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("%+v validated", s)
		}
		if _, err := s.Schedule(3, 1); err == nil {
			t.Errorf("%+v scheduled", s)
		}
	}
	if _, err := (Spec{}).Schedule(-1, 1); err == nil {
		t.Error("negative count accepted")
	}
}

// TestValidateRejectsInapplicableFields pins the strict-parameter rule:
// a nonzero field the kind never reads is a spec-construction bug, and
// letting it through would split spec hashes and warm-start cache keys
// between specs that behave identically.
func TestValidateRejectsInapplicableFields(t *testing.T) {
	cases := []struct {
		name string
		s    Spec
	}{
		{"batch-rate", Spec{Kind: KindBatch, RatePerHour: 10}},
		{"zero-kind-rate", Spec{RatePerHour: 10}},
		{"batch-times", Spec{Kind: KindBatch, Times: []float64{1}}},
		{"poisson-burst", Spec{Kind: KindPoisson, RatePerHour: 10, Burst: 2}},
		{"poisson-dwell", Spec{Kind: KindPoisson, RatePerHour: 10, DwellHours: 1}},
		{"poisson-period", Spec{Kind: KindPoisson, RatePerHour: 10, PeriodHours: 24}},
		{"poisson-times", Spec{Kind: KindPoisson, RatePerHour: 10, Times: []float64{1}}},
		{"mmpp-period", Spec{Kind: KindMMPP, RatePerHour: 10, PeriodHours: 24}},
		{"mmpp-times", Spec{Kind: KindMMPP, RatePerHour: 10, Times: []float64{1}}},
		{"diurnal-burst", Spec{Kind: KindDiurnal, RatePerHour: 10, Burst: 2}},
		{"diurnal-dwell", Spec{Kind: KindDiurnal, RatePerHour: 10, DwellHours: 1}},
		{"diurnal-times", Spec{Kind: KindDiurnal, RatePerHour: 10, Times: []float64{1}}},
		{"trace-rate", Spec{Kind: KindTrace, RatePerHour: 10, Times: []float64{1}}},
		{"trace-burst", Spec{Kind: KindTrace, Burst: 2, Times: []float64{1}}},
		{"trace-dwell", Spec{Kind: KindTrace, DwellHours: 1, Times: []float64{1}}},
		{"trace-period", Spec{Kind: KindTrace, PeriodHours: 24, Times: []float64{1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.s.Validate(); err == nil {
				t.Errorf("%+v validated despite inapplicable field", tc.s)
			}
		})
	}
	// The applicable combinations stay accepted.
	good := []Spec{
		{},
		{Kind: KindBatch},
		{Kind: KindPoisson, RatePerHour: 10},
		{Kind: KindMMPP, RatePerHour: 10, Burst: 4, DwellHours: 0.5},
		{Kind: KindDiurnal, RatePerHour: 10, PeriodHours: 6},
		{Kind: KindTrace, Times: []float64{0, 1}},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", s, err)
		}
	}
}

// TestNormalizeCollapsesEqualBehaviorSpellings: a spec spelling the
// documented default explicitly must normalize to the zero spelling and
// produce the identical schedule, so both spellings share one hash/cache
// identity.
func TestNormalizeCollapsesEqualBehaviorSpellings(t *testing.T) {
	cases := []struct {
		name     string
		explicit Spec
		zero     Spec
	}{
		{"batch-kind", Spec{Kind: KindBatch}, Spec{}},
		{"mmpp-burst-8", Spec{Kind: KindMMPP, RatePerHour: 30, Burst: 8}, Spec{Kind: KindMMPP, RatePerHour: 30}},
		{"mmpp-dwell-1", Spec{Kind: KindMMPP, RatePerHour: 30, DwellHours: 1}, Spec{Kind: KindMMPP, RatePerHour: 30}},
		{"diurnal-period-24", Spec{Kind: KindDiurnal, RatePerHour: 30, PeriodHours: 24}, Spec{Kind: KindDiurnal, RatePerHour: 30}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.explicit.Normalize(); !reflect.DeepEqual(got, tc.zero) {
				t.Fatalf("Normalize(%+v) = %+v, want %+v", tc.explicit, got, tc.zero)
			}
			a := mustSchedule(t, tc.explicit, 100, 9)
			b := mustSchedule(t, tc.zero, 100, 9)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("explicit-default spelling changed the schedule")
			}
		})
	}
	// Non-default values survive normalization untouched.
	keep := []Spec{
		{Kind: KindPoisson, RatePerHour: 10},
		{Kind: KindMMPP, RatePerHour: 30, Burst: 4, DwellHours: 0.5},
		{Kind: KindDiurnal, RatePerHour: 30, PeriodHours: 6},
		{Kind: KindTrace, Times: []float64{0, 1}},
	}
	for _, s := range keep {
		if got := s.Normalize(); !reflect.DeepEqual(got, s) {
			t.Errorf("Normalize(%+v) = %+v, want unchanged", s, got)
		}
	}
}

func TestParse(t *testing.T) {
	good := map[string]Spec{
		"batch":        {Kind: KindBatch},
		"poisson:120":  {Kind: KindPoisson, RatePerHour: 120},
		"mmpp:60":      {Kind: KindMMPP, RatePerHour: 60},
		"mmpp:60:4":    {Kind: KindMMPP, RatePerHour: 60, Burst: 4},
		"diurnal:30":   {Kind: KindDiurnal, RatePerHour: 30},
		"diurnal:30:6": {Kind: KindDiurnal, RatePerHour: 30, PeriodHours: 6},
		"trace":        {Kind: KindTrace},
	}
	for in, want := range good {
		got, err := Parse(in)
		if err != nil {
			t.Errorf("Parse(%q): %v", in, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Parse(%q) = %+v, want %+v", in, got, want)
		}
	}
	bad := []string{
		"poisson", "poisson:0", "poisson:x", "poisson:10:3", "mmpp", "mmpp:10:0.5:9",
		"diurnal:", "batch:1", "trace:now", "gamma:3",
		// Empty parameter slots: a trailing colon is a dangling empty
		// field, not an omitted one.
		"poisson:", "mmpp:", "mmpp:60:", "diurnal:30:", "trace:", ":",
		// Out-of-range parameters in the optional slot.
		"mmpp:60:0.5", "mmpp:60:-2", "diurnal:30:0", "diurnal:30:-6",
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) accepted", in)
		}
	}
}

func TestStringLabels(t *testing.T) {
	cases := map[string]Spec{
		"batch":        {},
		"poisson:60/h": {Kind: KindPoisson, RatePerHour: 60},
		"trace(2)":     {Kind: KindTrace, Times: []float64{0, 1}},
	}
	for want, s := range cases {
		if got := s.String(); got != want {
			t.Errorf("%+v.String() = %q, want %q", s, got, want)
		}
	}
}
