package arrival

import "testing"

// FuzzParseArrival feeds -arrival values to Parse. Whatever parses must
// hold only finite, positive numbers, pass Validate (a trace spec once the
// caller has supplied its schedule) and schedule 16 submissions at
// finite, non-decreasing times. String is a label, not the grammar, so
// there is no round trip to check. The seed corpus runs in every go test.
func FuzzParseArrival(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string, seed int64) {
		spec, err := Parse(s)
		if err != nil {
			return
		}
		for _, v := range []float64{spec.RatePerHour, spec.Burst, spec.DwellHours, spec.PeriodHours} {
			if v != 0 && !(v > 0 && finite(v)) {
				t.Fatalf("Parse(%q) = %+v: parameter %v", s, spec, v)
			}
		}
		if spec.Kind == KindTrace {
			spec.Times = []float64{0, 60, 60, 3600}
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("Parse(%q) = %+v fails Validate: %v", s, spec, err)
		}
		times, err := spec.Schedule(16, seed)
		if err != nil {
			t.Fatalf("Parse(%q) = %+v: Schedule: %v", s, spec, err)
		}
		for i, at := range times {
			if !finite(at) || at < 0 || (i > 0 && at < times[i-1]) {
				t.Fatalf("Parse(%q) = %+v schedules %v", s, spec, times)
			}
		}
	})
}
