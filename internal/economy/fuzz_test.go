package economy

import "testing"

// FuzzParseSLA feeds -sla values to ParseSLA. Whatever parses must hold
// only finite, positive factors, pass Validate and re-parse from String to
// the same normalized spec. The seed corpus runs in every go test.
func FuzzParseSLA(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseSLA(s)
		if err != nil {
			return
		}
		for _, v := range []float64{spec.DeadlineFactor, spec.BudgetFactor} {
			if v != 0 && !positiveFinite(v) {
				t.Fatalf("ParseSLA(%q) = %+v: factor %v", s, spec, v)
			}
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("ParseSLA(%q) = %+v fails Validate: %v", s, spec, err)
		}
		back, err := ParseSLA(spec.String())
		if err != nil || back.Normalize() != spec.Normalize() {
			t.Fatalf("ParseSLA(%q) = %+v renders %q, which parses to %+v, %v", s, spec, spec.String(), back, err)
		}
	})
}

// FuzzParsePrice feeds -price values to ParsePrice. Whatever parses must
// hold a finite, positive base rate (or none) and a spread in [0, 1),
// pass Validate and re-parse from String to the same spec. The seed
// corpus runs in every go test.
func FuzzParsePrice(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParsePrice(s)
		if err != nil {
			return
		}
		if (spec.BaseRate != 0 && !positiveFinite(spec.BaseRate)) || !(spec.Spread >= 0 && spec.Spread < 1) {
			t.Fatalf("ParsePrice(%q) = %+v", s, spec)
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("ParsePrice(%q) = %+v fails Validate: %v", s, spec, err)
		}
		back, err := ParsePrice(spec.String())
		if err != nil || back != spec {
			t.Fatalf("ParsePrice(%q) = %+v renders %q, which parses to %+v, %v", s, spec, spec.String(), back, err)
		}
	})
}
