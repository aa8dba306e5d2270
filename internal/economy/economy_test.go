package economy

import (
	"math"
	"strings"
	"testing"
)

func TestSLAValidate(t *testing.T) {
	cases := []struct {
		name    string
		spec    SLASpec
		wantErr string // substring; empty means valid
	}{
		{"zero value", SLASpec{}, ""},
		{"explicit none", SLASpec{Kind: KindNone}, ""},
		{"deadline", SLASpec{Kind: KindDeadline, DeadlineFactor: 4}, ""},
		{"budget", SLASpec{Kind: KindBudget, BudgetFactor: 2}, ""},
		{"both", SLASpec{Kind: KindBoth, DeadlineFactor: 4, BudgetFactor: 2}, ""},
		{"unknown kind", SLASpec{Kind: "slo"}, `unknown SLA kind "slo"`},
		{"deadline without factor", SLASpec{Kind: KindDeadline}, "needs DeadlineFactor > 0"},
		{"deadline negative factor", SLASpec{Kind: KindDeadline, DeadlineFactor: -1}, "needs DeadlineFactor > 0"},
		{"budget without factor", SLASpec{Kind: KindBudget}, "needs BudgetFactor > 0"},
		{"both missing budget", SLASpec{Kind: KindBoth, DeadlineFactor: 4}, "needs BudgetFactor > 0"},
		{"none with deadline factor", SLASpec{DeadlineFactor: 2}, "DeadlineFactor is not applicable"},
		{"none with budget factor", SLASpec{Kind: KindNone, BudgetFactor: 2}, "BudgetFactor is not applicable"},
		{"deadline with budget factor", SLASpec{Kind: KindDeadline, DeadlineFactor: 2, BudgetFactor: 2}, "BudgetFactor is not applicable"},
		{"budget with deadline factor", SLASpec{Kind: KindBudget, BudgetFactor: 2, DeadlineFactor: 2}, "DeadlineFactor is not applicable"},
		{"deadline NaN factor", SLASpec{Kind: KindDeadline, DeadlineFactor: math.NaN()}, "needs DeadlineFactor > 0"},
		{"budget infinite factor", SLASpec{Kind: KindBudget, BudgetFactor: math.Inf(1)}, "needs BudgetFactor > 0"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.spec.Validate()
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate(%+v) = %v, want nil", c.spec, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("Validate(%+v) = %v, want error containing %q", c.spec, err, c.wantErr)
			}
		})
	}
}

func TestParseSLA(t *testing.T) {
	cases := []struct {
		in      string
		want    SLASpec
		wantErr string
	}{
		{"none", SLASpec{}, ""},
		{"", SLASpec{}, ""},
		{"deadline:4", SLASpec{Kind: KindDeadline, DeadlineFactor: 4}, ""},
		{"deadline:1.5", SLASpec{Kind: KindDeadline, DeadlineFactor: 1.5}, ""},
		{"budget:2", SLASpec{Kind: KindBudget, BudgetFactor: 2}, ""},
		{"both:4:2", SLASpec{Kind: KindBoth, DeadlineFactor: 4, BudgetFactor: 2}, ""},
		{"none:1", SLASpec{}, "none takes no arguments"},
		{"deadline", SLASpec{}, "want deadline:FACTOR"},
		{"deadline:4:2", SLASpec{}, "want deadline:FACTOR"},
		{"deadline:0", SLASpec{}, "must be a positive number"},
		{"deadline:-3", SLASpec{}, "must be a positive number"},
		{"deadline:x", SLASpec{}, "must be a positive number"},
		{"budget:", SLASpec{}, "must be a positive number"},
		{"both:4", SLASpec{}, "want both:DEADLINE_FACTOR:BUDGET_FACTOR"},
		{"both:4:0", SLASpec{}, "must be a positive number"},
		{"slo:9", SLASpec{}, `unknown kind "slo"`},
	}
	for _, c := range cases {
		t.Run(c.in, func(t *testing.T) {
			got, err := ParseSLA(c.in)
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("ParseSLA(%q) err = %v, want error containing %q", c.in, err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseSLA(%q) = %v", c.in, err)
			}
			if got != c.want {
				t.Fatalf("ParseSLA(%q) = %+v, want %+v", c.in, got, c.want)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("ParseSLA(%q) produced invalid spec: %v", c.in, err)
			}
		})
	}
}

func TestSLARoundTrip(t *testing.T) {
	for _, spec := range []SLASpec{
		{},
		{Kind: KindDeadline, DeadlineFactor: 4},
		{Kind: KindBudget, BudgetFactor: 1.5},
		{Kind: KindBoth, DeadlineFactor: 8, BudgetFactor: 2},
	} {
		back, err := ParseSLA(spec.String())
		if err != nil {
			t.Fatalf("ParseSLA(%q): %v", spec.String(), err)
		}
		if back != spec.Normalize() {
			t.Fatalf("round trip %q: got %+v, want %+v", spec.String(), back, spec)
		}
	}
}

func TestSLANormalize(t *testing.T) {
	if got := (SLASpec{Kind: KindNone}).Normalize(); got != (SLASpec{}) {
		t.Fatalf("Normalize(none) = %+v, want zero value", got)
	}
	spec := SLASpec{Kind: KindDeadline, DeadlineFactor: 2}
	if got := spec.Normalize(); got != spec {
		t.Fatalf("Normalize changed a canonical spec: %+v", got)
	}
}

func TestSLAResolution(t *testing.T) {
	s := SLASpec{Kind: KindBoth, DeadlineFactor: 4, BudgetFactor: 2}
	if got := s.Deadline(100, 50); got != 300 {
		t.Fatalf("Deadline(100, 50) = %v, want 300", got)
	}
	if got := s.Budget(10); got != 20 {
		t.Fatalf("Budget(10) = %v, want 20", got)
	}
}

func TestPriceValidateAndParse(t *testing.T) {
	cases := []struct {
		in      string
		want    PriceSpec
		wantErr string
	}{
		{"none", PriceSpec{}, ""},
		{"", PriceSpec{}, ""},
		{"1", PriceSpec{BaseRate: 1}, ""},
		{"0.5:0.25", PriceSpec{BaseRate: 0.5, Spread: 0.25}, ""},
		{"0", PriceSpec{}, "rate must be a positive number"},
		{"-1", PriceSpec{}, "rate must be a positive number"},
		{"x", PriceSpec{}, "rate must be a positive number"},
		{"1:1", PriceSpec{}, "spread must be in [0, 1)"},
		{"1:-0.1", PriceSpec{}, "spread must be in [0, 1)"},
		{"1:0.2:3", PriceSpec{}, "want RATE[:SPREAD] or none"},
	}
	for _, c := range cases {
		t.Run(c.in, func(t *testing.T) {
			got, err := ParsePrice(c.in)
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("ParsePrice(%q) err = %v, want error containing %q", c.in, err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParsePrice(%q) = %v", c.in, err)
			}
			if got != c.want {
				t.Fatalf("ParsePrice(%q) = %+v, want %+v", c.in, got, c.want)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("ParsePrice(%q) produced invalid spec: %v", c.in, err)
			}
		})
	}
	if err := (PriceSpec{Spread: 0.5}).Validate(); err == nil {
		t.Fatal("Validate accepted spread without base rate")
	}
	for _, p := range []PriceSpec{{BaseRate: math.NaN()}, {BaseRate: math.Inf(1)}, {BaseRate: 1, Spread: math.NaN()}} {
		if err := p.Validate(); err == nil {
			t.Fatalf("Validate accepted %+v", p)
		}
	}
}

func TestRatesDeterministicAndCorrelated(t *testing.T) {
	caps := []float64{1, 16, 4, 16, 2}
	p := PriceSpec{BaseRate: 0.5, Spread: 0.25}
	a := p.Rates(caps, 7)
	b := p.Rates(caps, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rates not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := p.Rates(caps, 8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("rates identical across different seeds")
	}
	// Capacity correlation survives a 25% spread: a 16-MIPS node is at
	// least 16×0.75/1.25 ≈ 9.6× the rate of a 1-MIPS node.
	for i, r := range a {
		lo := p.BaseRate * caps[i] * (1 - p.Spread)
		hi := p.BaseRate * caps[i] * (1 + p.Spread)
		if r < lo || r > hi {
			t.Fatalf("rate %d = %v outside [%v, %v]", i, r, lo, hi)
		}
	}
	if (PriceSpec{}).Rates(caps, 7) != nil {
		t.Fatal("disabled pricing returned rates")
	}
	noJitter := PriceSpec{BaseRate: 2}.Rates(caps, 9)
	for i, r := range noJitter {
		if r != 2*caps[i] {
			t.Fatalf("zero-spread rate %d = %v, want %v", i, r, 2*caps[i])
		}
	}
	if MinRate(noJitter) != 2 {
		t.Fatalf("MinRate = %v, want 2", MinRate(noJitter))
	}
	if MinRate(nil) != 0 {
		t.Fatal("MinRate(nil) != 0")
	}
}
