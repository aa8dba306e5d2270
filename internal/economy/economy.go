// Package economy prices the grid and attaches service-level agreements to
// workflows: a deterministic, seed-derived pricing model assigning a per-MI
// cost rate to every node (capacity-correlated — fast nodes charge more —
// with a configurable random spread), and a plain-data SLASpec describing
// how per-workflow deadlines and budgets are drawn at submission time
// (fraction-of-critical-path deadlines, budget multipliers over the
// cheapest-feasible cost).
//
// The package is pure data and arithmetic: it imports nothing from the
// runtime, so grid, experiments, service and both CLIs can all share one
// spec grammar. Resolved numbers (absolute deadline instants, currency
// budgets, per-node rates) flow into internal/grid, which does the actual
// accounting.
package economy

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// SLA spec kinds. The zero value ("" ≡ "none") attaches no SLA and consumes
// no randomness: a run with the default spec is byte-identical to a run
// built before this package existed.
const (
	KindNone     = "none"
	KindDeadline = "deadline"
	KindBudget   = "budget"
	KindBoth     = "both"
)

// SLASpec describes how workflows receive deadlines and budgets, as plain
// comparable data (usable as a map key and a stable part of sweep specs).
//
//	{}                                  no SLA (default)
//	{Kind: "deadline", DeadlineFactor: 4}   deadline = submit + 4 × critical path
//	{Kind: "budget", BudgetFactor: 2}       budget = 2 × cheapest-feasible cost
//	{Kind: "both", DeadlineFactor: 4, BudgetFactor: 2}
//
// The critical path is the workflow's expected finish time priced with the
// true system averages (the same eft(f) baseline Eq. 1 uses), so a
// DeadlineFactor of 1 demands ideal-system speed and larger factors relax
// proportionally. The cheapest-feasible cost is TotalLoad × the grid's
// minimum per-MI rate: the spend of an infinitely patient user, so a
// BudgetFactor of 1 is the tightest satisfiable budget.
type SLASpec struct {
	Kind           string  `json:"kind,omitempty"`
	DeadlineFactor float64 `json:"deadline_factor,omitempty"`
	BudgetFactor   float64 `json:"budget_factor,omitempty"`
}

// kind returns the effective kind with the default spelled out.
func (s SLASpec) kind() string {
	if s.Kind == "" {
		return KindNone
	}
	return s.Kind
}

// Enabled reports whether the spec attaches any SLA.
func (s SLASpec) Enabled() bool { return s.kind() != KindNone }

// HasDeadline reports whether workflows receive deadlines.
func (s SLASpec) HasDeadline() bool { k := s.kind(); return k == KindDeadline || k == KindBoth }

// HasBudget reports whether workflows receive budgets.
func (s SLASpec) HasBudget() bool { k := s.kind(); return k == KindBudget || k == KindBoth }

// Validate checks internal consistency: a known kind, required factors
// present and positive, inapplicable factors absent.
func (s SLASpec) Validate() error {
	switch s.kind() {
	case KindNone, KindDeadline, KindBudget, KindBoth:
	default:
		return fmt.Errorf("economy: unknown SLA kind %q", s.Kind)
	}
	if s.HasDeadline() && !positiveFinite(s.DeadlineFactor) {
		return fmt.Errorf("economy: SLA kind %q needs DeadlineFactor > 0, got %v", s.kind(), s.DeadlineFactor)
	}
	if s.HasBudget() && !positiveFinite(s.BudgetFactor) {
		return fmt.Errorf("economy: SLA kind %q needs BudgetFactor > 0, got %v", s.kind(), s.BudgetFactor)
	}
	checks := []struct {
		name       string
		set        bool
		applicable bool
	}{
		{"DeadlineFactor", s.DeadlineFactor != 0, s.HasDeadline()},
		{"BudgetFactor", s.BudgetFactor != 0, s.HasBudget()},
	}
	for _, c := range checks {
		if c.set && !c.applicable {
			return fmt.Errorf("economy: %s is not applicable to SLA kind %q", c.name, s.kind())
		}
	}
	return nil
}

// positiveFinite reports whether v lies in (0, +Inf). Unlike a negated
// v <= 0 test, it rejects NaN.
func positiveFinite(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// Normalize collapses equivalent spellings onto one canonical value: the
// explicit "none" becomes the zero value, so specs compare (and hash) by
// meaning.
func (s SLASpec) Normalize() SLASpec {
	if s.Kind == KindNone {
		s.Kind = ""
	}
	return s
}

// String renders the spec in the grammar Parse accepts.
func (s SLASpec) String() string {
	switch s.kind() {
	case KindDeadline:
		return fmt.Sprintf("deadline:%g", s.DeadlineFactor)
	case KindBudget:
		return fmt.Sprintf("budget:%g", s.BudgetFactor)
	case KindBoth:
		return fmt.Sprintf("both:%g:%g", s.DeadlineFactor, s.BudgetFactor)
	default:
		return KindNone
	}
}

// Deadline resolves the absolute deadline instant for a workflow submitted
// at submittedAt whose expected critical path lasts criticalPath seconds.
// Callers gate on HasDeadline.
func (s SLASpec) Deadline(submittedAt, criticalPath float64) float64 {
	return submittedAt + s.DeadlineFactor*criticalPath
}

// Budget resolves the currency budget for a workflow whose cheapest-feasible
// cost is cheapest. Callers gate on HasBudget.
func (s SLASpec) Budget(cheapest float64) float64 {
	return s.BudgetFactor * cheapest
}

// ParseSLA parses the CLI spelling of an SLA spec:
//
//	none                       no SLA (default)
//	deadline:F                 deadline = submit + F × critical path
//	budget:F                   budget = F × cheapest-feasible cost
//	both:DF:BF                 both constraints
func ParseSLA(s string) (SLASpec, error) {
	parts := strings.Split(s, ":")
	num := func(i int, what string) (float64, error) {
		v, err := strconv.ParseFloat(parts[i], 64)
		if err != nil || !positiveFinite(v) {
			return 0, fmt.Errorf("economy: SLA spec %q: %s must be a positive number, got %q", s, what, parts[i])
		}
		return v, nil
	}
	switch parts[0] {
	case KindNone, "":
		if len(parts) > 1 {
			return SLASpec{}, fmt.Errorf("economy: SLA spec %q: none takes no arguments", s)
		}
		return SLASpec{}, nil
	case KindDeadline:
		if len(parts) != 2 {
			return SLASpec{}, fmt.Errorf("economy: SLA spec %q: want deadline:FACTOR", s)
		}
		f, err := num(1, "deadline factor")
		if err != nil {
			return SLASpec{}, err
		}
		return SLASpec{Kind: KindDeadline, DeadlineFactor: f}, nil
	case KindBudget:
		if len(parts) != 2 {
			return SLASpec{}, fmt.Errorf("economy: SLA spec %q: want budget:FACTOR", s)
		}
		f, err := num(1, "budget factor")
		if err != nil {
			return SLASpec{}, err
		}
		return SLASpec{Kind: KindBudget, BudgetFactor: f}, nil
	case KindBoth:
		if len(parts) != 3 {
			return SLASpec{}, fmt.Errorf("economy: SLA spec %q: want both:DEADLINE_FACTOR:BUDGET_FACTOR", s)
		}
		df, err := num(1, "deadline factor")
		if err != nil {
			return SLASpec{}, err
		}
		bf, err := num(2, "budget factor")
		if err != nil {
			return SLASpec{}, err
		}
		return SLASpec{Kind: KindBoth, DeadlineFactor: df, BudgetFactor: bf}, nil
	default:
		return SLASpec{}, fmt.Errorf("economy: SLA spec %q: unknown kind %q (none|deadline|budget|both)", s, parts[0])
	}
}

// PriceSpec describes the grid's pricing model: every node charges a per-MI
// rate proportional to its capacity (computing on a 16-MIPS node costs 16×
// a 1-MIPS node's rate at zero spread — faster answers cost more, the
// standard economic-grid assumption DBC heuristics trade against), jittered
// by a uniform ±Spread fraction so equal-capacity nodes still differ. The
// zero value disables pricing entirely.
type PriceSpec struct {
	// BaseRate is the per-MI rate of a 1-MIPS node; 0 disables pricing.
	BaseRate float64 `json:"base_rate,omitempty"`
	// Spread is the relative jitter in [0, 1): each node's rate is scaled
	// by a seed-derived uniform factor in [1-Spread, 1+Spread).
	Spread float64 `json:"spread,omitempty"`
}

// Enabled reports whether pricing is on.
func (p PriceSpec) Enabled() bool { return p.BaseRate != 0 }

// Validate checks internal consistency.
func (p PriceSpec) Validate() error {
	if !(p.BaseRate >= 0) || math.IsInf(p.BaseRate, 1) {
		return fmt.Errorf("economy: price base rate must be >= 0, got %v", p.BaseRate)
	}
	if !(p.Spread >= 0 && p.Spread < 1) {
		return fmt.Errorf("economy: price spread must be in [0, 1), got %v", p.Spread)
	}
	if !p.Enabled() && p.Spread != 0 {
		return fmt.Errorf("economy: price spread without a base rate")
	}
	return nil
}

// String renders the spec in the grammar ParsePrice accepts.
func (p PriceSpec) String() string {
	if !p.Enabled() {
		return "none"
	}
	if p.Spread == 0 {
		return fmt.Sprintf("%g", p.BaseRate)
	}
	return fmt.Sprintf("%g:%g", p.BaseRate, p.Spread)
}

// ParsePrice parses the CLI spelling of a pricing model:
//
//	none             pricing off (default)
//	RATE             capacity-proportional rates, no jitter
//	RATE:SPREAD      ±SPREAD relative jitter per node
func ParsePrice(s string) (PriceSpec, error) {
	if s == KindNone || s == "" {
		return PriceSpec{}, nil
	}
	parts := strings.Split(s, ":")
	if len(parts) > 2 {
		return PriceSpec{}, fmt.Errorf("economy: price spec %q: want RATE[:SPREAD] or none", s)
	}
	rate, err := strconv.ParseFloat(parts[0], 64)
	if err != nil || !positiveFinite(rate) {
		return PriceSpec{}, fmt.Errorf("economy: price spec %q: rate must be a positive number, got %q", s, parts[0])
	}
	p := PriceSpec{BaseRate: rate}
	if len(parts) == 2 {
		sp, err := strconv.ParseFloat(parts[1], 64)
		if err != nil || !(sp >= 0 && sp < 1) {
			return PriceSpec{}, fmt.Errorf("economy: price spec %q: spread must be in [0, 1), got %q", s, parts[1])
		}
		p.Spread = sp
	}
	return p, nil
}

// Rates derives the per-MI rate of every node from its capacity: the
// deterministic pricing table of one run. The seed should already be split
// from the run seed (the runtime uses stats.SplitSeed(seed, 0x5C)); rate
// jitter draws from its own derived stream, so enabling pricing perturbs no
// other random decision in the simulation. Returns nil when pricing is off.
func (p PriceSpec) Rates(capacities []float64, seed int64) []float64 {
	if !p.Enabled() {
		return nil
	}
	rng := stats.NewRand(seed, 0xBB)
	rates := make([]float64, len(capacities))
	for i, c := range capacities {
		jitter := 1.0
		if p.Spread > 0 {
			jitter = 1 + p.Spread*(2*rng.Float64()-1)
		}
		rates[i] = p.BaseRate * c * jitter
	}
	return rates
}
