package grid

import "fmt"

// SLA is a workflow's resolved service-level agreement: an absolute
// deadline instant and a currency budget, either of which may be absent
// (zero). The grid works in resolved numbers only; how they are drawn from
// a spec lives in internal/economy, keeping this package free of policy.
type SLA struct {
	Deadline float64 // absolute simulated seconds; 0 = no deadline
	Budget   float64 // currency units; 0 = no budget
}

// Enabled reports whether any constraint is set.
func (s SLA) Enabled() bool { return s.Deadline > 0 || s.Budget > 0 }

// SetPrices installs the per-MI cost rate of every node, turning on
// economic accounting: every dispatch commits the task's cost at the target
// node's rate, every completion settles it into the workflow's spend. Must
// be called before any dispatch; a nil table keeps pricing off.
func (g *Grid) SetPrices(rates []float64) error {
	if rates == nil {
		return nil
	}
	if len(rates) != len(g.Nodes) {
		return fmt.Errorf("grid: price table covers %d nodes, grid has %d", len(rates), len(g.Nodes))
	}
	for i, r := range rates {
		if r <= 0 {
			return fmt.Errorf("grid: node %d rate must be positive, got %v", i, r)
		}
	}
	g.prices = rates
	return nil
}

// PricingEnabled reports whether a price table is installed.
func (g *Grid) PricingEnabled() bool { return g.prices != nil }

// PriceOf returns node n's per-MI rate (0 when pricing is off).
func (g *Grid) PriceOf(n int) float64 {
	if g.prices == nil {
		return 0
	}
	return g.prices[n]
}

// MinPrice returns the cheapest per-MI rate in the table (0 when pricing is
// off): the base of the cheapest-feasible workflow cost.
func (g *Grid) MinPrice() float64 {
	if len(g.prices) == 0 {
		return 0
	}
	min := g.prices[0]
	for _, r := range g.prices[1:] {
		if r < min {
			min = r
		}
	}
	return min
}

// SetSLAAssigner installs the hook that stamps each workflow's SLA at
// submission, after its EFT baseline is computed (so deadline policies can
// price against the critical path). Workflows whose hook returns the zero
// SLA stay best-effort. Service-mode per-request SLAs bypass the hook via
// SetWorkflowSLA instead.
func (g *Grid) SetSLAAssigner(fn func(wf *WorkflowInstance) SLA) { g.slaAssign = fn }

// SetWorkflowSLA attaches a resolved SLA to one workflow (the service-mode
// per-request path). Call it right after Submit, before any scheduling
// cycle can observe the workflow.
func (g *Grid) SetWorkflowSLA(wf *WorkflowInstance, sla SLA) {
	wf.SLA = sla
	if sla.Enabled() {
		g.slaSeen = true
	}
}

// EconomyActive reports whether this run carries any economic state worth
// reporting: a price table, or at least one workflow with an SLA.
func (g *Grid) EconomyActive() bool { return g.prices != nil || g.slaSeen }

// RemainingBudget returns the workflow's uncommitted budget headroom, or
// +Inf semantics via ok=false when it has no budget. Schedulers treat
// money already committed to in-flight tasks as spent: a conservative
// discipline that keeps concurrent dispatches inside one round from
// overdrawing the budget.
func (wf *WorkflowInstance) RemainingBudget() (float64, bool) {
	if wf.SLA.Budget <= 0 {
		return 0, false
	}
	return wf.SLA.Budget - wf.Spend - wf.Committed, true
}

// commitCost reserves the money for running t on node `to`: called from
// Dispatch. No-op when pricing is off.
func (g *Grid) commitCost(t *TaskInstance, to int) {
	if g.prices == nil {
		return
	}
	cost := t.Task().Load * g.prices[to]
	t.costCommitted = cost
	t.WF.Committed += cost
}

// settleCost converts a completed task's commitment into workflow spend:
// called from onTaskDone. The operator pays for every completed execution,
// including late completions of already-failed workflows — a decentralized
// system has no way to claw back finished work.
func (g *Grid) settleCost(t *TaskInstance) {
	if t.costCommitted == 0 {
		return
	}
	t.WF.Spend += t.costCommitted
	t.WF.Committed -= t.costCommitted
	t.costCommitted = 0
}

// releaseCost returns an unfinished task's commitment to the workflow:
// called when a dispatched task fails or is handed back before completing.
// Money spent on completed work is never refunded (see settleCost); only
// unconsumed reservations are.
func (g *Grid) releaseCost(t *TaskInstance) {
	if t.costCommitted == 0 {
		return
	}
	t.WF.Committed -= t.costCommitted
	t.costCommitted = 0
}
