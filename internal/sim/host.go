package sim

// Host is the scheduling surface the grid runtime binds to. Every event
// runs on the engine's one serial loop:
//
//   - At/After/Every schedule events: gossip cycles, scheduling rounds,
//     churn, submissions, metric snapshots, transfer landings and task
//     completions.
//   - NodeAt, NodeAfter and DeferFrom are one-line forwards to At, After
//     and a direct call. Nothing in the simulator calls them; they stay
//     while the benchmark's traced driver (bench/trace.go) forwards them
//     through an embedded Driver.
type Host interface {
	Now() float64
	At(t float64, fn Event) Handle
	After(d float64, fn Event) Handle
	Every(start, period float64, fn Event) *Ticker
	NodeAt(node int, t float64, fn Event) Handle
	NodeAfter(node int, d float64, fn Event) Handle
	DeferFrom(node int, t float64, fn Event)
}

// Driver is a Host that can also drive the run loop: what an experiment
// harness holds. *Engine implements it. NextEventTime lets a long-lived
// driver (the service daemon) skip idle virtual time instead of advancing
// in blind increments.
type Driver interface {
	Host
	RunUntil(deadline float64)
	Stop()
	Stopped() bool
	NextEventTime() float64
}

var _ Driver = (*Engine)(nil)
