package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	"repro/internal/experiments/executor"
	"repro/internal/grid"
	"repro/internal/sim"
)

// span is one timed call at a layer boundary. Self time is the duration
// minus the time covered by child spans.
type span struct {
	name      string
	start     time.Duration // since the tracer's epoch
	dur, self time.Duration
	parent    int // index into tracer.spans, -1 for a root span
	run       int // index into tracer.runs
}

// traceRun groups the spans of one assembled simulation (sim) or of one
// outer client such as the HTTP soak or the sweep executor (not sim). Layer
// shares are taken over the root spans of sim runs only.
type traceRun struct {
	name string
	sim  bool
}

// tracer keeps every span in memory for the traced pass. It is used from
// one goroutine at a time; timedExecutor's jobs add their spans under a
// lock while the caller waits in Execute.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int
	runs  []traceRun
	run   int
	every []string // labels for the next Every registrations, in order

	// Counters read at layer boundaries.
	events     uint64 // engine events fired in sim runs
	dispatches int    // dispatches made inside Phase1Scheduler.Schedule
	schedules  int    // Phase1Scheduler.Schedule calls
	msgs       uint64 // gossip messages sent in sim runs
	bytes      uint64 // gossip bytes sent in sim runs
	nodes      int    // nodes summed over sim runs
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// beginRun starts a new group of spans.
func (t *tracer) beginRun(name string, isSim bool) {
	if t == nil {
		return
	}
	t.runs = append(t.runs, traceRun{name: name, sim: isSim})
	t.run = len(t.runs) - 1
}

func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.epoch), parent: parent, run: t.run})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	s := &t.spans[id]
	s.dur = time.Since(t.epoch) - s.start
	s.self += s.dur // children already subtracted their durations
	t.stack = t.stack[:len(t.stack)-1]
	if s.parent >= 0 {
		t.spans[s.parent].self -= s.dur
	}
}

// do runs fn inside a span; with a nil tracer it only runs fn.
func (t *tracer) do(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	id := t.begin(name)
	fn()
	t.end(id)
}

// count adds a finished grid's engine and gossip counters; it does nothing
// with a nil tracer.
func (t *tracer) count(eng sim.Driver, g *grid.Grid) {
	if t == nil {
		return
	}
	if e, ok := eng.(*sim.Engine); ok {
		t.events += e.Processed
	}
	t.msgs += g.Gossip.MessagesSent
	t.bytes += g.Gossip.BytesSent
	t.nodes += len(g.Nodes)
}

// labelEvery names the periodic events registered by the next Every calls.
func (t *tracer) labelEvery(labels ...string) {
	if t != nil {
		t.every = labels
	}
}

func (t *tracer) wrap(name string, fn sim.Event) sim.Event {
	return func(now float64) {
		id := t.begin(name)
		fn(now)
		t.end(id)
	}
}

// tracedDriver wraps the event engine: RunUntil becomes a sim.run span and
// every event is wrapped in a span named after the call that scheduled it.
// The grid schedules with At only for timed submissions, NodeAt/NodeAfter
// for per-node task and transfer events, After for the same events when
// pinned to the global lane and for churn departures and joins.
type tracedDriver struct {
	sim.Driver
	t *tracer
}

func (d tracedDriver) RunUntil(deadline float64) {
	d.t.do("sim.run", func() { d.Driver.RunUntil(deadline) })
}

func (d tracedDriver) At(at float64, fn sim.Event) sim.Handle {
	return d.Driver.At(at, d.t.wrap("grid.submit", fn))
}

func (d tracedDriver) After(delay float64, fn sim.Event) sim.Handle {
	return d.Driver.After(delay, d.t.wrap("grid.node", fn))
}

func (d tracedDriver) NodeAt(node int, at float64, fn sim.Event) sim.Handle {
	return d.Driver.NodeAt(node, at, d.t.wrap("grid.node", fn))
}

func (d tracedDriver) NodeAfter(node int, delay float64, fn sim.Event) sim.Handle {
	return d.Driver.NodeAfter(node, delay, d.t.wrap("grid.node", fn))
}

func (d tracedDriver) DeferFrom(node int, at float64, fn sim.Event) {
	d.Driver.DeferFrom(node, at, d.t.wrap("grid.defer", fn))
}

func (d tracedDriver) Every(start, period float64, fn sim.Event) *sim.Ticker {
	label := "sim.every"
	if len(d.t.every) > 0 {
		label, d.t.every = d.t.every[0], d.t.every[1:]
	}
	return d.Driver.Every(start, period, d.t.wrap(label, fn))
}

type tracedPhase1 struct {
	grid.Phase1Scheduler
	t *tracer
}

func (p tracedPhase1) Schedule(g *grid.Grid, home *grid.Node, now float64) {
	before := g.DispatchCount
	p.t.do("core.phase1", func() { p.Phase1Scheduler.Schedule(g, home, now) })
	p.t.dispatches += g.DispatchCount - before
	p.t.schedules++
}

type tracedPhase2 struct {
	grid.Phase2Policy
	t *tracer
}

func (p tracedPhase2) Pick(ready []*grid.TaskInstance) (picked *grid.TaskInstance) {
	p.t.do("core.phase2", func() { picked = p.Phase2Policy.Pick(ready) })
	return picked
}

type tracedPlanner struct {
	grid.FullAheadPlanner
	t *tracer
}

func (p tracedPlanner) PlanAll(g *grid.Grid, wfs []*grid.WorkflowInstance) {
	p.t.do("core.planall", func() { p.FullAheadPlanner.PlanAll(g, wfs) })
}

// traceAlgorithm wraps each part of an algorithm in a timing decorator.
func traceAlgorithm(a grid.Algorithm, t *tracer) grid.Algorithm {
	if a.Phase1 != nil {
		a.Phase1 = tracedPhase1{a.Phase1, t}
	}
	if a.Planner != nil {
		a.Planner = tracedPlanner{a.Planner, t}
	}
	a.Phase2 = tracedPhase2{a.Phase2, t}
	return a
}

// timedExecutor records when the sweep hands its job list to the executor,
// which ends the sweep's set-up, and how long each job takes; with a tracer
// every job is also a span.
type timedExecutor struct {
	inner   executor.Executor
	t       *tracer
	started time.Time
	ids     []int
	jobs    map[int]time.Duration // by job ID
}

func (e *timedExecutor) Execute(ids []int, run func(id int) error) error {
	e.started = time.Now()
	e.ids, e.jobs = ids, make(map[int]time.Duration, len(ids))
	var mu sync.Mutex
	return e.inner.Execute(ids, func(id int) error {
		start := time.Now()
		err := run(id)
		dur := time.Since(start)
		mu.Lock()
		e.jobs[id] = dur
		if e.t != nil {
			e.t.spans = append(e.t.spans, span{name: "executor.job", start: start.Sub(e.t.epoch), dur: dur, self: dur, parent: -1, run: e.t.run})
		}
		mu.Unlock()
		return err
	})
}

// layerStats aggregates the spans of sim runs by name.
type layerStats struct {
	count     int
	dur, self time.Duration
	durs      []float64 // seconds, one per span
}

func (t *tracer) aggregate() (byName map[string]*layerStats, simTotal time.Duration) {
	byName = map[string]*layerStats{}
	for _, s := range t.spans {
		if !t.runs[s.run].sim {
			continue
		}
		if s.parent < 0 {
			simTotal += s.dur
		}
		ls := byName[s.name]
		if ls == nil {
			ls = &layerStats{}
			byName[s.name] = ls
		}
		ls.count++
		ls.dur += s.dur
		ls.self += s.self
		ls.durs = append(ls.durs, s.dur.Seconds())
	}
	for _, ls := range byName {
		slices.Sort(ls.durs)
	}
	return byName, simTotal
}

// writeChrome writes every span as Chrome trace-event JSON (one process per
// run), which Perfetto and chrome://tracing open directly.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := make([]event, 0, len(t.runs)+len(t.spans))
	for i, r := range t.runs {
		events = append(events, event{Name: "process_name", Ph: "M", Pid: i, Args: map[string]any{"name": r.name}})
	}
	for i, s := range t.spans {
		events = append(events, event{
			Name: s.name, Ph: "X",
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64(s.dur.Nanoseconds()) / 1e3,
			Pid:  s.run,
			Args: map[string]any{"span": i, "parent": s.parent},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("trace export: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace export: %w", err)
	}
	return nil
}
