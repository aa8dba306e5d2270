// Package service runs the grid as a long-lived scheduler daemon: one
// continuously running simulation accepting workflow submissions, status
// queries, next-task previews and metric scrapes while virtual time
// advances — either explicitly through the clock API (virtual mode, fully
// deterministic and replayable) or paced against the wall clock.
//
// The package is the engine-facing half of `p2pgridsim -serve`; the HTTP
// layer (http.go) is a thin codec over the methods here, speaking the
// wire.APIV1 types. All engine and grid state is serialized behind one
// mutex: the discrete-event core is single-threaded by design, so the
// service admits exactly one mutating caller at a time and advances the
// clock in bounded slices between which queries interleave.
//
// Admission control bounds the number of in-flight workflows
// (Config.MaxInFlight). A submission over the bound fails with
// ErrOverloaded — HTTP 429 with Retry-After — instead of growing an
// unbounded queue; a replay arrival over the bound is shed and counted.
// Both decisions depend only on engine state at the submission instant, so
// two daemons fed the identical submission sequence stay byte-identical.
package service

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"time"

	"repro/internal/dag"
	"repro/internal/economy"
	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/heuristics"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/workload"
	"repro/internal/workload/loadspec"
)

// The service speaks the wire.APIV1 request/response vocabulary natively;
// the aliases keep call sites (and the HTTP codec) on short names while
// the wire package stays the single source of truth for the schema.
type (
	SubmitRequest    = wire.SubmitRequest
	GenRequest       = wire.GenRequest
	TraceRequest     = wire.TraceRequest
	SubmitResponse   = wire.SubmitResponse
	WorkflowStatus   = wire.WorkflowStatus
	NextTaskResponse = wire.NextTaskResponse
	MetricsResponse  = wire.MetricsResponse
	AdvanceRequest   = wire.AdvanceRequest
	AdvanceResponse  = wire.AdvanceResponse
	ReplayRequest    = wire.ReplayRequest
	ReplayResponse   = wire.ReplayResponse
	ErrorResponse    = wire.ErrorResponse
)

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrOverloaded rejects a submission over the in-flight bound (429).
	ErrOverloaded = errors.New("service: overloaded: in-flight workflow bound reached")
	// ErrDraining rejects submissions while a drain is in progress (503).
	ErrDraining = errors.New("service: draining: not accepting new workflows")
	// ErrClosed rejects every operation after Drain/Close completed (503).
	ErrClosed = errors.New("service: closed")
	// ErrWallClock rejects explicit clock advances in wall-clock mode (409).
	ErrWallClock = errors.New("service: clock advances are owned by the wall-clock pacer (run without -pace for a virtual clock)")
)

// Config assembles a service. The zero value runs the small scale with
// DSMF on a virtual clock.
type Config struct {
	// Scale sizes the grid (nodes, gossip dimensioning). Zero value:
	// experiments.SmallScale.
	Scale experiments.Scale
	// Algo names the scheduling algorithm (heuristics.ByName vocabulary;
	// default DSMF).
	Algo string
	// Seed is the root seed for topology, capacities and generated
	// workloads (default 2010).
	Seed int64
	// Shards is ignored: the daemon's grid runs one serial gossip cycle.
	//
	// Deprecated: nothing reads it.
	Shards int
	// MaxInFlight bounds admitted-but-unfinished workflows; submissions
	// over the bound are rejected with ErrOverloaded. Default 256.
	MaxInFlight int
	// Pace > 0 selects wall-clock mode: a pacer goroutine advances the
	// virtual clock by Pace virtual seconds per wall second. 0 selects
	// virtual mode, where the clock moves only through AdvanceTo/Drain.
	Pace float64
	// DrainHorizonSeconds caps how much virtual time Drain may burn
	// waiting for in-flight workflows (default 90 virtual days).
	DrainHorizonSeconds float64
	// Price prices the grid's nodes (capacity-proportional per-MI rates,
	// see economy.PriceSpec). The zero value runs unpriced; submissions
	// carrying budgets are then rejected, since budgets are denominated in
	// the pricing model's currency.
	Price economy.PriceSpec
	// Log receives structured daemon events (admissions, replays, drains).
	// Nil discards them. Logging never touches simulation state, so two
	// daemons differing only in Log stay byte-identical.
	Log *slog.Logger
}

// traceBufferCap bounds the daemon's always-on event ring: ~500 Table-I
// workflows of span history. Older events fall off the ring; a workflow
// trace fetched after that shows its surviving suffix.
const traceBufferCap = 1 << 16

func (c Config) withDefaults() Config {
	if c.Scale.Nodes == 0 {
		c.Scale = experiments.SmallScale
	}
	if c.Algo == "" {
		c.Algo = "DSMF"
	}
	if c.Seed == 0 {
		c.Seed = 2010
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 256
	}
	if c.DrainHorizonSeconds <= 0 {
		c.DrainHorizonSeconds = 90 * 24 * 3600
	}
	return c
}

// Service is one running scheduler daemon.
type Service struct {
	cfg  Config
	algo grid.Algorithm
	log  *slog.Logger

	mu       sync.Mutex
	eng      sim.Driver
	g        *grid.Grid
	obs      *obs.GridMetrics // always-on histogram families (under mu)
	traceBuf *trace.Buffer    // always-on bounded event ring (under mu)

	// Counters mutated under mu (replay arrival callbacks run inside
	// RunUntil, which is itself always called under mu).
	admitted int
	rejected int
	dropped  int // arrivals whose home node was dead
	pending  int // scheduled replay arrivals not yet due
	draining bool
	closed   bool

	chunk float64 // advance slice: one scheduling interval

	pacerStop chan struct{}
	pacerDone chan struct{}
}

// New builds the grid, starts its gossip and scheduling cycles, and (in
// wall-clock mode) starts the pacer goroutine.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	if cfg.Pace < 0 {
		return nil, fmt.Errorf("service: pace must be non-negative, got %v", cfg.Pace)
	}
	algo, err := heuristics.ByName(cfg.Algo)
	if err != nil {
		return nil, err
	}
	if err := cfg.Price.Validate(); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	// The daemon's observability is always on: two taps on its grid, a
	// bounded event ring for per-workflow trace export and the histogram
	// families for /metrics.
	// Observation reads simulation state but never feeds back into it, so
	// status bodies, snapshots and soak digests stay byte-identical to an
	// unobserved daemon (pinned by TestSoakDigestUnchangedByObservability).
	gm := obs.NewGridMetrics()
	tb := trace.NewBuffer(traceBufferCap)
	// The batch runs' assembly, so a daemon and a batch run at one seed
	// build the same grid and price its nodes identically.
	setting := experiments.NewSetting(cfg.Scale, cfg.Seed)
	setting.Price = cfg.Price
	setting.Tap = grid.Taps{grid.TraceTap{Buf: tb}, gm}
	eng, g, err := experiments.BuildGrid(setting, algo)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	logger := cfg.Log
	if logger == nil {
		logger = obs.NopLogger()
	}
	s := &Service{cfg: cfg, algo: algo, log: logger, eng: eng, g: g, obs: gm, traceBuf: tb, chunk: g.Cfg.SchedulingInterval}
	if s.chunk <= 0 {
		s.chunk = 900
	}
	g.Start()
	if cfg.Pace > 0 {
		s.pacerStop = make(chan struct{})
		s.pacerDone = make(chan struct{})
		go s.pace()
	}
	s.log.Info("service started",
		"scale", cfg.Scale.Name, "nodes", len(g.Nodes), "algo", cfg.Algo,
		"seed", cfg.Seed, "clock", s.Clock(),
		"max_in_flight", cfg.MaxInFlight, "priced", g.PricingEnabled())
	return s, nil
}

// pace advances the virtual clock at cfg.Pace virtual seconds per wall
// second until stopped. Wall-clock mode trades determinism for liveness;
// virtual mode keeps both by making every advance explicit.
func (s *Service) pace() {
	defer close(s.pacerDone)
	const tick = 50 * time.Millisecond
	t := time.NewTicker(tick)
	defer t.Stop()
	last := time.Now()
	for {
		select {
		case <-s.pacerStop:
			return
		case now := <-t.C:
			dt := now.Sub(last).Seconds()
			last = now
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				return
			}
			s.eng.RunUntil(s.eng.Now() + dt*s.cfg.Pace)
			s.mu.Unlock()
		}
	}
}

// Clock reports "virtual" or "wall".
func (s *Service) Clock() string {
	if s.cfg.Pace > 0 {
		return "wall"
	}
	return "virtual"
}

// Now returns the current virtual time in seconds.
func (s *Service) Now() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.Now()
}

func (s *Service) inFlightLocked() int {
	return len(s.g.Workflows) - s.g.CompletedCount - s.g.FailedCount
}

// RetryAfterSeconds is the backoff hint attached to ErrOverloaded
// rejections: one scheduling interval, the soonest the grid's admission
// picture can change, divided by the pace in wall-clock mode.
func (s *Service) RetryAfterSeconds() float64 {
	if s.cfg.Pace > 0 {
		return s.chunk / s.cfg.Pace
	}
	return s.chunk
}

// Submit admits one workflow at the current virtual time. Exactly one of
// req.Workflow, req.Gen, req.Trace selects the source; an empty request
// generates a workflow seeded from the submission sequence.
func (s *Service) Submit(req wire.SubmitRequest) (wire.SubmitResponse, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return wire.SubmitResponse{}, ErrClosed
	}
	if s.draining {
		return wire.SubmitResponse{}, ErrDraining
	}
	if s.inFlightLocked() >= s.cfg.MaxInFlight {
		s.rejected++
		s.log.Warn("submission shed", "in_flight", s.inFlightLocked(), "max_in_flight", s.cfg.MaxInFlight)
		return wire.SubmitResponse{}, ErrOverloaded
	}
	if err := validateSLARequest(req, s.g.PricingEnabled()); err != nil {
		return wire.SubmitResponse{}, err
	}
	id := len(s.g.Workflows)
	w, err := s.buildWorkflow(req, id)
	if err != nil {
		return wire.SubmitResponse{}, err
	}
	home, err := s.pickHome(req.Home, id)
	if err != nil {
		return wire.SubmitResponse{}, err
	}
	wf, err := s.g.Submit(home, w)
	if err != nil {
		return wire.SubmitResponse{}, err
	}
	if req.DeadlineSeconds != nil || req.Budget != nil {
		var sla grid.SLA
		if req.DeadlineSeconds != nil {
			sla.Deadline = wf.SubmittedAt + *req.DeadlineSeconds
		}
		if req.Budget != nil {
			sla.Budget = *req.Budget
		}
		s.g.SetWorkflowSLA(wf, sla)
	}
	s.admitted++
	s.log.Debug("workflow admitted",
		"id", wf.Seq, "name", w.Name, "home", home,
		"tasks", realTaskCount(w), "t", wf.SubmittedAt)
	return wire.SubmitResponse{
		ID:          wf.Seq,
		Name:        w.Name,
		Home:        home,
		SubmittedAt: wf.SubmittedAt,
		Tasks:       realTaskCount(w),
		Deadline:    wf.SLA.Deadline,
		Budget:      wf.SLA.Budget,
	}, nil
}

// validateSLARequest rejects malformed SLA fields before any state moves:
// non-positive bounds are always a mistake, and a budget without pricing
// could never be debited against.
func validateSLARequest(req wire.SubmitRequest, priced bool) error {
	if req.DeadlineSeconds != nil && *req.DeadlineSeconds <= 0 {
		return fmt.Errorf("service: deadline_seconds must be positive, got %v", *req.DeadlineSeconds)
	}
	if req.Budget != nil {
		if *req.Budget <= 0 {
			return fmt.Errorf("service: budget must be positive, got %v", *req.Budget)
		}
		if !priced {
			return fmt.Errorf("service: budget needs pricing: run the daemon with -price RATE[:SPREAD]")
		}
	}
	return nil
}

// buildWorkflow resolves a submission body into a DAG.
func (s *Service) buildWorkflow(req wire.SubmitRequest, id int) (*dag.Workflow, error) {
	set := 0
	if req.Workflow != nil {
		set++
	}
	if req.Gen != nil {
		set++
	}
	if req.Trace != nil {
		set++
	}
	if set > 1 {
		return nil, fmt.Errorf("service: workflow, gen and trace are mutually exclusive")
	}
	name := req.Name
	if name == "" {
		name = fmt.Sprintf("api/%d", id)
	}
	switch {
	case req.Workflow != nil:
		w, err := dag.UnmarshalWorkflow(req.Workflow)
		if err != nil {
			return nil, fmt.Errorf("service: workflow: %w", err)
		}
		return w, nil
	case req.Trace != nil:
		if req.Trace.RuntimeSeconds <= 0 || req.Trace.Procs <= 0 {
			return nil, fmt.Errorf("service: trace job needs positive runtime and procs, got %v / %d",
				req.Trace.RuntimeSeconds, req.Trace.Procs)
		}
		w, err := s.generate(name, stats.ChainSeed(s.cfg.Seed, 0x7A5E, uint64(id)))
		if err != nil {
			return nil, err
		}
		cpuSeconds := req.Trace.RuntimeSeconds * float64(req.Trace.Procs)
		if w, err = workload.ScaleToTraceJob(w, cpuSeconds, dag.PaperAvgCapacityMIPS); err != nil {
			return nil, fmt.Errorf("service: trace job: %w", err)
		}
		return w, nil
	case req.Gen != nil:
		return s.generate(name, req.Gen.Seed)
	default:
		return s.generate(name, stats.ChainSeed(s.cfg.Seed, 0x5EED, uint64(id)))
	}
}

func (s *Service) generate(name string, seed int64) (*dag.Workflow, error) {
	w, err := dag.Generate(name, dag.DefaultGenConfig(), stats.NewRand(seed, 0x17F))
	if err != nil {
		return nil, fmt.Errorf("service: generate: %w", err)
	}
	return w, nil
}

// pickHome resolves the home node: an explicit request is validated by
// grid.Submit; otherwise a deterministic rotation over the node space,
// skipping dead nodes.
func (s *Service) pickHome(req *int, id int) (int, error) {
	if req != nil {
		return *req, nil
	}
	n := len(s.g.Nodes)
	for off := 0; off < n; off++ {
		h := (id + off) % n
		if s.g.Nodes[h].Alive {
			return h, nil
		}
	}
	return 0, fmt.Errorf("service: no alive node to home the workflow")
}

// Status reports one workflow's lifecycle, placements and completion time.
func (s *Service) Status(id int) (wire.WorkflowStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id < 0 || id >= len(s.g.Workflows) {
		return wire.WorkflowStatus{}, fmt.Errorf("service: unknown workflow %d", id)
	}
	wf := s.g.Workflows[id]
	now := s.eng.Now()
	st := wire.WorkflowStatus{
		ID:          wf.Seq,
		Name:        wf.W.Name,
		State:       wf.State.String(),
		Home:        wf.Home,
		SubmittedAt: wf.SubmittedAt,
	}
	if wf.State == grid.WorkflowCompleted || wf.State == grid.WorkflowFailed {
		st.CompletedAt = wf.CompletedAt
		st.ACTSeconds = wf.CompletedAt - wf.SubmittedAt
	} else {
		st.ACTSeconds = now - wf.SubmittedAt
	}
	if wf.SLA.Enabled() || s.g.PricingEnabled() {
		st.SLA = &wire.WorkflowSLA{
			Deadline:       wf.SLA.Deadline,
			Budget:         wf.SLA.Budget,
			Spend:          wf.Spend,
			DeadlineMissed: wf.DeadlineMissed,
			BudgetExceeded: wf.SLA.Budget > 0 && wf.Spend > wf.SLA.Budget,
		}
	}
	for _, t := range wf.Tasks {
		task := t.Task()
		if task.Virtual {
			continue
		}
		if t.State >= grid.TaskDispatched && t.State != grid.TaskFailed {
			st.Placed++
		}
		if t.State == grid.TaskDone {
			st.Done++
		}
		st.Tasks = append(st.Tasks, wire.TaskStatus{
			ID:         int(t.ID),
			Name:       task.Name,
			State:      t.State.String(),
			Node:       t.Node,
			LoadMI:     task.Load,
			StartedAt:  t.StartedAt,
			FinishedAt: t.FinishedAt,
		})
	}
	return st, nil
}

// WorkflowCount reports how many workflows have entered the system.
func (s *Service) WorkflowCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.g.Workflows)
}

// NextTask previews a node's queue: its ready/dispatched depths, the task
// currently on the CPU, and what the second-phase policy would start next.
func (s *Service) NextTask(node int) (wire.NextTaskResponse, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if node < 0 || node >= len(s.g.Nodes) {
		return wire.NextTaskResponse{}, fmt.Errorf("service: unknown node %d", node)
	}
	nd := &s.g.Nodes[node]
	resp := wire.NextTaskResponse{
		Node:   node,
		Alive:  nd.Alive,
		Ready:  s.g.ReadyCount(node),
		Queued: len(nd.ReadySet),
	}
	if nd.Running != nil {
		resp.Running = taskRef(nd.Running)
	}
	if t := s.g.PeekNext(node); t != nil {
		resp.Next = taskRef(t)
	}
	return resp, nil
}

func taskRef(t *grid.TaskInstance) *wire.TaskRef {
	task := t.Task()
	return &wire.TaskRef{
		Workflow: t.WF.Seq,
		Task:     int(t.ID),
		Name:     task.Name,
		LoadMI:   task.Load,
	}
}

// Snapshot reports the standard metrics sample plus the service's
// admission counters.
func (s *Service) Snapshot() wire.MetricsResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked()
}

func (s *Service) snapshotLocked() wire.MetricsResponse {
	now := s.eng.Now()
	return wire.MetricsResponse{
		Schema:      wire.APIV1,
		Clock:       s.Clock(),
		NowSeconds:  now,
		Snapshot:    metrics.Sample(s.g, now),
		Admitted:    s.admitted,
		Rejected:    s.rejected,
		Dropped:     s.dropped,
		InFlight:    s.inFlightLocked(),
		MaxInFlight: s.cfg.MaxInFlight,
		Pending:     s.pending,
		Draining:    s.draining,
	}
}

// AdvanceTo runs the grid to the given absolute virtual time (virtual
// mode only). Advancing happens in scheduling-interval slices, so status
// and metrics queries interleave with long advances.
func (s *Service) AdvanceTo(t float64) (float64, error) {
	if s.cfg.Pace > 0 {
		return 0, ErrWallClock
	}
	return s.advance(t)
}

func (s *Service) advance(t float64) (float64, error) {
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return 0, ErrClosed
		}
		now := s.eng.Now()
		if now >= t || s.eng.Stopped() {
			s.mu.Unlock()
			return now, nil
		}
		s.eng.RunUntil(math.Min(t, now+s.chunk))
		s.mu.Unlock()
	}
}

// Replay schedules a whole arrival process (or trace replay) as timed
// submissions relative to the current virtual time, using the CLI's
// -arrival/-trace spec vocabulary. Arrivals pass admission control at
// their due instant: overload sheds them, a dead home drops them — both
// counted, both deterministic.
func (s *Service) Replay(req wire.ReplayRequest) (wire.ReplayResponse, error) {
	// Seed resolution precedes spec resolution: model synthesis consumes
	// the seed inside ResolveOptions.
	seed := req.Seed
	if seed == 0 {
		seed = s.cfg.Seed
	}
	sp, err := loadspec.ResolveOptions(loadspec.Options{
		Arrival: req.Arrival, Trace: req.Trace, TraceScale: req.TraceScale,
		Model: req.Model, Synth: req.Synth, Seed: seed,
	})
	if err != nil {
		return wire.ReplayResponse{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return wire.ReplayResponse{}, ErrClosed
	}
	if s.draining {
		return wire.ReplayResponse{}, ErrDraining
	}
	subs, err := s.replaySubmissions(sp, seed, req.Count)
	if err != nil {
		return wire.ReplayResponse{}, err
	}
	if len(subs) == 0 {
		return wire.ReplayResponse{}, fmt.Errorf("service: replay resolved to zero arrivals")
	}
	now := s.eng.Now()
	s.pending += len(subs)
	// Chained scheduling: at most one outstanding arrival event per
	// replay, however long the schedule (the SubmitStream discipline,
	// with admission control at the arrival instant).
	var fire func(i int)
	fire = func(i int) {
		sub := subs[i]
		s.eng.At(now+sub.SubmitAt, func(at float64) {
			s.pending--
			s.arriveLocked(sub, at)
			if i+1 < len(subs) {
				fire(i + 1)
			}
		})
	}
	fire(0)
	first, last := subs[0].SubmitAt, subs[len(subs)-1].SubmitAt
	s.log.Info("replay scheduled",
		"arrivals", len(subs), "first_at", now+first, "last_at", now+last)
	return wire.ReplayResponse{
		Scheduled:   len(subs),
		FirstAt:     now + first,
		LastAt:      now + last,
		SpanSeconds: last - first,
	}, nil
}

// replaySubmissions expands a resolved load spec into timed submissions,
// reusing the workload generator's seed streams so a service replay and a
// batch -trace run derive identical workflows from identical seeds.
func (s *Service) replaySubmissions(sp loadspec.Spec, seed int64, count int) ([]workload.Submission, error) {
	n := len(s.g.Nodes)
	if sp.Trace != nil {
		subs, err := workload.Generate(workload.Config{
			Nodes: n,
			Gen:   dag.DefaultGenConfig(),
			Seed:  seed,
			Trace: sp.Trace.Jobs,
		})
		if err != nil {
			return nil, fmt.Errorf("service: replay: %w", err)
		}
		return subs, nil
	}
	if count <= 0 {
		count = 100
	}
	times, err := sp.Arrival.Schedule(count, stats.SplitSeed(seed, 0x35))
	if err != nil {
		return nil, fmt.Errorf("service: replay: %w", err)
	}
	rng := stats.NewRand(seed, 0x33)
	homeRng := stats.NewRand(seed, 0x36)
	subs := make([]workload.Submission, 0, count)
	for i := 0; i < count; i++ {
		w, err := dag.Generate(fmt.Sprintf("rp-%d", i), dag.DefaultGenConfig(), rng)
		if err != nil {
			return nil, fmt.Errorf("service: replay: %w", err)
		}
		subs = append(subs, workload.Submission{
			Home:     homeRng.Intn(n),
			SubmitAt: times[i],
			Workflow: w,
		})
	}
	return subs, nil
}

// arriveLocked lands one replay arrival. It runs inside an engine event
// under mu (RunUntil is only ever called with the lock held), so counters
// mutate directly.
func (s *Service) arriveLocked(sub workload.Submission, _ float64) {
	if s.draining || s.inFlightLocked() >= s.cfg.MaxInFlight {
		s.rejected++
		return
	}
	if sub.Home < 0 || sub.Home >= len(s.g.Nodes) || !s.g.Nodes[sub.Home].Alive {
		s.dropped++
		return
	}
	if _, err := s.g.Submit(sub.Home, sub.Workflow); err != nil {
		s.dropped++
		return
	}
	s.admitted++
}

// Drain stops admissions and advances virtual time until every in-flight
// workflow (and every scheduled replay arrival) has resolved, then stops
// the engine and the pacer. Returns the final snapshot. Pending replay
// arrivals landing during the drain are shed, not admitted.
func (s *Service) Drain() (wire.MetricsResponse, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return wire.MetricsResponse{}, ErrClosed
	}
	s.draining = true
	deadline := s.eng.Now() + s.cfg.DrainHorizonSeconds
	inFlight := s.inFlightLocked()
	s.mu.Unlock()
	s.log.Info("drain started", "in_flight", inFlight)
	for {
		s.mu.Lock()
		done := s.inFlightLocked() == 0 && s.pending == 0
		now := s.eng.Now()
		s.mu.Unlock()
		if done {
			break
		}
		if now >= deadline {
			s.Close()
			return wire.MetricsResponse{}, fmt.Errorf("service: drain stalled with %d workflows in flight after %.0f virtual seconds",
				s.inFlight(), s.cfg.DrainHorizonSeconds)
		}
		if _, err := s.advance(math.Min(deadline, now+s.chunk)); err != nil {
			return wire.MetricsResponse{}, err
		}
	}
	s.stopPacer()
	s.mu.Lock()
	snap := s.snapshotLocked()
	s.eng.Stop()
	s.closed = true
	s.mu.Unlock()
	s.log.Info("drain finished",
		"t", snap.NowSeconds, "completed", snap.Snapshot.Completed, "failed", snap.Snapshot.Failed)
	return snap, nil
}

// ObsSnapshot returns an independent copy of the daemon's histogram
// families, safe to render outside the service lock.
func (s *Service) ObsSnapshot() *obs.GridMetrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.obs.Clone()
}

// WorkflowTrace exports one workflow's span timeline as a Chrome
// trace-event document (Perfetto-loadable). The daemon's event ring is
// bounded, so a long-finished workflow's early events may have fallen
// off; the export shows whatever survives.
func (s *Service) WorkflowTrace(id int) (*obs.ChromeTrace, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id < 0 || id >= len(s.g.Workflows) {
		return nil, fmt.Errorf("service: unknown workflow %d", id)
	}
	name := s.g.Workflows[id].W.Name
	events := s.traceBuf.Filter(func(e trace.Event) bool { return e.Workflow == name })
	return obs.BuildChromeTrace(events), nil
}

func (s *Service) inFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inFlightLocked()
}

// Close stops the service immediately without waiting for in-flight
// workflows. Idempotent; safe after Drain.
func (s *Service) Close() {
	s.stopPacer()
	s.mu.Lock()
	if !s.closed {
		s.eng.Stop()
		s.closed = true
	}
	s.mu.Unlock()
}

func (s *Service) stopPacer() {
	if s.pacerStop == nil {
		return
	}
	select {
	case <-s.pacerStop:
		// already closed
	default:
		close(s.pacerStop)
	}
	<-s.pacerDone
}

func realTaskCount(w *dag.Workflow) int {
	n := 0
	for i := 0; i < w.Len(); i++ {
		if !w.Task(dag.TaskID(i)).Virtual {
			n++
		}
	}
	return n
}
