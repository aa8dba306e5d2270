// Package grid implements the P2P Grid runtime the paper simulates on
// PeerSim: n peer nodes, each simultaneously a scheduler (home) node for the
// workflows submitted to it and a resource node executing tasks dispatched
// by others. A node owns one non-sharable, non-preemptive CPU; dispatched
// tasks sit in its ready set while their dependent data and task image are
// in flight, become eligible once every input has arrived, and are picked
// for execution by the plugged-in second-phase policy. Nodes learn about
// each other exclusively through the mixed gossip protocol.
//
// The actual scheduling intelligence is injected: a Phase1Scheduler runs at
// every scheduling interval on each home node (just-in-time model), or a
// FullAheadPlanner maps the whole workflow at submission (static model used
// by the HEFT and SMF baselines).
package grid

import (
	"fmt"
	"math/rand"

	"repro/internal/gossip"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/trace"
)

// BandwidthEstimator is the network-status interface schedulers use. The
// landmark estimator (default) gives realistic partial information; the
// oracle variant exists for information-quality ablations.
type BandwidthEstimator interface {
	Estimate(a, b int) float64
	EstimateTransferTime(a, b int, sizeMb float64) float64
}

// Phase1Scheduler dispatches a home node's schedule-point tasks to resource
// nodes (Algorithm 1's pluggable policy). Implementations live in
// internal/core and internal/heuristics.
type Phase1Scheduler interface {
	Name() string
	// Schedule may inspect g's read-only views and must place tasks via
	// g.Dispatch. It runs once per scheduling interval per home node.
	Schedule(g *Grid, home *Node, now float64)
}

// Phase2Policy selects the next task to execute from a resource node's
// data-complete ready tasks (Algorithm 2's pluggable policy).
type Phase2Policy interface {
	Name() string
	// Pick returns one element of ready (never nil for non-empty input).
	Pick(ready []*TaskInstance) *TaskInstance
}

// FullAheadPlanner statically maps every real task of every workflow to a
// node before execution starts (the HEFT/SMF full-ahead model: "the
// scheduling work of the two algorithms is centrally performed before the
// execution starts"). PlanAll receives every workflow submitted before
// Start in one batch - so a planner may globally reorder them (SMF sorts by
// makespan) - and must fill each wf.PlannedNodes with a TaskID-to-node map
// covering every non-virtual task. Workflows submitted after Start are
// planned one by one as they arrive.
type FullAheadPlanner interface {
	Name() string
	PlanAll(g *Grid, wfs []*WorkflowInstance)
}

// Algorithm bundles the pieces of one scheduling strategy. Exactly one of
// Phase1 or Planner must be set; Phase2 is required.
type Algorithm struct {
	Label   string
	Phase1  Phase1Scheduler
	Phase2  Phase2Policy
	Planner FullAheadPlanner
}

func (a Algorithm) validate() error {
	switch {
	case a.Phase2 == nil:
		return fmt.Errorf("grid: algorithm %q needs a Phase2 policy", a.Label)
	case (a.Phase1 == nil) == (a.Planner == nil):
		return fmt.Errorf("grid: algorithm %q must set exactly one of Phase1/Planner", a.Label)
	}
	return nil
}

// Config assembles a grid. Zero values pick the paper's setting.
type Config struct {
	Nodes              int
	Capacities         []float64 // MIPS choices; default {1,2,4,8,16}
	SchedulingInterval float64   // default 900 s (15 min)
	Seed               int64

	// Net, if non-nil, supplies a pre-built topology (shared across runs in
	// sweeps); otherwise Topology is generated with Nodes and Seed.
	Net      *topology.Network
	Topology topology.Config

	Gossip gossip.Config // N and Seed are filled in automatically

	// UseOracleBandwidth replaces landmark estimation by true values.
	UseOracleBandwidth bool
	// UseOracleAverages replaces aggregation-gossip averages by true values.
	UseOracleAverages bool
	// RescheduleFailed enables the paper's future-work extension: tasks lost
	// to churn are reverted to schedule points and re-dispatched.
	// MaxReschedules bounds the retries per task (0 = unlimited); beyond
	// the bound the workflow fails as in the base model, preventing
	// livelock when the environment churns faster than tasks can finish.
	RescheduleFailed bool
	MaxReschedules   int

	// Tracer, when non-nil, receives every runtime event (dispatches,
	// executions, failures, churn) for debugging and visualization. See
	// internal/trace for buffered recorders and Gantt rendering.
	Tracer trace.Recorder

	// Obs, when non-nil, receives virtual-time latency observations
	// (queue waits, exec and transfer times, workflow completion,
	// gossip staleness at dispatch, DBC candidate counts) into its
	// histogram families. Like Tracer, a nil Obs costs one nil check
	// per hook.
	Obs *obs.GridMetrics

	// HarshChurn selects the maximal-loss churn semantics: a departing node
	// destroys its whole ready set AND the outputs of tasks it completed
	// (in-flight transfers from it fail outright). The default (false) is
	// the graceful model calibrated to the paper's Fig. 12-14 narrative:
	// a departing peer hands its queued tasks back to their home nodes,
	// completed outputs stay retrievable through a durable copy at the
	// workflow's home, and only the task RUNNING at departure is lost
	// ("the degraded throughput is mainly induced by the large-load tasks
	// which cannot be finished quickly"). The paper does not specify its
	// loss model; the churn-model experiment measures how much the choice
	// matters.
	HarshChurn bool
}

func (c Config) withDefaults() Config {
	if len(c.Capacities) == 0 {
		c.Capacities = []float64{1, 2, 4, 8, 16}
	}
	if c.SchedulingInterval == 0 {
		c.SchedulingInterval = 900
	}
	return c
}

// Grid is one simulated P2P grid system bound to a sim.Host (see
// internal/sim).
type Grid struct {
	Engine sim.Host
	Cfg    Config
	Net    *topology.Network
	Nodes  []Node // value slice: one flat allocation, index = node id
	Gossip *gossip.Protocol

	algo      Algorithm
	estimator BandwidthEstimator
	rng       *rand.Rand

	Workflows []*WorkflowInstance

	trueAvgCap float64
	trueAvgBW  float64

	started     bool
	pendingPlan []*WorkflowInstance // submitted before Start, planner mode
	dispatchSeq int
	rssBuf      []gossip.StateRecord // scratch for RSSView

	// Counters maintained incrementally for metrics.
	CompletedCount int
	FailedCount    int
	DispatchCount  int
	FailedTasks    int
	Rescheduled    int
	HandedBack     int

	// DroppedSubmissions counts timed submissions (SubmitAt) whose home
	// node was no longer alive at the arrival instant.
	DroppedSubmissions int

	// SLAFallbacks counts dispatches where a constrained (DBC) scheduler
	// found no candidate satisfying the workflow's SLA and fell back to the
	// best-effort pick, recording the violation instead of stalling work.
	SLAFallbacks int

	// prices is the optional per-MI cost rate of every node (economic
	// accounting off while nil); slaAssign optionally stamps SLAs at
	// submission; slaSeen latches once any workflow carries an SLA. See
	// economy.go.
	prices    []float64
	slaAssign func(wf *WorkflowInstance) SLA
	slaSeen   bool
}

// Node is one peer: home node for its submitted workflows and resource node
// for everyone's tasks.
type Node struct {
	ID           int
	Capacity     float64 // MIPS
	Alive        bool
	Incarnation  int     // bumped on every leave/join; invalidates transfers
	BandwidthObs float64 // local observation seeding aggregation gossip

	ReadySet    []*TaskInstance // RDS: dispatched tasks (in-flight or ready)
	Running     *TaskInstance
	TotalLoadMI float64 // l_i: running + every ready-set task's load

	// ready is the incrementally maintained data-complete subset of
	// ReadySet (tasks in state TaskReady): appended when the last input
	// transfer lands, removed when a task starts executing or fails. It
	// replaces the per-maybeRun linear rebuild; every Phase2Policy orders
	// candidates by a total key ending in the unique DispatchSeq, so Pick
	// is independent of this slice's maintenance order.
	ready []*TaskInstance

	Homed []*WorkflowInstance // workflows submitted at this node
}

// New builds the grid, its topology, and its gossip protocol. Call Submit
// for each workflow, then Start, then the driver's RunUntil(horizon).
func New(engine sim.Host, cfg Config, algo Algorithm) (*Grid, error) {
	cfg = cfg.withDefaults()
	if err := algo.validate(); err != nil {
		return nil, err
	}
	if cfg.Nodes <= 0 && cfg.Net == nil {
		return nil, fmt.Errorf("grid: need Nodes > 0 or a prebuilt Net")
	}
	net := cfg.Net
	if net == nil {
		tc := cfg.Topology
		tc.N = cfg.Nodes
		if tc.Seed == 0 {
			tc.Seed = stats.SplitSeed(cfg.Seed, 0xD4)
		}
		var err error
		net, err = topology.Generate(tc)
		if err != nil {
			return nil, fmt.Errorf("grid: topology: %w", err)
		}
	}
	n := net.N()
	cfg.Nodes = n
	g := &Grid{
		Engine: engine,
		Cfg:    cfg,
		Net:    net,
		Nodes:  make([]Node, n),
		algo:   algo,
		rng:    stats.NewRand(cfg.Seed, 0xE5),
	}
	if cfg.UseOracleBandwidth {
		g.estimator = topology.BandwidthOracle{Net: net}
	} else {
		k := max(1, stats.Log2Ceil(n))
		lm, err := topology.NewLandmarkEstimator(net, k, stats.SplitSeed(cfg.Seed, 0xF6))
		if err != nil {
			return nil, fmt.Errorf("grid: landmarks: %w", err)
		}
		g.estimator = lm
	}
	sampleBuf := make([]int, 0, 3*max(1, stats.Log2Ceil(n)))
	for i := 0; i < n; i++ {
		g.Nodes[i] = Node{
			ID:       i,
			Capacity: stats.Choice(g.rng, cfg.Capacities),
			Alive:    true,
		}
		g.Nodes[i].BandwidthObs = g.bandwidthObservation(i, sampleBuf)
	}
	g.refreshTrueAverages()

	gc := cfg.Gossip
	gc.N = n
	if gc.Seed == 0 {
		gc.Seed = stats.SplitSeed(cfg.Seed, 0x17)
	}
	if gc.Workers == 0 {
		// The engine's shard count is how much parallelism the run wants;
		// spread the gossip cycle (the dominant event) over as many
		// workers. Bit-identical either way, see gossip.Config.Workers.
		gc.Workers = engine.Shards()
	}
	proto, err := gossip.New(engine, gc, (*localState)(g))
	if err != nil {
		return nil, fmt.Errorf("grid: gossip: %w", err)
	}
	g.Gossip = proto
	return g, nil
}

// bandwidthObservation is a node's local sense of typical end-to-end
// bandwidth: the mean of its measurements to the landmark set (or to a
// random sample under the oracle estimator). buf is the sample's scratch,
// of capacity 3·log2(n).
func (g *Grid) bandwidthObservation(node int, buf []int) float64 {
	sampleN := max(1, stats.Log2Ceil(g.Net.N()))
	targets := stats.SampleWithoutInto(g.rng, g.Net.N(), sampleN, node, buf)
	var sum float64
	var cnt int
	for _, t := range targets {
		sum += g.Net.Bandwidth(node, t)
		cnt++
	}
	if cnt == 0 {
		return g.Net.Cfg.BandwidthRange.Mid()
	}
	return sum / float64(cnt)
}

// refreshTrueAverages prices both oracle averages; the O(n^2) bandwidth
// average is computed once here because the physical network never changes.
func (g *Grid) refreshTrueAverages() {
	g.refreshTrueCapacity()
	g.trueAvgBW = g.Net.AvgBandwidth()
}

// refreshTrueCapacity recomputes the alive-population average capacity; the
// churn controller calls it on every membership change.
func (g *Grid) refreshTrueCapacity() {
	var capSum float64
	alive := 0
	for i := range g.Nodes {
		if g.Nodes[i].Alive {
			capSum += g.Nodes[i].Capacity
			alive++
		}
	}
	if alive > 0 {
		g.trueAvgCap = capSum / float64(alive)
	}
}

// localState adapts Grid to gossip.LocalState without exporting the method
// on Grid itself.
type localState Grid

func (ls *localState) Snapshot(node int) gossip.NodeState {
	nd := &ls.Nodes[node]
	return gossip.NodeState{
		Capacity:        nd.Capacity,
		TotalLoadMI:     nd.TotalLoadMI,
		Alive:           nd.Alive,
		AvgBandwidthObs: nd.BandwidthObs,
	}
}

// Start launches gossip cycles and, for just-in-time algorithms, the
// periodic first-phase scheduling on every home node. The first scheduling
// round fires after one full interval, giving gossip time to populate RSSes,
// exactly as the paper's 15-minute scheduler over 5-minute gossip cycles.
// For full-ahead algorithms, Start runs the central planner over every
// pending workflow and releases their entry tasks.
func (g *Grid) Start() {
	g.Gossip.Start(0)
	g.started = true
	if g.algo.Phase1 != nil {
		g.Engine.Every(g.Cfg.SchedulingInterval, g.Cfg.SchedulingInterval, g.schedulingCycle)
	}
	if g.algo.Planner != nil && len(g.pendingPlan) > 0 {
		pending := g.pendingPlan
		g.pendingPlan = nil
		g.algo.Planner.PlanAll(g, pending)
		now := g.Engine.Now()
		for _, wf := range pending {
			g.activate(wf.Tasks[wf.W.Entry()], now)
		}
	}
}

func (g *Grid) schedulingCycle(now float64) {
	for i := range g.Nodes {
		nd := &g.Nodes[i]
		if !nd.Alive || len(nd.Homed) == 0 {
			continue
		}
		if !g.hasSchedulePoints(nd) {
			continue
		}
		g.algo.Phase1.Schedule(g, nd, now)
	}
}

func (g *Grid) hasSchedulePoints(nd *Node) bool {
	for _, wf := range nd.Homed {
		if wf.State != WorkflowActive {
			continue
		}
		for _, t := range wf.Tasks {
			if t.State == TaskSchedulePoint {
				return true
			}
		}
	}
	return false
}

// Algorithm returns the plugged algorithm (read-only).
func (g *Grid) Algorithm() Algorithm { return g.algo }

// TrueAverages returns the oracle system-wide average capacity and
// bandwidth, the baseline of Eq. 1.
func (g *Grid) TrueAverages() (avgCap, avgBW float64) { return g.trueAvgCap, g.trueAvgBW }

// Averages returns the averages a scheduler at node should use: gossip
// estimates normally, oracle values under the ablation flag.
func (g *Grid) Averages(node int) (avgCap, avgBW float64) {
	if g.Cfg.UseOracleAverages {
		return g.trueAvgCap, g.trueAvgBW
	}
	return g.Gossip.Averages(node)
}

// RSSView returns the gossip resource view of node (Algorithm 1's
// RSS(p_s)) in a grid-owned scratch buffer, valid only until the next
// RSSView call. First-phase schedulers run back-to-back on
// one engine thread, so sharing the scratch keeps every scheduling round
// allocation-free.
func (g *Grid) RSSView(node int) []gossip.StateRecord {
	g.rssBuf = g.Gossip.AppendRSS(node, g.rssBuf[:0])
	return g.rssBuf
}

// Estimator returns the bandwidth estimator schedulers must use for
// transfer-time predictions.
func (g *Grid) Estimator() BandwidthEstimator { return g.estimator }

// AliveCount returns the number of alive nodes.
func (g *Grid) AliveCount() int {
	n := 0
	for i := range g.Nodes {
		if g.Nodes[i].Alive {
			n++
		}
	}
	return n
}
