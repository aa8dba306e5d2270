// Package experiments regenerates every table and figure of the paper's
// evaluation (Section IV). Each figure has a runner producing the same
// series/rows the paper plots; the CLI prints them and the benchmark
// harness exercises them at reduced scale. Every multi-run experiment is a
// SweepSpec executed by the streaming sweep engine (runner.go), whose
// replications fan out across executor.Local's bounded goroutine pool -
// the Go-native way to use a multicore machine for a parameter sweep of
// single-threaded deterministic simulations.
package experiments

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/economy"
	"repro/internal/grid"
	"repro/internal/heuristics"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workload"
	"repro/internal/workload/arrival"
	"repro/internal/workload/traces"
)

// Scale selects the experiment size. PaperScale mirrors Section IV.A
// (1000 nodes, 3 workflows per node, 36 hours); the smaller presets keep
// unit tests and benchmarks quick while preserving every qualitative
// relationship.
type Scale struct {
	Name          string
	Nodes         int
	LoadFactor    int
	HorizonHours  float64
	SnapshotHours float64
}

// Predefined scales.
var (
	PaperScale = Scale{Name: "paper", Nodes: 1000, LoadFactor: 3, HorizonHours: 36, SnapshotHours: 1}
	SmallScale = Scale{Name: "small", Nodes: 150, LoadFactor: 2, HorizonHours: 24, SnapshotHours: 1}
	TinyScale  = Scale{Name: "tiny", Nodes: 60, LoadFactor: 1, HorizonHours: 8, SnapshotHours: 1}
)

// ScaleByName resolves a preset name.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "paper":
		return PaperScale, nil
	case "small":
		return SmallScale, nil
	case "tiny":
		return TinyScale, nil
	default:
		return Scale{}, fmt.Errorf("experiments: unknown scale %q (paper|small|tiny)", name)
	}
}

// Setting fully describes one simulation run except for the algorithm.
type Setting struct {
	Scale Scale
	Gen   dag.GenConfig
	Seed  int64

	// Homes limits workflow submission to the first Homes nodes
	// (0 = every node is a home). Churn experiments use the stable prefix.
	Homes int

	// Churn enables the dynamic environment of Figs. 12-14.
	Churn grid.ChurnConfig

	// Net shares a prebuilt topology across runs of a comparison so every
	// algorithm faces the identical network. Built on demand when nil.
	Net *topology.Network

	// Arrival spreads the workload over virtual time (zero value: the
	// paper's batch load at t=0). Trace switches to trace replay (one
	// workflow per trace job, see workload.Generate's scaling rule);
	// when set, Arrival is ignored.
	Arrival arrival.Spec
	Trace   []traces.Job

	// SLA attaches deadline/budget contracts to every generated workflow
	// and Price installs the per-MI node rates the economy draws against.
	// Zero values keep the run best-effort and unpriced — bit-identical to
	// runs that predate the economic layer (the SLA assignment itself is
	// deterministic and consumes no randomness; rate jitter draws from its
	// own split seed stream).
	SLA   economy.SLASpec
	Price economy.PriceSpec

	// Ablation switches.
	OracleBandwidth  bool
	OracleAverages   bool
	RescheduleFailed bool
	Harsh            bool // maximal-loss churn semantics (HarshChurn)

	// Shards is ignored: every run has one serial engine.
	//
	// Deprecated: nothing reads it.
	Shards int `json:"-"`

	// Tap, when non-nil, receives the run's event stream (grid.Config.Tap):
	// a grid.TraceTap feeds -trace-out span export and the ASCII Gantt,
	// an *obs.GridMetrics the virtual-time latency histograms. A tap is
	// pure observation: it never feeds back into simulation state and is
	// excluded from serialized artifacts and cache identities.
	Tap grid.Tap `json:"-"`
}

// NewSetting builds the default Table I setting at the given scale: the
// headline workload of Figs. 4-6 (loads 100-10000 MI, data 10-1000 Mb,
// CCR about 0.16).
func NewSetting(scale Scale, seed int64) Setting {
	return Setting{Scale: scale, Gen: dag.DefaultGenConfig(), Seed: seed}
}

// topoConfig is the single source of the run-seed → topology-seed
// derivation. Every topology builder (BuildNet and the sweep runner's pair
// nets) must route through it: the byte-identity contracts — golden
// determinism, shard merge, warm-start cache — all assume the figure
// runners and the sweep engine generate identical networks from identical
// run seeds.
func topoConfig(nodes int, seed int64) topology.Config {
	return topology.Config{N: nodes, Seed: stats.SplitSeed(seed, 0x70)}
}

// BuildNet generates (or returns) the setting's shared topology.
func (s *Setting) BuildNet() (*topology.Network, error) {
	if s.Net != nil {
		return s.Net, nil
	}
	net, err := topology.Generate(topoConfig(s.Scale.Nodes, s.Seed))
	if err != nil {
		return nil, err
	}
	s.Net = net
	return net, nil
}

// Result is one completed run.
type Result struct {
	Algo      string
	Setting   Setting
	Collector metrics.Collector
	Final     metrics.Snapshot
	CCR       float64 // estimated communication-to-computation ratio

	// Submitted is the offered load: every workflow the workload
	// generator scheduled, whether or not it entered the grid before the
	// horizon. Completion rates are relative to it (an open-system view:
	// work that never got in still counts against the system).
	Submitted int

	// Dropped counts timed arrivals whose home node had churned away at
	// the arrival instant; Unsubmitted counts timed arrivals still
	// pending when the horizon ended (an arrival process slower than the
	// horizon, or a long trace). Both are 0 under the batch default.
	Dropped     int
	Unsubmitted int
}

// BuildGrid assembles the simulated system of a setting: its topology,
// the engine, the grid running algo, and its economy (node prices and SLA
// contracts). Nothing has been submitted and the grid has not started.
// Run adds the workload, the collector and churn; the daemon takes its
// workloads over HTTP.
func BuildGrid(setting Setting, algo grid.Algorithm) (sim.Driver, *grid.Grid, error) {
	net, err := setting.BuildNet()
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: topology: %w", err)
	}
	engine := sim.NewEngine()
	g, err := grid.New(engine, grid.Config{
		Net:                net,
		Seed:               setting.Seed,
		UseOracleBandwidth: setting.OracleBandwidth,
		UseOracleAverages:  setting.OracleAverages,
		RescheduleFailed:   setting.RescheduleFailed,
		HarshChurn:         setting.Harsh,
		Tap:                setting.Tap,
	}, algo)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: grid: %w", err)
	}
	if err := wireEconomy(g, setting); err != nil {
		return nil, nil, err
	}
	return engine, g, nil
}

// Run executes one simulation with the given algorithm. The workload and
// topology depend only on the setting's seed, so different algorithms under
// the same setting face identical inputs.
func Run(setting Setting, algo grid.Algorithm) (Result, error) {
	engine, g, err := BuildGrid(setting, algo)
	if err != nil {
		return Result{}, err
	}

	homes := setting.Homes
	if homes <= 0 || homes > setting.Scale.Nodes {
		homes = setting.Scale.Nodes
	}
	subs, err := workload.Generate(workload.Config{
		Nodes:      homes,
		LoadFactor: setting.Scale.LoadFactor,
		Gen:        setting.Gen,
		Seed:       stats.SplitSeed(setting.Seed, 0x71),
		Arrival:    setting.Arrival,
		Trace:      setting.Trace,
	})
	if err != nil {
		return Result{}, fmt.Errorf("experiments: workload: %w", err)
	}
	// Timed arrivals stream through SubmitStream: the generator emits them
	// in non-decreasing time order, and the stream keeps at most one
	// outstanding submission event in the engine however long the schedule
	// is (a multi-day trace replay used to queue its whole tail as pending
	// events from t=0). Batch (t=0) submissions keep the historical
	// pre-Start path: full-ahead planners see them as one central batch,
	// exactly as before the arrival subsystem existed.
	timed := subs[:0:0]
	for _, sub := range subs {
		if sub.SubmitAt > 0 {
			timed = append(timed, sub)
			continue
		}
		if _, err := g.Submit(sub.Home, sub.Workflow); err != nil {
			return Result{}, fmt.Errorf("experiments: submit: %w", err)
		}
	}
	nextTimed := 0
	g.SubmitStream(func() (float64, int, *dag.Workflow, bool) {
		if nextTimed >= len(timed) {
			return 0, 0, nil, false
		}
		s := timed[nextTimed]
		nextTimed++
		return s.SubmitAt, s.Home, s.Workflow, true
	})

	var col metrics.Collector
	col.Attach(g, setting.Scale.SnapshotHours*3600)
	if setting.Churn.DynamicFactor > 0 {
		if err := g.StartChurn(setting.Churn); err != nil {
			return Result{}, fmt.Errorf("experiments: churn: %w", err)
		}
	}
	g.Start()
	engine.RunUntil(setting.Scale.HorizonHours * 3600)

	avgCap, avgBW := g.TrueAverages()
	return Result{
		Algo:        algo.Label,
		Setting:     setting,
		Collector:   col,
		Final:       metrics.Sample(g, engine.Now()),
		CCR:         workload.EstimateCCR(setting.Gen, avgCap, avgBW),
		Submitted:   len(subs),
		Dropped:     g.DroppedSubmissions,
		Unsubmitted: len(subs) - len(g.Workflows) - g.DroppedSubmissions,
	}, nil
}

// wireEconomy installs the setting's pricing table and SLA assigner on a
// freshly built grid, before any workflow is submitted. With both specs at
// their zero values it does nothing at all, preserving the pre-economy
// byte-identity of every default run.
func wireEconomy(g *grid.Grid, setting Setting) error {
	if !setting.Price.Enabled() && !setting.SLA.Enabled() {
		return nil
	}
	if err := setting.Price.Validate(); err != nil {
		return err
	}
	if err := setting.SLA.Validate(); err != nil {
		return err
	}
	if setting.SLA.HasBudget() && !setting.Price.Enabled() {
		return fmt.Errorf("experiments: SLA %q sets budgets but pricing is off (set Price)", setting.SLA)
	}
	if setting.Price.Enabled() {
		caps := make([]float64, len(g.Nodes))
		for i := range g.Nodes {
			caps[i] = g.Nodes[i].Capacity
		}
		rates := setting.Price.Rates(caps, stats.SplitSeed(setting.Seed, 0x5C))
		if err := g.SetPrices(rates); err != nil {
			return err
		}
	}
	if setting.SLA.Enabled() {
		spec := setting.SLA
		minRate := g.MinPrice()
		g.SetSLAAssigner(func(wf *grid.WorkflowInstance) grid.SLA {
			var sla grid.SLA
			if spec.HasDeadline() {
				// wf.EFT is the critical-path duration priced with the true
				// system averages (Eq. 1's eft(f)).
				sla.Deadline = spec.Deadline(wf.SubmittedAt, wf.EFT)
			}
			if spec.HasBudget() {
				sla.Budget = spec.Budget(wf.W.TotalLoad() * minRate)
			}
			return sla
		})
	}
	return nil
}

// SingleRunWith executes one simulation of the named algorithm (see
// heuristics.ByName) under a caller-built Setting, for profiling, scale
// checks and runs that deviate from the Table I defaults (arrival
// processes, trace replay, ablation switches).
func SingleRunWith(setting Setting, algo string) (Result, error) {
	a, err := heuristics.ByName(algo)
	if err != nil {
		return Result{}, err
	}
	return Run(setting, a)
}
