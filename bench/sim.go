package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/dag"
	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/heuristics"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// simRun is one simulation assembled from the public layer APIs in the
// order experiments.Run uses, split at the first simulated event so set-up
// and the event loop are timed apart. bench_test.go pins its results to
// experiments.Run bit for bit.
type simRun struct {
	setting experiments.Setting
	eng     sim.Driver // the engine the grid runs on
	host    sim.Driver // eng, or eng wrapped in tracedDriver
	g       *grid.Grid
	col     metrics.Collector
	subs    int
}

// setupSim builds the topology (unless the setting shares one), engine,
// grid, pricing and workload, submits the batch, attaches the collector and
// churn, and starts the grid. With a tracer every layer is wrapped.
func setupSim(setting *experiments.Setting, algoName string, t *tracer) (*simRun, error) {
	algo, err := heuristics.ByName(algoName)
	if err != nil {
		return nil, err
	}
	r := &simRun{}
	t.do("topology.build", func() { _, err = setting.BuildNet() })
	if err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}
	r.setting = *setting
	s := &r.setting
	if s.Shards > 1 {
		r.eng = sim.NewSharded(s.Shards, s.Net.N())
	} else {
		r.eng = sim.NewEngine()
	}
	r.host = r.eng
	if t != nil {
		r.host = tracedDriver{r.eng, t}
		algo = traceAlgorithm(algo, t)
	}
	t.do("grid.new", func() {
		r.g, err = grid.New(r.host, grid.Config{
			Net:                s.Net,
			Seed:               s.Seed,
			UseOracleBandwidth: s.OracleBandwidth,
			UseOracleAverages:  s.OracleAverages,
			RescheduleFailed:   s.RescheduleFailed,
			HarshChurn:         s.Harsh,
		}, algo)
		if err == nil {
			err = wireEconomy(r.g, *s)
		}
	})
	if err != nil {
		return nil, err
	}
	g := r.g

	homes := s.Homes
	if homes <= 0 || homes > s.Scale.Nodes {
		homes = s.Scale.Nodes
	}
	var subs []workload.Submission
	t.do("workload.gen", func() {
		subs, err = workload.Generate(workload.Config{
			Nodes:      homes,
			LoadFactor: s.Scale.LoadFactor,
			Gen:        s.Gen,
			Seed:       stats.SplitSeed(s.Seed, 0x71),
			Arrival:    s.Arrival,
			Trace:      s.Trace,
		})
	})
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	r.subs = len(subs)
	timed := subs[:0:0]
	for _, sub := range subs {
		if sub.SubmitAt > 0 {
			timed = append(timed, sub)
			continue
		}
		t.do("grid.submit", func() { _, err = g.Submit(sub.Home, sub.Workflow) })
		if err != nil {
			return nil, fmt.Errorf("submit: %w", err)
		}
	}
	next := 0
	g.SubmitStream(func() (float64, int, *dag.Workflow, bool) {
		if next >= len(timed) {
			return 0, 0, nil, false
		}
		sub := timed[next]
		next++
		return sub.SubmitAt, sub.Home, sub.Workflow, true
	})

	t.labelEvery("metrics.snapshot")
	r.col.Attach(g, s.Scale.SnapshotHours*3600)
	if s.Churn.DynamicFactor > 0 {
		t.labelEvery("grid.churn")
		if err := g.StartChurn(s.Churn); err != nil {
			return nil, fmt.Errorf("churn: %w", err)
		}
	}
	t.labelEvery("gossip.cycle", "grid.sched_tick")
	t.do("grid.start", g.Start)
	t.labelEvery()
	return r, nil
}

// runParts is the number of equal slices of simulated time the event loop
// runs in, each timed on its own.
const runParts = 24

// run drives the event loop to the horizon, the timed phase, and appends
// the wall time of each of its runParts slices to parts.
func (r *simRun) run(parts []time.Duration) []time.Duration {
	horizon := r.setting.Scale.HorizonHours * 3600
	for i := 1; i <= runParts; i++ {
		deadline := horizon
		if i < runParts {
			deadline = horizon * float64(i) / runParts
		}
		start := time.Now()
		r.host.RunUntil(deadline)
		parts = append(parts, time.Since(start))
	}
	return parts
}

// result reads the run back exactly as experiments.Run reports it.
func (r *simRun) result() experiments.Result {
	avgCap, avgBW := r.g.TrueAverages()
	return experiments.Result{
		Algo:        r.g.Algorithm().Label,
		Setting:     r.setting,
		Collector:   r.col,
		Final:       metrics.Sample(r.g, r.eng.Now()),
		CCR:         workload.EstimateCCR(r.setting.Gen, avgCap, avgBW),
		Submitted:   r.subs,
		Dropped:     r.g.DroppedSubmissions,
		Unsubmitted: r.subs - len(r.g.Workflows) - r.g.DroppedSubmissions,
	}
}

// digest fingerprints a finished run: every collector snapshot, the final
// sample, the submission accounting and the gossip traffic counters.
func (r *simRun) digest() (string, error) {
	res := r.result()
	data, err := json.Marshal(struct {
		Snapshots                       []metrics.Snapshot
		Final                           metrics.Snapshot
		Submitted, Dropped, Unsubmitted int
		Messages, Bytes                 uint64
	}{res.Collector.Snapshots, res.Final, res.Submitted, res.Dropped, res.Unsubmitted,
		r.g.Gossip.MessagesSent, r.g.Gossip.BytesSent})
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	return hashHex(data), nil
}

// wireEconomy installs pricing and SLA contracts the way experiments.Run
// does before any workflow is submitted; with both specs off it does
// nothing.
func wireEconomy(g *grid.Grid, s experiments.Setting) error {
	if !s.Price.Enabled() && !s.SLA.Enabled() {
		return nil
	}
	if err := s.Price.Validate(); err != nil {
		return err
	}
	if err := s.SLA.Validate(); err != nil {
		return err
	}
	if s.SLA.HasBudget() && !s.Price.Enabled() {
		return fmt.Errorf("SLA %q sets budgets but pricing is off", s.SLA)
	}
	if s.Price.Enabled() {
		caps := make([]float64, len(g.Nodes))
		for i := range g.Nodes {
			caps[i] = g.Nodes[i].Capacity
		}
		if err := g.SetPrices(s.Price.Rates(caps, stats.SplitSeed(s.Seed, 0x5C))); err != nil {
			return err
		}
	}
	if s.SLA.Enabled() {
		spec := s.SLA
		minRate := g.MinPrice()
		g.SetSLAAssigner(func(wf *grid.WorkflowInstance) grid.SLA {
			var sla grid.SLA
			if spec.HasDeadline() {
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

func hashHex(data []byte) string {
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}
