// Package workload generates the experimental workloads of Table I: every
// node receives loadFactor workflows drawn from the random DAG generator,
// with the per-experiment load/data ranges that control the communication-
// to-computation ratio (CCR). Beyond the paper's batch load, a Config may
// carry an arrival process (Poisson, bursty MMPP, diurnal — see
// internal/workload/arrival) that spreads the submissions over virtual
// time, or replay a parsed grid trace (internal/workload/traces) whose
// jobs are mapped onto Table I DAGs by the scaling rule documented on
// Generate.
package workload

import (
	"fmt"
	"strconv"

	"repro/internal/dag"
	"repro/internal/stats"
	"repro/internal/workload/arrival"
	"repro/internal/workload/traces"
)

// Config describes one experiment's workload.
type Config struct {
	Nodes      int
	LoadFactor int // workflows submitted per node ("average load factor")
	Gen        dag.GenConfig
	Seed       int64

	// Arrival spreads the submissions over virtual time. The zero value
	// is the paper's batch load (everything at t=0) and consumes no
	// randomness, so pre-arrival workloads are bit-identical.
	Arrival arrival.Spec

	// Trace, when non-empty, switches to trace replay: one workflow per
	// trace job (Nodes*LoadFactor is ignored), submitted at the job's
	// recorded offset from a home node drawn uniformly from [0, Nodes).
	// Arrival is ignored in trace mode — the trace IS the schedule.
	Trace []traces.Job
}

// Submission pairs a workflow with its home node and its virtual submit
// time (seconds; 0 = present at the start of the run, the batch default).
type Submission struct {
	Home     int
	SubmitAt float64
	Workflow *dag.Workflow
}

// Generate draws the workload of cfg.
//
// Batch/synthetic mode draws LoadFactor workflows for each of Nodes home
// nodes exactly as before — the generator stream is untouched by the
// arrival process, which draws its submit times from an independent
// derived stream (so the batch default remains bit-identical to the
// pre-arrival workload generator).
//
// Trace mode (cfg.Trace non-empty) replays a parsed grid trace with the
// scaling rule: each trace job becomes one Table I DAG whose task loads
// are uniformly rescaled so the DAG's total computational amount equals
// the job's recorded work priced at the paper's average node capacity —
// totalMI = runtime_s x procs x 6.2 (ScaleToTraceJob) — preserving each
// job's relative weight while keeping the paper's DAG shapes, image sizes
// and data volumes. Submit times are the trace's normalized offsets; homes
// are drawn uniformly per job from an independent stream.
func Generate(cfg Config) ([]Submission, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("workload: need positive node count, got %d", cfg.Nodes)
	}
	if len(cfg.Trace) > 0 {
		return generateTrace(cfg)
	}
	if cfg.LoadFactor <= 0 {
		return nil, fmt.Errorf("workload: need positive load factor, got %d", cfg.LoadFactor)
	}
	rng := stats.NewRand(cfg.Seed, 0x33)
	subs := make([]Submission, 0, cfg.Nodes*cfg.LoadFactor)
	var name []byte
	for home := 0; home < cfg.Nodes; home++ {
		for j := 0; j < cfg.LoadFactor; j++ {
			name = strconv.AppendInt(append(name[:0], "wf-"...), int64(home), 10)
			name = strconv.AppendInt(append(name, '-'), int64(j), 10)
			w, err := dag.Generate(string(name), cfg.Gen, rng)
			if err != nil {
				return nil, err
			}
			subs = append(subs, Submission{Home: home, Workflow: w})
		}
	}
	times, err := cfg.Arrival.Schedule(len(subs), stats.SplitSeed(cfg.Seed, 0x35))
	if err != nil {
		return nil, fmt.Errorf("workload: arrival schedule: %w", err)
	}
	for i := range subs {
		subs[i].SubmitAt = times[i]
	}
	return subs, nil
}

// ScaleToTraceJob is the trace scaling rule: it returns w with every task
// load multiplied by one factor, so that the total is cpuSeconds x mips,
// a trace job's recorded work (runtime x procs) priced at mips MIPS. A
// workflow without load is returned as it is.
func ScaleToTraceJob(w *dag.Workflow, cpuSeconds, mips float64) (*dag.Workflow, error) {
	if total := w.TotalLoad(); total > 0 {
		return w.ScaleLoads(cpuSeconds * mips / total)
	}
	return w, nil
}

// generateTrace implements trace-replay mode; see Generate for the rule.
func generateTrace(cfg Config) ([]Submission, error) {
	rng := stats.NewRand(cfg.Seed, 0x33)
	homeRng := stats.NewRand(cfg.Seed, 0x36)
	subs := make([]Submission, 0, len(cfg.Trace))
	prev := 0.0
	for i, job := range cfg.Trace {
		if job.Runtime <= 0 || job.Procs <= 0 {
			return nil, fmt.Errorf("workload: trace job %d has runtime %v, procs %d (parse should have skipped it)",
				i, job.Runtime, job.Procs)
		}
		if job.Submit < prev {
			return nil, fmt.Errorf("workload: trace submit times decrease at job %d", i)
		}
		prev = job.Submit
		w, err := dag.Generate("tr-"+strconv.Itoa(i), cfg.Gen, rng)
		if err != nil {
			return nil, err
		}
		if w, err = ScaleToTraceJob(w, job.CPUSeconds(), dag.PaperAvgCapacityMIPS); err != nil {
			return nil, fmt.Errorf("workload: trace job %d: %w", i, err)
		}
		subs = append(subs, Submission{
			Home:     homeRng.Intn(cfg.Nodes),
			SubmitAt: job.Submit,
			Workflow: w,
		})
	}
	return subs, nil
}

// CCRScenario builds a generator config with the given task-load and
// edge-data ranges, keeping the other Table I parameters. The four
// scenarios of Figs. 9-10 are (10-1000, 10-1000), (10-1000, 100-10000),
// (100-10000, 10-1000) and (100-10000, 100-10000).
func CCRScenario(loadMI, dataMb stats.Range) dag.GenConfig {
	g := dag.DefaultGenConfig()
	g.LoadMI = loadMI
	g.DataMb = dataMb
	return g
}

// EstimateCCR predicts the communication-to-computation ratio of a
// generator config under the given average capacity and bandwidth:
// (average transfer time) / (average execution time). With the paper's
// averages (capacity 6.2 MIPS, bandwidth around 5 Mb/s), the headline
// setting (load 100-10000 MI, data 10-1000 Mb) gives roughly 0.12-0.16 and
// the heavy-data variant (data 100-10000 Mb) roughly 1.2-1.6, matching the
// CCR values quoted in Section IV.
func EstimateCCR(gen dag.GenConfig, avgCapacityMIPS, avgBandwidthMbs float64) float64 {
	if avgCapacityMIPS <= 0 || avgBandwidthMbs <= 0 {
		return 0
	}
	avgExec := gen.LoadMI.Mid() / avgCapacityMIPS
	avgXfer := gen.DataMb.Mid() / avgBandwidthMbs
	if avgExec == 0 {
		return 0
	}
	return avgXfer / avgExec
}
