// Command wfgen generates workflow DAGs from the paper's Table I parameters
// or the structured scientific families, emitting Graphviz DOT or JSON plus
// an analysis summary (task/edge counts, expected finish time, critical
// path) — or, with -format schedule, an arrival schedule pairing each
// workflow with its virtual submit time under an arrival process, a
// replayed SWF/GWA grid trace, or a fitted workload model.
//
// Workload mining: -fit FILE fits a generative model to a trace and prints
// the versioned model artifact to stdout (goodness-of-fit report on
// stderr); -model FILE synthesizes a schedule from such an artifact.
//
// Usage:
//
//	wfgen [-family random|pipeline|forkjoin|montage|epigenomics]
//	      [-scale N] [-count N] [-seed N] [-format dot|json|summary|schedule]
//	      [-mips M] [-bw B]
//	      [-arrival batch|poisson:R|mmpp:R[:B]|diurnal:R[:P]|trace] [-trace FILE]
//	      [-model FILE]
//	wfgen -fit FILE
//
// Examples:
//
//	wfgen -family montage -scale 6 -format dot | dot -Tpng > montage.png
//	wfgen -family random -count 5 -format summary
//	wfgen -count 20 -format schedule -arrival poisson:120
//	wfgen -format schedule -arrival trace -trace sample
//	wfgen -fit sample > model.json
//	wfgen -format schedule -model model.json -count 100
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/dag"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/workload/arrival"
	"repro/internal/workload/loadspec"
	"repro/internal/workload/mining"
	"repro/internal/workload/traces"
)

func main() {
	os.Exit(cliMain(os.Args[1:], os.Stdout, os.Stderr))
}

// cliMain parses args and generates the requested output, returning the
// process exit code (testable without a subprocess, like cmd/p2pgridsim).
func cliMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wfgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		family  = fs.String("family", "random", "random|pipeline|forkjoin|montage|epigenomics")
		scale   = fs.Int("scale", 5, "family size parameter (stages/width/images/lanes)")
		count   = fs.Int("count", 1, "number of workflows to generate (defaults to the trace length under -arrival trace)")
		seed    = fs.Int64("seed", 1, "random seed")
		format  = fs.String("format", "summary", "dot|json|summary|schedule")
		mips    = fs.Float64("mips", dag.PaperAvgCapacityMIPS, "average node capacity (MIPS) pricing summary estimates")
		bw      = fs.Float64("bw", dag.PaperAvgBandwidthMbs, "average bandwidth (Mb/s) pricing summary estimates")
		arr     = fs.String("arrival", "poisson:60", "arrival process for -format schedule (batch|poisson:R|mmpp:R[:B]|diurnal:R[:P]|trace; rates in workflows/hour)")
		trcPath = fs.String("trace", "", "SWF/GWF trace for -arrival trace (\"sample\" = the bundled demo trace)")
		trscale = fs.Float64("trace-scale", 1, "multiply trace submit times by this factor")
		fit     = fs.String("fit", "", "fit a workload model to this SWF/GWF trace (\"sample\" = bundled demo) and print the artifact")
		model   = fs.String("model", "", "synthesize the -format schedule workload from this fitted model artifact")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "wfgen: unexpected arguments %q\n", fs.Args())
		return 2
	}
	countSet, arrivalSet := false, false
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "count":
			countSet = true
		case "arrival":
			arrivalSet = true
		}
	})
	if *fit != "" {
		// Fit mode emits the model artifact and nothing else; the
		// workload-source flags would contradict it.
		if *model != "" || arrivalSet || *trcPath != "" {
			fmt.Fprintln(stderr, "wfgen: -fit combines with none of -model, -arrival, -trace")
			return 2
		}
		if *trscale != 1 {
			// The trace-scale rule: fit on unscaled times; scale at
			// synthesis (-model ... -trace-scale). See docs/workloads.md.
			fmt.Fprintln(stderr, "wfgen: -trace-scale is ignored at fit time (fit on unscaled times, scale at synthesis)")
		}
		if err := runFit(*fit, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "wfgen:", err)
			return 1
		}
		return 0
	}
	if (arrivalSet || *trcPath != "" || *model != "") && *format != "schedule" {
		// Validation below still runs (a typo must fail), but the flags
		// have no effect outside the schedule format — say so.
		fmt.Fprintf(stderr, "wfgen: -arrival/-trace/-model only affect -format schedule; %q ignores them\n", *format)
	}
	arrival := *arr
	if *model != "" && !arrivalSet {
		// The -arrival default must not collide with -model; only an
		// explicit -arrival is a real conflict (loadspec rejects it).
		arrival = ""
	}
	// Resolve the workload source eagerly: a malformed spec, an unreadable
	// trace or a bad model is a usage error for every format, not only for
	// -format schedule. The resolution rules and error vocabulary live in
	// loadspec, shared with p2pgridsim and the service API.
	synth := 0
	if *model != "" && countSet {
		countSet = false // the synthesized length IS the count
		synth = *count
	}
	sp, err := loadspec.ResolveOptions(loadspec.Options{
		Arrival: arrival, Trace: *trcPath, TraceScale: *trscale,
		Model: *model, Synth: synth, Seed: *seed,
	})
	if err != nil {
		fmt.Fprintln(stderr, "wfgen:", err)
		return 2
	}
	if err := run(genOptions{
		family: *family, scale: *scale, count: *count, countSet: countSet,
		seed: *seed, format: *format, mips: *mips, bw: *bw,
		spec: sp.Arrival, trace: sp.Trace,
	}, stdout); err != nil {
		fmt.Fprintln(stderr, "wfgen:", err)
		return 1
	}
	return 0
}

// runFit loads a trace ("sample" = the bundled demo), fits the workload
// model, prints the artifact to stdout and the human-readable
// goodness-of-fit report to stderr.
func runFit(path string, stdout, stderr io.Writer) error {
	var tr *traces.Trace
	var err error
	if path == "sample" {
		tr = traces.Sample()
	} else if tr, err = traces.Load(path); err != nil {
		return err
	}
	m, err := mining.Fit(tr)
	if err != nil {
		return err
	}
	data, err := mining.Encode(m)
	if err != nil {
		return err
	}
	if _, err := stdout.Write(data); err != nil {
		return err
	}
	fmt.Fprintln(stderr, mining.Report(m))
	return nil
}

type genOptions struct {
	family   string
	scale    int
	count    int
	countSet bool
	seed     int64
	format   string
	mips, bw float64
	spec     arrival.Spec  // the resolved arrival process
	trace    *traces.Trace // the resolved trace, nil without one
}

func run(o genOptions, stdout io.Writer) error {
	switch o.format {
	case "dot", "json", "summary", "schedule":
	default:
		return fmt.Errorf("unknown format %q (dot|json|summary|schedule)", o.format)
	}
	if o.mips <= 0 || o.bw <= 0 {
		return fmt.Errorf("-mips and -bw must be positive, got %v / %v", o.mips, o.bw)
	}
	est := dag.Estimates{AvgCapacityMIPS: o.mips, AvgBandwidthMbs: o.bw}

	spec, tr := o.spec, o.trace

	// Resolve the schedule before generating, so -arrival trace can set
	// the workflow count from the trace length.
	var times []float64
	if o.format == "schedule" {
		if tr != nil {
			spec = tr.ArrivalSpec()
			if !o.countSet {
				o.count = len(spec.Times)
			}
		}
		var err error
		if times, err = spec.Schedule(o.count, stats.SplitSeed(o.seed, 0x35)); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "# arrival schedule: %d workflows, %s, seed %d\n", o.count, spec, o.seed)
		fmt.Fprintf(stdout, "# %10s  %-20s %6s %12s %10s\n", "submit(s)", "name", "tasks", "load(MI)", "eft(s)")
	}

	rng := stats.NewRand(o.seed, 0x17F)
	for i := 0; i < o.count; i++ {
		name := fmt.Sprintf("%s-%d", o.family, i)
		var w *dag.Workflow
		var err error
		if o.family == "random" {
			w, err = dag.Generate(name, dag.DefaultGenConfig(), rng)
		} else {
			w, err = dag.FamilyByName(o.family, name, o.scale, dag.DefaultWeights(rng))
		}
		if err != nil {
			return err
		}
		if o.format == "schedule" && tr != nil {
			// The simulator's replay scaling rule, priced at -mips, so the
			// printed load/eft columns describe what a replay actually runs.
			if w, err = workload.ScaleToTraceJob(w, tr.Jobs[i%len(tr.Jobs)].CPUSeconds(), o.mips); err != nil {
				return err
			}
		}
		switch o.format {
		case "dot":
			fmt.Fprint(stdout, w.DOT())
		case "json":
			data, err := json.MarshalIndent(w, "", "  ")
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, string(data))
		case "summary":
			path, eft := dag.CriticalPath(w, est)
			shape := dag.ShapeOf(w)
			fmt.Fprintf(stdout, "%s: %d tasks, %d edges, total load %.0f MI, eft %.0f s, critical path %d tasks, depth %d, max width %d, parallelism %.1f\n",
				w.Name, w.Len(), w.Edges(), w.TotalLoad(), eft, len(path),
				shape.Depth, shape.MaxWidth, shape.Parallelism)
		case "schedule":
			_, eft := dag.CriticalPath(w, est)
			fmt.Fprintf(stdout, "%12.1f  %-20s %6d %12.0f %10.0f\n",
				times[i], w.Name, w.Len(), w.TotalLoad(), eft)
		}
	}
	return nil
}
