// Command p2pgridsim regenerates the tables and figures of "Dual-Phase
// Just-in-Time Workflow Scheduling in P2P Grid Systems" (Di & Wang, ICPP
// 2010) as text tables/series.
//
// Usage:
//
//	p2pgridsim -experiment <name> [-scale paper|small|tiny] [-seed N] [-reps N]
//
// Experiments:
//
//	table1        print Table I (experimental setting)
//	single        one run of -algo (default DSMF): the unit of every sweep,
//	              handy with -cpuprofile/-memprofile for scale checks
//	fig3          the worked two-workflow example (RPMs, scheduling orders)
//	fig4-6        static comparison of the eight algorithms (three figures);
//	              -reps N>1 replicates it over N seeds and adds error bars
//	fcfs          Section IV.B second-phase-vs-FCFS ablation (-reps N>1
//	              reports mean ± 95% CI over N seeds)
//	fig7-8        load factor sweep (ACT and AE tables; -reps adds ± CI)
//	fig9-10       CCR sweep (ACT and AE tables; -reps adds ± CI)
//	fig11         scalability sweep of DSMF over system sizes (gossip space
//	              bound, AE, ACT): the -axes scale sweep; -reps adds ± CI
//	arrival       ACT/AE vs arrival intensity (Poisson ladder up to the
//	              batch endpoint, 95% CIs with -reps > 1); -trace FILE
//	              adds a trace-replay column ("sample" = bundled trace)
//	sla           deadline-miss rate and spend per workflow across a
//	              deadline ladder: the DBC-cost optimizer against the
//	              best-effort DSMF baseline (95% CIs with -reps > 1)
//	fig12-14      churn sweep (throughput/ACT/AE series per dynamic factor;
//	              -reps N>1 replicates it over N seeds and adds error bars)
//	reschedule    churn with the failed-task rescheduling extension
//	oracle        DSMF information ablation (gossip vs oracle views)
//	planners      full-ahead planner shootout (HEFT/HEFT-ins/LAHEFT/CPOP/SMF)
//	churn-model   graceful vs maximal-loss churn semantics ablation
//	families      DSMF on structured workflow families
//	report        markdown reproduction report with live shape checks
//	sweep         multi-seed scenario sweep: -axes picks the scenario axes,
//	              -reps the replications, -out the JSON destination
//	all           every experiment above except single, arrival, sla, report
//	              and sweep, in sequence
//
// Workloads need not arrive in one batch: -arrival attaches an arrival
// process (poisson:RATE, mmpp:RATE[:BURST], diurnal:RATE[:PERIODH], rates
// in workflows/hour) to single runs and sweep cells, and -trace FILE
// replays an SWF/GWA grid trace (submit times and job sizes mapped onto
// Table I DAGs; see internal/workload/traces).
//
// Runs can also be economic: -price RATE[:SPREAD] prices every node
// (capacity-proportional per-MI rates with an optional random spread) and
// -sla SPEC (deadline:F | budget:F | both:DF:BF) attaches deadline and/or
// budget contracts to every workflow of a single run or sweep cell. The
// DBC-cost / DBC-time / DBC-ct algorithms (usable with -experiment single
// -algo) schedule against those contracts; everything else runs
// best-effort and merely gets measured against them (deadline-miss and
// spend metrics appear in snapshots and sweep JSON whenever the economy
// is active; see internal/economy).
//
// The sweep experiment expands a declarative scenario matrix (axes from
// -axes: algo, churn, lf, ccr, scale, arrival, sla), replicates every cell over -reps
// independent seeds, and emits deterministic JSON with mean / stddev / 95%
// CI per (scenario, algorithm) cell: the same invocation produces
// byte-identical output. Progress streams to stderr. The matrix executes
// on the streaming runner, which drops per-run state as cells finalize, so
// peak memory does not grow with -reps. Additional sweep modes:
//
//	-shard i/n    run only shard i of n (a [lo,hi) range of the canonical
//	              job enumeration) and emit a mergeable partial result —
//	              the static distributed-sweep building block
//	-merge a,b    reassemble shard files into the full sweep JSON,
//	              byte-identical to a single-host run (no simulation)
//	-coordinate DIR
//	              run the sweep through a shared work-stealing directory:
//	              initialize DIR (one claimable work unit per cell, lease
//	              TTL from -lease-ttl), participate as a worker until the
//	              directory drains, then merge the per-cell partials into
//	              the full sweep JSON — byte-identical to a single-host
//	              run. Point any number of `p2pgridsim -worker DIR`
//	              processes (other machines included, via a shared
//	              filesystem) at the same DIR to drain it faster; crashed
//	              workers' cells are re-leased automatically
//	-cache DIR    warm-start cell cache: re-runs execute only the cells
//	              (or added replications) missing from DIR
//	-precision r  per-cell adaptive replication: each cell draws seeds
//	              (3, 6, 12, ...) until its ACT 95% CI half-width is under
//	              r x |mean|, stopping converged cells while noisy ones
//	              keep sampling. -reps caps every cell when given
//	              explicitly; without it cells run until they converge.
//	              The JSON records ragged per-cell rep counts
//	-cache-gc     trim the -cache directory instead of running anything:
//	              drop entries beyond -cache-budget MB or older than
//	              -cache-days days, oldest access first
//
// Worker mode runs no experiment of its own:
//
//	p2pgridsim -worker DIR [-cache DIR] [-sleep-per-job D]
//
// joins the sweep whose work directory is DIR (created by -coordinate):
// claim a cell, run its replications, publish its partial, repeat —
// stealing cells from expired leases — until the directory drains.
// -sleep-per-job inserts an artificial delay before every replication (a
// test hook that makes this worker slow enough to be stolen from).
//
// With -artifacts DIR, series experiments additionally write
// <figure>.csv/.dat/.gp files (gnuplot redraws the paper-style plots;
// replicated series carry yerrorlines error bars), and sweep writes
// sweep.json/sweep.csv.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/economy"
	"repro/internal/experiments"
	"repro/internal/experiments/executor"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload/arrival"
	"repro/internal/workload/loadspec"
	"repro/internal/workload/traces"
)

func main() {
	os.Exit(cliMain(os.Args[1:], os.Stdout, os.Stderr))
}

// options carries the parsed command line; stdout/stderr indirection keeps
// every error path testable without spawning a subprocess.
type options struct {
	experiment string
	scale      experiments.Scale
	seed       int64
	algo       string
	maxLF      int
	reps       int
	repsSet    bool // -reps given explicitly (-precision caps cells only then)
	axes       string
	out        string
	artifacts  string
	shard      string  // "i/n": run only one job-ID shard of the sweep
	merge      string  // comma-separated shard files to merge (no simulation)
	cacheDir   string  // warm-start cell cache directory
	precision  float64 // adaptive replication target (0 = off)
	coordinate string  // work-stealing coordinator directory for the sweep
	worker     string  // drain an existing work directory instead of running an experiment

	sleepPerJob time.Duration // artificial per-replication delay (worker test hook)
	leaseTTL    time.Duration // work-unit lease expiry recorded at -coordinate init

	arrival    string  // arrival process (batch|poisson:R|mmpp:R[:B]|diurnal:R[:P]|trace)
	tracePath  string  // SWF trace file ("sample" = the bundled demo trace)
	traceScale float64 // submit-time multiplier compressing/stretching the trace
	model      string  // fitted workload-model artifact (wfgen -fit output)
	synth      int     // -model synthesis job count (0 = the model's fitted count)

	sla   string // SLA contract spec (none|deadline:F|budget:F|both:DF:BF)
	price string // pricing model (none|RATE[:SPREAD])

	cacheGC     bool    // run a cache GC pass instead of an experiment
	cacheBudget int64   // GC size budget in MB (0 = no size bound)
	cacheDays   float64 // GC max entry age in days (0 = no age bound)

	shards int // gossip-cycle workers per simulation (<= 1: serial cycle)

	serve       string  // run the scheduler daemon on this address instead of an experiment
	pace        float64 // -serve wall-clock pacing (virtual s per wall s; 0 = virtual clock)
	maxInFlight int     // -serve admission bound on unfinished workflows

	traceOut  string // write the single run's Chrome trace-event JSON here
	gantt     bool   // print an ASCII Gantt chart after -experiment single
	obs       bool   // collect per-cell latency histograms in the sweep JSON
	logLevel  string // structured log level for -serve/-worker/-coordinate
	logFormat string // structured log format (text|json)
	pprofOn   bool   // expose /debug/pprof on the -serve daemon

	stdout, stderr io.Writer
}

// economySetup resolves the -sla/-price flags into the specs experiments
// consume, enforcing the cross-flag rule the specs cannot see alone:
// budgets are denominated in money, so an SLA with a budget side needs
// pricing to be on.
func (o options) economySetup() (economy.SLASpec, economy.PriceSpec, error) {
	sla, err := economy.ParseSLA(o.sla)
	if err != nil {
		return economy.SLASpec{}, economy.PriceSpec{}, err
	}
	price, err := economy.ParsePrice(o.price)
	if err != nil {
		return economy.SLASpec{}, economy.PriceSpec{}, err
	}
	if sla.HasBudget() && !price.Enabled() {
		return economy.SLASpec{}, economy.PriceSpec{}, fmt.Errorf("-sla %q sets budgets, which need pricing: add -price RATE[:SPREAD]", o.sla)
	}
	return sla, price, nil
}

// arrivalSetup resolves the -arrival/-trace/-model flags into the pieces
// experiments consume: a parsed arrival spec and/or a loaded trace.
// "-trace sample" (or "-arrival trace" alone) selects the bundled demo
// trace, anything else is an SWF file path; -model synthesizes a trace
// from a fitted workload model (wfgen -fit) under the run seed. The
// resolution rules and error vocabulary live in loadspec, shared with
// wfgen and the service API.
func (o options) arrivalSetup() (arrival.Spec, *traces.Trace, error) {
	sp, err := loadspec.ResolveOptions(loadspec.Options{
		Arrival: o.arrival, Trace: o.tracePath, TraceScale: o.traceScale,
		Model: o.model, Synth: o.synth, Seed: o.seed,
	})
	if err != nil {
		return arrival.Spec{}, nil, err
	}
	return sp.Arrival, sp.Trace, nil
}

// serveFlags are the flags that combine with -serve. The -serve help text
// and the rejection of any other flag both read this one list.
var serveFlags = map[string]bool{
	"scale": true, "algo": true, "seed": true, "shards": true, "price": true,
	"pace": true, "max-inflight": true,
	"log-level": true, "log-format": true, "pprof": true,
}

// flagList renders a flag set as "-a, -b, -c" in sorted order.
func flagList(flags map[string]bool) string {
	names := make([]string, 0, len(flags))
	for f := range flags {
		names = append(names, "-"+f)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// cliMain parses args and runs the selected experiment, returning the
// process exit code. Every failure path returns non-zero: flag errors and
// stray positional arguments exit 2, experiment errors exit 1.
func cliMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("p2pgridsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("experiment", "fig4-6", "experiment to run (see package doc)")
		scale   = fs.String("scale", "small", "paper|small|tiny")
		seed    = fs.Int64("seed", 2010, "root random seed")
		algo    = fs.String("algo", "DSMF", "algorithm for -experiment single")
		maxLF   = fs.Int("maxlf", 8, "largest load factor for fig7-8 and the sweep lf axis")
		reps    = fs.Int("reps", 1, "seed replications for fig4-6, fcfs, fig7-8, fig9-10, fig11, arrival, sla, fig12-14, reschedule and sweep (error bars need > 1)")
		axes    = fs.String("axes", "algo", "comma-separated sweep axes: algo,churn,lf,ccr,scale,arrival,sla")
		out     = fs.String("out", "", "write sweep JSON to this file (default: stdout)")
		shard   = fs.String("shard", "", "run only shard i/n of the sweep job matrix (e.g. 0/2) and emit a mergeable partial result")
		merge   = fs.String("merge", "", "comma-separated shard JSON files to merge into the full sweep result (no simulation)")
		coord   = fs.String("coordinate", "", "run the sweep through this shared work-stealing directory: init, participate as a worker, then merge (see package doc)")
		work    = fs.String("worker", "", "drain the sweep work directory DIR (created by -coordinate) instead of running an experiment")
		slpj    = fs.Duration("sleep-per-job", 0, "worker test hook: sleep this long before every replication (makes the worker slow enough to be stolen from)")
		lttl    = fs.Duration("lease-ttl", 2*time.Minute, "work-unit lease expiry recorded when -coordinate initializes a directory; workers heartbeat between replications, so set it comfortably above the longest single replication (crashed or wedged workers' cells are re-leased and re-run after this long without progress)")
		cache   = fs.String("cache", "", "warm-start cell cache directory: re-runs execute only cells missing from it")
		prec    = fs.Float64("precision", 0, "per-cell adaptive replication: each cell draws seeds until its ACT 95% CI half-width is under this fraction of its mean (an explicit -reps caps every cell)")
		arr     = fs.String("arrival", "", "arrival process for single/sweep cells: batch|poisson:RATE|mmpp:RATE[:BURST]|diurnal:RATE[:PERIODH]|trace (rates in workflows/hour)")
		slaF    = fs.String("sla", "", "SLA contract for single/sweep cells: none|deadline:FACTOR|budget:FACTOR|both:DF:BF (factors scale the critical path / cheapest-feasible cost)")
		priceF  = fs.String("price", "", "pricing model for single/sweep cells and -serve: none|RATE[:SPREAD] (capacity-proportional per-MI rates, ±SPREAD jitter)")
		trc     = fs.String("trace", "", "SWF/GWF trace file for trace replay (\"sample\" = the bundled demo trace)")
		trscale = fs.Float64("trace-scale", 1, "multiply trace submit times by this factor (compress a multi-day trace into the horizon)")
		modelF  = fs.String("model", "", "synthesize the workload from this fitted model artifact (wfgen -fit output); replaces -arrival/-trace")
		synthF  = fs.Int("synth", 0, "number of jobs to synthesize from -model (0 = the model's fitted count)")
		cgc     = fs.Bool("cache-gc", false, "garbage-collect the -cache directory (needs -cache-budget and/or -cache-days) and exit")
		cbudget = fs.Int64("cache-budget", 0, "cache GC size budget in MB, oldest-access entries dropped first (0 = no size bound)")
		cdays   = fs.Float64("cache-days", 0, "cache GC max entry age in days (0 = no age bound)")
		shards  = fs.Int("shards", 1, "parallel workers for each gossip cycle of a simulation (bit-identical results at any value)")
		serve   = fs.String("serve", "", "run as a long-lived scheduler daemon on this address (e.g. :8080) exposing the versioned /v1 HTTP API; combines only with "+flagList(serveFlags))
		pace    = fs.Float64("pace", 0, "wall-clock pacing for -serve: virtual seconds advanced per wall second (0 = deterministic virtual clock, advanced only via POST /v1/clock/advance)")
		maxInf  = fs.Int("max-inflight", 256, "admission bound for -serve: submissions beyond this many unfinished workflows are shed with 429 + Retry-After")
		arts    = fs.String("artifacts", "", "directory for CSV/DAT/gnuplot artifacts (series experiments, sweep)")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = fs.String("memprofile", "", "write a heap profile to this file on exit")
		tout    = fs.String("trace-out", "", "write the run's span timeline as Chrome trace-event JSON to this file (-experiment single; load it in Perfetto or chrome://tracing)")
		gantt   = fs.Bool("gantt", false, "print an ASCII Gantt chart of per-node activity after -experiment single")
		obsF    = fs.Bool("obs", false, "collect virtual-time latency histograms per sweep cell and embed distribution summaries in the sweep JSON (plain single-host sweeps; not -shard/-merge/-coordinate/-precision/-cache)")
		logLvl  = fs.String("log-level", "", "structured log level for -serve/-worker/-coordinate: debug|info|warn|error (default info)")
		logFmt  = fs.String("log-format", "", "structured log format for -serve/-worker/-coordinate: text|json (default text)")
		pprofF  = fs.Bool("pprof", false, "expose /debug/pprof profiling handlers on the -serve daemon (off: those paths 404)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "p2pgridsim: unexpected arguments %q (did you mean -experiment %s?)\n",
			fs.Args(), fs.Arg(0))
		return 2
	}
	repsSet, sleepSet, ttlSet, paceSet, maxInfSet := false, false, false, false, false
	var setFlags []string
	fs.Visit(func(f *flag.Flag) {
		setFlags = append(setFlags, f.Name)
		switch f.Name {
		case "algo":
			if *name != "single" && *work == "" && *serve == "" {
				fmt.Fprintf(stderr, "p2pgridsim: -algo only applies to -experiment single; %q runs its fixed algorithm set\n", *name)
			}
		case "reps":
			repsSet = true
		case "sleep-per-job":
			sleepSet = true
		case "lease-ttl":
			ttlSet = true
		case "pace":
			paceSet = true
		case "max-inflight":
			maxInfSet = true
		}
	})
	if *work != "" {
		// Worker mode reads everything (spec, scale, reps, TTL) from the
		// work directory; an experiment flag alongside -worker would be
		// silently discarded, so reject the combination loudly.
		allowed := map[string]bool{
			"worker": true, "sleep-per-job": true, "cache": true,
			"log-level": true, "log-format": true,
		}
		for _, f := range setFlags {
			if !allowed[f] {
				fmt.Fprintf(stderr, "p2pgridsim: -%s does not combine with -worker (workers take their entire configuration from the work directory; only -cache, -sleep-per-job and -log-level/-log-format apply)\n", f)
				return 2
			}
		}
	}
	if sleepSet && *work == "" && *coord == "" {
		fmt.Fprintln(stderr, "p2pgridsim: -sleep-per-job only applies to -worker or -coordinate")
		return 2
	}
	if ttlSet && *coord == "" {
		fmt.Fprintln(stderr, "p2pgridsim: -lease-ttl only applies to -coordinate (workers read the TTL from the work directory)")
		return 2
	}
	if *work != "" && *coord != "" {
		fmt.Fprintln(stderr, "p2pgridsim: -worker and -coordinate are exclusive (the coordinator already participates as a worker)")
		return 2
	}
	if *serve != "" {
		// Service mode runs one grid forever; batch-experiment flags have
		// nothing to configure there, so reject them loudly instead of
		// silently ignoring them.
		for _, f := range setFlags {
			if f != "serve" && !serveFlags[f] {
				fmt.Fprintf(stderr, "p2pgridsim: -%s does not combine with -serve (the daemon takes %s; workloads arrive over the HTTP API)\n", f, flagList(serveFlags))
				return 2
			}
		}
		if *pace < 0 {
			fmt.Fprintf(stderr, "p2pgridsim: -pace must be non-negative, got %v\n", *pace)
			return 2
		}
		if *maxInf < 1 {
			fmt.Fprintf(stderr, "p2pgridsim: -max-inflight must be at least 1, got %d\n", *maxInf)
			return 2
		}
	} else if paceSet || maxInfSet {
		fmt.Fprintln(stderr, "p2pgridsim: -pace and -max-inflight only apply to -serve")
		return 2
	}
	if *lttl <= 0 {
		fmt.Fprintf(stderr, "p2pgridsim: -lease-ttl must be positive, got %v\n", *lttl)
		return 2
	}
	if *slpj < 0 {
		fmt.Fprintf(stderr, "p2pgridsim: -sleep-per-job must be non-negative, got %v\n", *slpj)
		return 2
	}
	if *reps < 1 {
		fmt.Fprintf(stderr, "p2pgridsim: -reps must be at least 1, got %d\n", *reps)
		return 2
	}
	if (*tout != "" || *gantt) && (*name != "single" || *serve != "" || *work != "") {
		fmt.Fprintln(stderr, "p2pgridsim: -trace-out and -gantt only apply to -experiment single (the daemon serves spans via GET /v1/workflows/{id}/trace)")
		return 2
	}
	if *obsF && *name != "sweep" {
		fmt.Fprintln(stderr, "p2pgridsim: -obs only applies to -experiment sweep")
		return 2
	}
	if *logLvl != "" || *logFmt != "" {
		if *serve == "" && *work == "" && *coord == "" {
			fmt.Fprintln(stderr, "p2pgridsim: -log-level and -log-format only apply to -serve, -worker and -coordinate")
			return 2
		}
		// Validate eagerly so a typo fails before any work starts.
		if _, err := obs.NewLogger(io.Discard, *logLvl, *logFmt); err != nil {
			fmt.Fprintln(stderr, "p2pgridsim:", err)
			return 2
		}
	}
	if *pprofF && *serve == "" {
		fmt.Fprintln(stderr, "p2pgridsim: -pprof only applies to -serve")
		return 2
	}

	sc, err := experiments.ScaleByName(*scale)
	if err != nil {
		fmt.Fprintln(stderr, "p2pgridsim:", err)
		return 1
	}
	o := options{
		experiment:  *name,
		scale:       sc,
		seed:        *seed,
		algo:        *algo,
		maxLF:       *maxLF,
		reps:        *reps,
		repsSet:     repsSet,
		axes:        *axes,
		out:         *out,
		artifacts:   *arts,
		shard:       *shard,
		merge:       *merge,
		cacheDir:    *cache,
		precision:   *prec,
		coordinate:  *coord,
		worker:      *work,
		sleepPerJob: *slpj,
		leaseTTL:    *lttl,
		arrival:     *arr,
		tracePath:   *trc,
		traceScale:  *trscale,
		model:       *modelF,
		synth:       *synthF,
		sla:         *slaF,
		price:       *priceF,
		cacheGC:     *cgc,
		cacheBudget: *cbudget,
		cacheDays:   *cdays,
		shards:      *shards,
		serve:       *serve,
		pace:        *pace,
		maxInFlight: *maxInf,
		traceOut:    *tout,
		gantt:       *gantt,
		obs:         *obsF,
		logLevel:    *logLvl,
		logFormat:   *logFmt,
		pprofOn:     *pprofF,
		stdout:      stdout,
		stderr:      stderr,
	}
	if o.serve != "" {
		if err := runServe(o); err != nil {
			fmt.Fprintln(stderr, "p2pgridsim:", err)
			return 1
		}
		return 0
	}
	if o.cacheGC {
		if err := runCacheGC(o); err != nil {
			fmt.Fprintln(stderr, "p2pgridsim:", err)
			return 1
		}
		return 0
	}
	if o.worker != "" {
		if err := runWorker(o); err != nil {
			fmt.Fprintln(stderr, "p2pgridsim:", err)
			return 1
		}
		return 0
	}
	if o.arrival != "" || o.tracePath != "" || (o.traceScale != 0 && o.traceScale != 1) || o.model != "" || o.synth != 0 {
		// Validate eagerly: a malformed spec, unreadable trace or bad
		// model must fail even when the selected experiment would never
		// consume it.
		if _, _, err := o.arrivalSetup(); err != nil {
			fmt.Fprintln(stderr, "p2pgridsim:", err)
			return 2
		}
		if e := lookupExperiment(o.experiment); e == nil || !e.arrival {
			fmt.Fprintf(stderr, "p2pgridsim: -arrival/-trace/-model only apply to %s; %q runs the batch workload\n",
				experimentsWhere(func(e experiment) bool { return e.arrival }), o.experiment)
		}
	}
	if o.sla != "" || o.price != "" {
		// Same eager-validation rule as -arrival: a malformed spec must fail
		// even when the selected experiment would never consume it.
		if _, _, err := o.economySetup(); err != nil {
			fmt.Fprintln(stderr, "p2pgridsim:", err)
			return 2
		}
		if e := lookupExperiment(o.experiment); e == nil || !e.economy {
			fmt.Fprintf(stderr, "p2pgridsim: -sla/-price only apply to %s; %q runs without contracts\n",
				experimentsWhere(func(e experiment) bool { return e.economy }), o.experiment)
		}
	}
	// run (not cliMain) owns the profile lifecycles so they close properly
	// on error paths too.
	if err := run(o, *cpuProf, *memProf); err != nil {
		fmt.Fprintln(stderr, "p2pgridsim:", err)
		return 1
	}
	return 0
}

func run(o options, cpuProf, memProf string) error {
	if cpuProf != "" {
		f, err := os.Create(cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	start := time.Now()
	dispatchErr := dispatch(o)
	if dispatchErr == nil {
		fmt.Fprintf(o.stderr, "done in %v\n", time.Since(start).Round(time.Millisecond))
	}
	if memProf != "" {
		// Written even when dispatch failed: a heap snapshot of the errored
		// run is exactly what the flag exists to capture.
		if err := writeHeapProfile(memProf); err != nil {
			if dispatchErr == nil {
				return err
			}
			// The dispatch error takes precedence, but the missing profile
			// must not go unnoticed.
			fmt.Fprintln(o.stderr, "p2pgridsim: heap profile not written:", err)
		}
	}
	return dispatchErr
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // up-to-date live-heap statistics
	return pprof.WriteHeapProfile(f)
}

func (o options) exportSeries(sets ...experiments.SeriesSet) error {
	if o.artifacts == "" {
		return nil
	}
	for i, set := range sets {
		name := fmt.Sprintf("series%d", i)
		if len(set.Title) > 7 {
			name = strings.ToLower(strings.ReplaceAll(strings.Fields(set.Title)[1], ":", ""))
			name = "fig" + strings.TrimSuffix(name, ".")
		}
		files, err := set.WriteArtifacts(o.artifacts, name)
		if err != nil {
			return err
		}
		fmt.Fprintf(o.stderr, "wrote %v\n", files)
	}
	return nil
}

// experiment is one -experiment mode. arrival and economy mark the modes
// that consume -arrival/-trace/-model and -sla/-price; inAll marks the
// modes -experiment all runs, in table order.
type experiment struct {
	name             string
	run              func(options) error
	inAll            bool
	arrival, economy bool
}

// experimentTable is every -experiment mode except "all", which runs the
// inAll entries in sequence. Table order is also the order in which the
// -arrival and -sla warnings list the modes that take those flags.
var experimentTable = []experiment{
	{name: "table1", inAll: true, run: func(o options) error {
		return o.printTable(experiments.TableI(), nil)
	}},
	{name: "single", arrival: true, economy: true, run: runSingle},
	{name: "sweep", arrival: true, economy: true, run: runSweep},
	{name: "fig3", inAll: true, run: func(o options) error {
		fmt.Fprintln(o.stdout, experiments.Fig3Report())
		return nil
	}},
	{name: "fig4-6", inAll: true, run: runStatic},
	{name: "fcfs", inAll: true, run: func(o options) error {
		table, _, err := experiments.FCFSAblation(o.scale, o.seed, o.reps)
		return o.printTable(table, err)
	}},
	{name: "fig7-8", inAll: true, run: func(o options) error {
		return o.printTables(experiments.LoadFactorSweepRep(o.scale, o.seed, o.maxLF, o.reps))
	}},
	{name: "fig9-10", inAll: true, run: func(o options) error {
		return o.printTables(experiments.CCRSweepRep(o.scale, o.seed, o.reps))
	}},
	{name: "fig11", inAll: true, run: func(o options) error {
		res, err := experiments.ScalabilitySweep(o.scale, o.seed, o.reps)
		if err != nil {
			return err
		}
		return o.printTable(experiments.ScalabilityTable(res), nil)
	}},
	{name: "arrival", arrival: true, run: runArrival},
	{name: "sla", run: runSLA},
	{name: "fig12-14", inAll: true, run: func(o options) error { return runChurn(o, false) }},
	{name: "reschedule", inAll: true, run: func(o options) error { return runChurn(o, true) }},
	{name: "oracle", inAll: true, run: func(o options) error {
		return o.printTable(experiments.OracleAblation(o.scale, o.seed))
	}},
	{name: "planners", inAll: true, run: func(o options) error {
		return o.printTable(experiments.PlannerShootout(o.scale, o.seed))
	}},
	{name: "churn-model", inAll: true, run: func(o options) error {
		return o.printTable(experiments.ChurnModelAblation(o.scale, o.seed, 0.2))
	}},
	{name: "families", inAll: true, run: func(o options) error {
		return o.printTable(experiments.FamilyComparison(o.scale, o.seed))
	}},
	{name: "report", run: func(o options) error {
		out, err := experiments.Report(o.scale, o.seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(o.stdout, out)
		return nil
	}},
}

// lookupExperiment returns the table entry named name, or nil.
func lookupExperiment(name string) *experiment {
	for i := range experimentTable {
		if experimentTable[i].name == name {
			return &experimentTable[i]
		}
	}
	return nil
}

// experimentsWhere lists the names of the entries keep selects, in table
// order, as "a, b and c".
func experimentsWhere(keep func(experiment) bool) string {
	var names []string
	for _, e := range experimentTable {
		if keep(e) {
			names = append(names, e.name)
		}
	}
	if len(names) < 2 {
		return strings.Join(names, "")
	}
	return strings.Join(names[:len(names)-1], ", ") + " and " + names[len(names)-1]
}

func dispatch(o options) error {
	if o.experiment == "all" {
		for _, e := range experimentTable {
			if !e.inAll {
				continue
			}
			fmt.Fprintf(o.stdout, "==== %s ====\n", e.name)
			if err := e.run(o); err != nil {
				return err
			}
		}
		return nil
	}
	e := lookupExperiment(o.experiment)
	if e == nil {
		return fmt.Errorf("unknown experiment %q", o.experiment)
	}
	return e.run(o)
}

// printTable writes t and a blank line to stdout, or returns err. Its
// parameters match a one-table experiment runner's results, so
// o.printTable(runner(...)) prints whatever the runner returns.
func (o options) printTable(t experiments.Table, err error) error {
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(o.stdout, t.Format())
	return err
}

// printTables is printTable for the runners that return two tables.
func (o options) printTables(a, b experiments.Table, err error) error {
	if err := o.printTable(a, err); err != nil {
		return err
	}
	return o.printTable(b, nil)
}

// runSingle runs one simulation of -algo and prints its snapshot series,
// plus the SLA summary, Gantt chart or Chrome trace when asked.
func runSingle(o options) error {
	stdout := o.stdout
	aspec, tr, err := o.arrivalSetup()
	if err != nil {
		return err
	}
	setting := experiments.NewSetting(o.scale, o.seed)
	setting.Arrival = aspec
	if tr != nil {
		setting.Trace = tr.Jobs
	}
	setting.SLA, setting.Price, err = o.economySetup()
	if err != nil {
		return err
	}
	setting.Shards = o.shards
	var tb *trace.Buffer
	if o.traceOut != "" || o.gantt {
		// Ring buffer: a small-scale run emits a few hundred thousand
		// lifecycle events at most; if a paper-scale run overflows the
		// ring, the oldest spans drop and the export simply starts later.
		tb = trace.NewBuffer(1 << 18)
		setting.Tracer = tb
	}
	res, err := experiments.SingleRunWith(setting, o.algo)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s at %s scale (%d nodes, %d workflows, %.0f h):\n",
		res.Algo, o.scale.Name, o.scale.Nodes, res.Submitted, o.scale.HorizonHours)
	if res.Unsubmitted > 0 || res.Dropped > 0 {
		fmt.Fprintf(stdout, "note: %d workflows arrived after the horizon (never entered the grid) and %d were dropped at dead homes; completion is relative to all %d\n",
			res.Unsubmitted, res.Dropped, res.Submitted)
	}
	fmt.Fprintln(stdout, res.Collector.FormatSeries())
	if sla := res.Final.SLA; sla != nil {
		fmt.Fprintf(stdout, "sla: deadline misses %d/%d, budget violations %d/%d, fallbacks %d, spend %.0f (%.0f per completed workflow)\n",
			sla.DeadlineMisses, sla.DeadlineWorkflows,
			sla.BudgetViolations, sla.BudgetWorkflows,
			sla.Fallbacks, sla.TotalSpend, sla.MeanSpend)
	}
	if o.gantt {
		fmt.Fprintln(stdout, tb.Gantt(0, o.scale.HorizonHours*3600, 100))
	}
	if o.traceOut != "" {
		doc := obs.BuildChromeTrace(tb.Events())
		data, err := doc.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.traceOut, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(o.stderr, "wrote %s (%d trace events; load it in Perfetto or chrome://tracing)\n", o.traceOut, len(doc.TraceEvents))
	}
	return nil
}

// sweepSpecFromAxes translates the -axes flag into a SweepSpec. Without the
// "algo" axis the sweep runs DSMF alone; scenario axes default to single
// points.
func sweepSpecFromAxes(axes string, sc experiments.Scale, seed int64, reps, maxLF int) (experiments.SweepSpec, error) {
	spec := experiments.SweepSpec{
		Name:       "sweep:" + axes,
		Scales:     []experiments.Scale{sc},
		Algorithms: []string{"DSMF"},
		Seed:       seed,
		Reps:       reps,
	}
	for _, ax := range strings.Split(axes, ",") {
		switch strings.TrimSpace(ax) {
		case "algo":
			spec.Algorithms = nil // all eight
		case "churn":
			spec.ChurnFactors = []float64{0, 0.1, 0.2, 0.3, 0.4}
			// Figs. 12-14 semantics: the df=0 baseline keeps the same
			// half-homes layout as the dynamic cells.
			spec.ChurnLayout = true
		case "lf", "load":
			lfs, err := experiments.LoadFactorAxis(maxLF)
			if err != nil {
				return spec, err
			}
			spec.LoadFactors = lfs
		case "ccr":
			spec.CCRCases = experiments.CCRCases()
		case "arrival":
			spec.Arrivals = experiments.ArrivalCasesFor(sc)
		case "sla":
			spec.SLAs = experiments.SLACasesFor(sc)
		case "scale":
			spec.Scales = experiments.ScalabilityScales(sc)
		case "":
			// Empty axes list (or a trailing comma): keep the defaults.
		default:
			return spec, fmt.Errorf("unknown sweep axis %q (algo|churn|lf|ccr|scale|arrival|sla)", ax)
		}
	}
	return spec, nil
}

// runSweep executes the declarative sweep through the streaming runner and
// writes deterministic JSON to -out (or stdout). Progress streams to
// stderr at every 10% of the matrix. -shard runs one job-ID range and
// emits a mergeable partial; -merge reassembles partials without
// simulating; -cache warm-starts from (and feeds) a per-cell result cache;
// -precision grows replication batches adaptively up to the -reps cap.
func runSweep(o options) error {
	if o.merge != "" {
		if o.shard != "" || o.precision > 0 || o.cacheDir != "" || o.coordinate != "" {
			return fmt.Errorf("-merge does not combine with -shard, -precision, -cache or -coordinate (merging never simulates)")
		}
		return runMerge(o)
	}
	if o.precision < 0 {
		return fmt.Errorf("-precision must be positive, got %v", o.precision)
	}
	if o.coordinate != "" {
		if o.shard != "" {
			return fmt.Errorf("-coordinate does not combine with -shard (the work directory already partitions the matrix)")
		}
		if o.precision > 0 {
			return fmt.Errorf("-coordinate does not combine with -precision (work units are fixed-replication cells)")
		}
	}
	if o.obs && (o.shard != "" || o.coordinate != "" || o.precision > 0 || o.cacheDir != "") {
		// Shard partials, the cell cache and the work directory all carry
		// schemas that predate distribution blocks; restoring from them
		// would yield partial summaries, so keep -obs to the plain path.
		return fmt.Errorf("-obs only applies to plain single-host sweeps (not -shard, -coordinate, -precision or -cache)")
	}
	spec, err := sweepSpecFromAxes(o.axes, o.scale, o.seed, o.reps, o.maxLF)
	if err != nil {
		return err
	}
	if o.arrival != "" || o.tracePath != "" || o.model != "" {
		aspec, tr, err := o.arrivalSetup()
		if err != nil {
			return err
		}
		if spec.Arrivals != nil {
			// The arrival axis carries its own intensity ladder; -trace
			// adds a replay column, but a single -arrival case conflicts.
			if o.arrival != "" {
				return fmt.Errorf("-arrival does not combine with -axes arrival (the axis is the intensity ladder); use -trace to add a replay cell")
			}
			spec.Arrivals = append(spec.Arrivals, experiments.TraceCase(tr))
		} else if tr != nil {
			spec.Arrivals = []experiments.ArrivalCase{experiments.TraceCase(tr)}
		} else if !aspec.IsBatch() {
			spec.Arrivals = []experiments.ArrivalCase{{Label: o.arrival, Spec: aspec}}
		}
	}
	if o.sla != "" || o.price != "" {
		sla, price, err := o.economySetup()
		if err != nil {
			return err
		}
		if spec.SLAs != nil {
			return fmt.Errorf("-sla/-price do not combine with -axes sla (the axis carries its own ladder and pricing)")
		}
		if sla.Enabled() || price.Enabled() {
			label := o.sla
			if label == "" {
				label = "price:" + o.price
			}
			spec.SLAs = []experiments.SLACase{{Label: label, SLA: sla, Price: price}}
		}
	}
	opts := experiments.RunOptions{
		Shards: o.shards,
		Obs:    o.obs,
		Progress: func(done, total int) {
			if done == total || done*10/total > (done-1)*10/total {
				fmt.Fprintf(o.stderr, "sweep: %d/%d runs (%d%%)\n", done, total, done*100/total)
			}
		},
	}
	if o.cacheDir != "" {
		if err := os.MkdirAll(o.cacheDir, 0o755); err != nil {
			return err
		}
		opts.Cache = executor.Disk{Dir: o.cacheDir}
	}
	if o.shard != "" {
		if o.precision > 0 {
			return fmt.Errorf("-shard does not combine with -precision (adaptive batches need the whole matrix)")
		}
		if o.artifacts != "" {
			return fmt.Errorf("-shard does not combine with -artifacts (a partial result has no complete cells to export; export from the merged run)")
		}
		idx, n, err := parseShard(o.shard)
		if err != nil {
			return err
		}
		part, err := experiments.RunShard(spec, idx, n, opts)
		if err != nil {
			return err
		}
		data, err := part.JSON()
		if err != nil {
			return err
		}
		fmt.Fprintf(o.stderr, "shard %d/%d: jobs [%d,%d) of %d\n", idx, n, part.Lo, part.Hi, part.Jobs)
		return writeOutput(o, data)
	}
	if o.coordinate != "" {
		wopts := experiments.WorkerOptions{
			Cache:       opts.Cache,
			SleepPerJob: o.sleepPerJob,
			Log:         o.stderr,
			Status:      o.stderr, // live straggler reports while waiting on other workers
		}
		if o.logLevel != "" || o.logFormat != "" {
			logger, err := obs.NewLogger(o.stderr, o.logLevel, o.logFormat)
			if err != nil {
				return err
			}
			wopts.Logger = logger
		}
		res, stats, err := experiments.CoordinateSweep(o.coordinate, spec, o.leaseTTL, wopts)
		if err != nil {
			return err
		}
		fmt.Fprintf(o.stderr, "coordinate %s: %d cells merged (this process completed %d, stole %d, lost %d)\n",
			o.coordinate, len(res.Cells), stats.Completed, stats.Stolen, stats.Lost)
		return writeSweepResult(o, res)
	}
	var res *experiments.SweepResult
	if o.precision > 0 {
		// Per-cell sequential stopping: an explicit -reps caps every cell,
		// otherwise cells sample until they individually converge.
		cap := 0
		if o.repsSet {
			cap = o.reps
		}
		res, err = experiments.RunAdaptiveCells(spec, o.precision, cap, opts)
		if err == nil {
			minReps, maxReps, issued := adaptiveShape(res)
			fmt.Fprintf(o.stderr, "adaptive: %d replications across %d cells (per-cell %d..%d)\n",
				issued, len(res.Cells), minReps, maxReps)
		}
	} else {
		res, err = experiments.RunSweepStream(spec, opts)
	}
	if err != nil {
		return err
	}
	return writeSweepResult(o, res)
}

// adaptiveShape summarizes a ragged adaptive result for the stderr note.
func adaptiveShape(res *experiments.SweepResult) (minReps, maxReps, issued int) {
	for i := range res.Cells {
		n := res.Cells[i].Agg.Reps
		issued += n
		if i == 0 || n < minReps {
			minReps = n
		}
		if n > maxReps {
			maxReps = n
		}
	}
	return minReps, maxReps, issued
}

// runWorker joins an existing sweep work directory (see -coordinate) and
// drains it: the body of `p2pgridsim -worker DIR`.
func runWorker(o options) error {
	var wopts experiments.WorkerOptions
	wopts.SleepPerJob = o.sleepPerJob
	wopts.Log = o.stderr
	if o.logLevel != "" || o.logFormat != "" {
		logger, err := obs.NewLogger(o.stderr, o.logLevel, o.logFormat)
		if err != nil {
			return err
		}
		wopts.Logger = logger
	}
	if o.cacheDir != "" {
		if err := os.MkdirAll(o.cacheDir, 0o755); err != nil {
			return err
		}
		wopts.Cache = executor.Disk{Dir: o.cacheDir}
	}
	stats, err := experiments.RunSweepWorker(o.worker, wopts)
	if err != nil {
		return err
	}
	fmt.Fprintf(o.stdout, "worker %s: %d cells completed, %d stolen, %d lost\n",
		o.worker, stats.Completed, stats.Stolen, stats.Lost)
	return nil
}

// runArrival prints the new arrival-intensity figure: every algorithm's
// converged ACT and AE across the scale's Poisson intensity ladder (plus
// a trace-replay column when -trace is given), with 95% CIs at -reps > 1.
func runArrival(o options) error {
	if o.arrival != "" {
		return fmt.Errorf("-experiment arrival runs a fixed intensity ladder; -arrival only applies to single/sweep (use -trace to add a replay column)")
	}
	_, tr, err := o.arrivalSetup()
	if err != nil {
		return err
	}
	return o.printTables(experiments.ArrivalSweepRep(o.scale, o.seed, o.reps, tr))
}

// runSLA prints the economic figure: deadline-miss rate and spend per
// completed workflow across the scale's deadline ladder, the DBC-cost
// optimizer against the best-effort DSMF baseline (95% CIs at -reps > 1).
func runSLA(o options) error {
	if o.sla != "" || o.price != "" {
		return fmt.Errorf("-experiment sla runs a fixed deadline ladder; -sla/-price only apply to single/sweep")
	}
	return o.printTables(experiments.SLASweepRep(o.scale, o.seed, o.reps))
}

// runCacheGC trims the warm-start cell cache under the -cache-budget /
// -cache-days bounds, oldest access first (see executor.Disk.GC).
func runCacheGC(o options) error {
	if o.cacheDir == "" {
		return fmt.Errorf("-cache-gc needs -cache DIR")
	}
	if o.cacheBudget < 0 || o.cacheDays < 0 {
		return fmt.Errorf("-cache-budget and -cache-days must be non-negative")
	}
	if o.cacheBudget == 0 && o.cacheDays == 0 {
		return fmt.Errorf("-cache-gc needs a bound: -cache-budget MB and/or -cache-days N")
	}
	st, err := executor.Disk{Dir: o.cacheDir}.GC(executor.GCOptions{
		MaxBytes: o.cacheBudget * 1 << 20,
		MaxAge:   time.Duration(o.cacheDays * 24 * float64(time.Hour)),
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(o.stdout, "cache-gc %s: %d entries scanned, %d deleted, %.1f MB -> %.1f MB\n",
		o.cacheDir, st.Scanned, st.Deleted,
		float64(st.BytesBefore)/(1<<20), float64(st.BytesAfter)/(1<<20))
	return nil
}

// parseShard splits the -shard flag's "i/n" form. Strict: trailing or
// malformed input is rejected (a typo must not silently run the wrong
// job range).
func parseShard(s string) (idx, n int, err error) {
	left, right, ok := strings.Cut(s, "/")
	if ok {
		idx, err = strconv.Atoi(left)
		if err == nil {
			n, err = strconv.Atoi(right)
		}
	}
	if !ok || err != nil {
		return 0, 0, fmt.Errorf("-shard wants i/n (e.g. 0/2), got %q", s)
	}
	if n < 1 || idx < 0 || idx >= n {
		return 0, 0, fmt.Errorf("-shard %q out of range (want 0 <= i < n)", s)
	}
	return idx, n, nil
}

// runMerge loads shard partials and reassembles the full sweep result; the
// output is byte-identical to a single-host run of the same spec.
func runMerge(o options) error {
	var parts []*experiments.ShardResult
	for _, f := range strings.Split(o.merge, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		part, err := experiments.DecodeShard(data)
		if err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		parts = append(parts, part)
	}
	if len(parts) == 0 {
		return fmt.Errorf("-merge needs at least one shard file")
	}
	res, err := experiments.MergeShards(parts...)
	if err != nil {
		return err
	}
	fmt.Fprintf(o.stderr, "merged %d shards into %d cells\n", len(parts), len(res.Cells))
	return writeSweepResult(o, res)
}

// writeOutput sends raw bytes to -out (with a stderr note) or stdout.
func writeOutput(o options, data []byte) error {
	if o.out == "" {
		_, err := o.stdout.Write(data)
		return err
	}
	if err := os.WriteFile(o.out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(o.stderr, "wrote %s\n", o.out)
	return nil
}

// writeSweepResult writes the sweep JSON (and optional artifacts/table),
// shared by the single-host, adaptive and merge paths.
func writeSweepResult(o options, res *experiments.SweepResult) error {
	data, err := res.JSON()
	if err != nil {
		return err
	}
	// Bare JSON on stdout: byte-identical across invocations of the same
	// spec (sharded, cached or cold), so CI can diff snapshots directly.
	if err := writeOutput(o, data); err != nil {
		return err
	}
	if o.out != "" {
		fmt.Fprintln(o.stdout, res.Table("Sweep "+res.Spec.Name).Format())
	}
	if o.artifacts != "" {
		if err := os.MkdirAll(o.artifacts, 0o755); err != nil {
			return err
		}
		artifacts := []struct {
			base    string
			content []byte
		}{
			{"sweep.json", data},
			{"sweep.csv", []byte(res.Table("Sweep " + res.Spec.Name).CSV())},
		}
		for _, a := range artifacts {
			path := filepath.Join(o.artifacts, a.base)
			if err := os.WriteFile(path, a.content, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(o.stderr, "wrote %s\n", path)
		}
	}
	return nil
}

func runStatic(o options) error {
	res, err := experiments.StaticComparisonRep(o.scale, o.seed, o.reps)
	if err != nil {
		return err
	}
	f4 := res.Fig4Throughput()
	f5 := res.Fig5FinishTime()
	f6 := res.Fig6Efficiency()
	fmt.Fprintln(o.stdout, f4.Format())
	fmt.Fprintln(o.stdout, f5.Format())
	fmt.Fprintln(o.stdout, f6.Format())
	title := "Converged final state"
	if o.reps > 1 {
		title += fmt.Sprintf(" (mean ± 95%% CI over %d seeds)", o.reps)
	}
	fmt.Fprintln(o.stdout, res.SummaryTable(title).Format())
	return o.exportSeries(f4, f5, f6)
}

func runChurn(o options, reschedule bool) error {
	dfs := []float64{0, 0.1, 0.2, 0.3, 0.4}
	res, err := experiments.ChurnSweepRep(o.scale, o.seed, dfs, reschedule, o.reps)
	if err != nil {
		return err
	}
	f12 := res.Fig12Throughput()
	f13 := res.Fig13FinishTime()
	f14 := res.Fig14Efficiency()
	fmt.Fprintln(o.stdout, f12.Format())
	fmt.Fprintln(o.stdout, f13.Format())
	fmt.Fprintln(o.stdout, f14.Format())
	if err := o.exportSeries(f12, f13, f14); err != nil {
		return err
	}
	title := "Churn final state"
	if reschedule {
		title += " (with rescheduling extension)"
	}
	if o.reps > 1 {
		title += fmt.Sprintf(" (mean ± 95%% CI over %d seeds)", o.reps)
	}
	fmt.Fprintln(o.stdout, res.ChurnSummaryTable(title).Format())
	return nil
}
