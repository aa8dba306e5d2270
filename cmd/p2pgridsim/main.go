// Command p2pgridsim regenerates the tables and figures of "Dual-Phase
// Just-in-Time Workflow Scheduling in P2P Grid Systems" (Di & Wang, ICPP
// 2010) as text tables/series.
//
// Usage:
//
//	p2pgridsim -experiment <name> [-scale paper|small|tiny] [-seed N] [-reps N]
//
// One table in this file says which flags each experiment and mode
// reads, and -h names them for every flag. A flag that the selected
// experiment or mode does not read is an error, never silently ignored.
// Exit codes: 2 for a flag error (an unknown, misplaced or malformed
// flag, a -trace or -model file that does not load, or a stray argument),
// reported before any work starts; 1 when the run fails (an unknown
// -experiment, -scale or -algo name, a file the run cannot read or write,
// a failed run); 0 otherwise.
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
// spend metrics appear in snapshots and sweep JSON whenever pricing or a
// contract is active; see internal/economy).
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
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/economy"
	"repro/internal/experiments"
	"repro/internal/experiments/executor"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload/arrival"
	"repro/internal/workload/loadspec"
	"repro/internal/workload/traces"
)

func main() {
	os.Exit(cliMain(os.Args[1:], os.Stdout, os.Stderr))
}

// options carries the parsed command line, one field per flag (see flags);
// stdout/stderr indirection keeps every error path testable without
// spawning a subprocess.
type options struct {
	experiment string
	scaleName  string
	scale      experiments.Scale // resolved from scaleName
	seed       int64
	algo       string
	maxLF      int
	reps       int
	repsSet    bool // -reps given explicitly (-precision caps cells only then)
	maxLFSet   bool // -maxlf given explicitly (a sweep reads it only on its lf axis)
	axes       string
	out        string
	artifacts  string
	shard      string
	merge      string
	cacheDir   string
	precision  float64
	coordinate string
	worker     string

	sleepPerJob time.Duration
	leaseTTL    time.Duration

	arrival    string
	tracePath  string
	traceScale float64
	model      string
	synth      int

	sla   string
	price string

	cacheGC     bool
	cacheBudget int64
	cacheDays   float64

	serve       string
	pace        float64
	maxInFlight int

	cpuProfile string
	memProfile string
	traceOut   string
	gantt      bool
	obs        bool
	logLevel   string
	logFormat  string
	pprofOn    bool

	stdout, stderr io.Writer
}

// flags declares every flag once, bound to its options field. Each usage
// ends with where the flag applies, generated from the scope tables.
func (o *options) flags(stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("p2pgridsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.experiment, "experiment", "fig4-6", "experiment to run (see package doc)")
	fs.StringVar(&o.scaleName, "scale", "small", "paper|small|tiny")
	fs.Int64Var(&o.seed, "seed", 2010, "root random seed")
	fs.StringVar(&o.algo, "algo", "DSMF", "scheduling algorithm")
	fs.IntVar(&o.maxLF, "maxlf", 8, "largest load factor on the load-factor axis")
	fs.IntVar(&o.reps, "reps", 1, "seed replications (error bars need > 1)")
	fs.StringVar(&o.axes, "axes", "algo", "comma-separated sweep axes: algo,churn,lf,ccr,arrival,sla,scale")
	fs.StringVar(&o.out, "out", "", "write sweep JSON to this file (default: stdout)")
	fs.StringVar(&o.shard, "shard", "", "run only shard i/n of the sweep job matrix (e.g. 0/2) and emit a mergeable partial result")
	fs.StringVar(&o.merge, "merge", "", "comma-separated shard JSON files to merge into the full sweep result (no simulation)")
	fs.StringVar(&o.coordinate, "coordinate", "", "run the sweep through this shared work-stealing directory: init, participate as a worker, then merge (see package doc)")
	fs.StringVar(&o.worker, "worker", "", "drain the sweep work directory DIR (created by -coordinate) instead of running an experiment")
	fs.DurationVar(&o.sleepPerJob, "sleep-per-job", 0, "test hook: sleep this long before every replication (makes the worker slow enough to be stolen from)")
	fs.DurationVar(&o.leaseTTL, "lease-ttl", 2*time.Minute, "work-unit lease expiry recorded when -coordinate initializes a directory; workers heartbeat between replications, so set it comfortably above the longest single replication (crashed or wedged workers' cells are re-leased and re-run after this long without progress)")
	fs.StringVar(&o.cacheDir, "cache", "", "warm-start cell cache directory: re-runs execute only cells missing from it")
	fs.Float64Var(&o.precision, "precision", 0, "per-cell adaptive replication: each cell draws seeds until its ACT 95% CI half-width is under this fraction of its mean (an explicit -reps caps every cell)")
	fs.StringVar(&o.arrival, "arrival", "", "arrival process: batch|poisson:RATE|mmpp:RATE[:BURST]|diurnal:RATE[:PERIODH]|trace (rates in workflows/hour)")
	fs.StringVar(&o.sla, "sla", "", "SLA contract: none|deadline:FACTOR|budget:FACTOR|both:DF:BF (factors scale the critical path / cheapest-feasible cost)")
	fs.StringVar(&o.price, "price", "", "pricing model: none|RATE[:SPREAD] (capacity-proportional per-MI rates, ±SPREAD jitter)")
	fs.StringVar(&o.tracePath, "trace", "", "SWF/GWF trace file for trace replay (\"sample\" = the bundled demo trace)")
	fs.Float64Var(&o.traceScale, "trace-scale", 1, "multiply trace submit times by this factor (compress a multi-day trace into the horizon)")
	fs.StringVar(&o.model, "model", "", "synthesize the workload from this fitted model artifact (wfgen -fit output); replaces -arrival/-trace")
	fs.IntVar(&o.synth, "synth", 0, "number of jobs to synthesize from -model (0 = the model's fitted count)")
	fs.BoolVar(&o.cacheGC, "cache-gc", false, "garbage-collect the -cache directory (needs -cache-budget and/or -cache-days) and exit")
	fs.Int64Var(&o.cacheBudget, "cache-budget", 0, "cache GC size budget in MB, oldest-access entries dropped first (0 = no size bound)")
	fs.Float64Var(&o.cacheDays, "cache-days", 0, "cache GC max entry age in days (0 = no age bound)")
	fs.StringVar(&o.serve, "serve", "", "run as a long-lived scheduler daemon on this address (e.g. :8080) exposing the versioned /v1 HTTP API")
	fs.Float64Var(&o.pace, "pace", 0, "wall-clock pacing: virtual seconds advanced per wall second (0 = deterministic virtual clock, advanced only via POST /v1/clock/advance)")
	fs.IntVar(&o.maxInFlight, "max-inflight", 256, "admission bound: submissions beyond this many unfinished workflows are shed with 429 + Retry-After")
	fs.StringVar(&o.artifacts, "artifacts", "", "directory for CSV/DAT/gnuplot artifacts")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the run's span timeline as Chrome trace-event JSON to this file (load it in Perfetto or chrome://tracing)")
	fs.BoolVar(&o.gantt, "gantt", false, "print an ASCII Gantt chart of per-node activity after the run")
	fs.BoolVar(&o.obs, "obs", false, "collect virtual-time latency histograms per sweep cell and embed distribution summaries in the sweep JSON")
	fs.StringVar(&o.logLevel, "log-level", "", "structured log level: debug|info|warn|error (default info)")
	fs.StringVar(&o.logFormat, "log-format", "", "structured log format: text|json (default text)")
	fs.BoolVar(&o.pprofOn, "pprof", false, "expose /debug/pprof profiling handlers on the daemon (off: those paths 404)")
	fs.VisitAll(func(f *flag.Flag) { f.Usage += "; " + scopeHelp(f.Name) })
	return fs
}

// Flag groups the scope tables share. Every experiment reads common:
// table1 and fig3 ignore -scale and -seed, but one invocation shape then
// runs any experiment. matrix is what every sweep that expands its
// scenario matrix reads.
const (
	common   = "experiment scale seed cpuprofile memprofile"
	traceSrc = "trace trace-scale model synth"
	matrix   = common + " axes reps maxlf arrival sla price " + traceSrc
)

// A mode is a context selected by its own flag taking a value other than
// its default: one of modes in place of an experiment, or one or more
// sweepModes of -experiment sweep. reads lists every flag it reads, its
// own included.
type mode struct {
	flag, reads string
	run         func(options) error // nil for a sweep mode: runSweep dispatches those
}

// modes run instead of an experiment. The daemon takes its workloads over
// HTTP, a worker its whole configuration from the work directory, and the
// cache GC runs nothing.
var modes = []mode{
	{flag: "serve", run: runServe, reads: "serve scale seed algo price pace max-inflight pprof log-level log-format"},
	{flag: "worker", run: runWorker, reads: "worker cache sleep-per-job log-level log-format"},
	{flag: "cache-gc", run: runCacheGC, reads: "cache-gc cache cache-budget cache-days"},
}

// sweepModes narrow -experiment sweep. Merging never simulates. A shard
// runs one job range, so it has no complete cells to export, and adaptive
// batches need the whole matrix. The work directory fixes the matrix and
// its replications. Shard partials, the cell cache and the work directory
// carry no distribution blocks, so -obs keeps to the plain path.
var sweepModes = []mode{
	{flag: "merge", reads: common + " merge out artifacts"},
	{flag: "shard", reads: matrix + " shard out cache"},
	{flag: "coordinate", reads: matrix + " coordinate out artifacts cache lease-ttl sleep-per-job log-level log-format"},
	{flag: "precision", reads: matrix + " precision out artifacts cache"},
	{flag: "obs", reads: matrix + " obs out artifacts"},
}

// reads reports whether the space-separated flag list names f.
func reads(list, f string) bool { return slices.Contains(strings.Fields(list), f) }

// takes renders what m reads besides its own flag, for scope errors and -h.
func (m mode) takes() string {
	var names []string
	for _, f := range strings.Fields(m.reads) {
		if f != m.flag {
			names = append(names, "-"+f)
		}
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// checkScopes rejects the first set flag that the selected experiment or
// mode does not read, and returns the selected mode of modes, if any.
// With several modes or sweep modes selected, each must read every set
// flag. An unknown experiment is left to dispatch.
func checkScopes(fs *flag.FlagSet) (*mode, error) {
	selected := func(ms []mode) (on []mode) {
		for _, m := range ms {
			if f := fs.Lookup(m.flag); f.Value.String() != f.DefValue {
				on = append(on, m)
			}
		}
		return on
	}
	name := fs.Lookup("experiment").Value.String()
	ctx := selected(modes)
	if len(ctx) == 0 && name == "sweep" {
		ctx = selected(sweepModes)
	}
	if len(ctx) == 0 {
		var list []string
		for _, e := range experimentTable {
			if e.name == name || name == "all" && e.inAll {
				list = append(list, e.reads)
			}
		}
		if list == nil {
			return nil, nil
		}
		ctx = []mode{{reads: strings.Join(list, " ")}}
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		for _, m := range ctx {
			if err != nil || reads(m.reads, f.Name) {
				continue
			}
			if m.flag == "" {
				err = fmt.Errorf("-%s only applies to %s", f.Name, appliesTo(f.Name))
			} else {
				err = fmt.Errorf("-%s does not combine with -%s, which takes only %s", f.Name, m.flag, m.takes())
			}
		}
	})
	if ctx[0].run == nil {
		return nil, err
	}
	return &ctx[0], err
}

// appliesTo names every context that reads flag f: the experiments in
// table order, the sweep modes that read it where a plain sweep does not,
// and the modes.
func appliesTo(f string) string {
	var exps, where []string
	for _, e := range experimentTable {
		if reads(e.reads, f) {
			exps = append(exps, e.name)
		}
	}
	switch len(exps) {
	case 0:
	case len(experimentTable):
		where = append(where, "every experiment")
	default:
		where = append(where, "-experiment "+exps[0])
		where = append(where, exps[1:]...)
	}
	if !reads(lookupExperiment("sweep").reads, f) {
		for _, m := range sweepModes {
			if reads(m.reads, f) {
				where = append(where, "-experiment sweep -"+m.flag)
			}
		}
	}
	for _, m := range modes {
		if reads(m.reads, f) {
			where = append(where, "-"+m.flag)
		}
	}
	if len(where) < 2 {
		return strings.Join(where, "")
	}
	return strings.Join(where[:len(where)-1], ", ") + " and " + where[len(where)-1]
}

// scopeHelp is the clause flags appends to f's usage: where f applies and,
// for the flag of a mode, what it combines with.
func scopeHelp(f string) string {
	for _, m := range modes {
		if m.flag == f {
			return "combines only with " + m.takes()
		}
	}
	for _, m := range sweepModes {
		if m.flag == f {
			return "applies to -experiment sweep; combines only with " + m.takes()
		}
	}
	return "applies to " + appliesTo(f)
}

// validate applies the rules that depend on a flag's value rather than on
// where it is set. Like a scope error, a failure exits 2 before any work
// starts.
func (o *options) validate() error {
	switch {
	case o.reps < 1:
		return fmt.Errorf("-reps must be at least 1, got %d", o.reps)
	case o.pace < 0:
		return fmt.Errorf("-pace must be non-negative, got %v", o.pace)
	case o.maxInFlight < 1:
		return fmt.Errorf("-max-inflight must be at least 1, got %d", o.maxInFlight)
	case o.leaseTTL <= 0:
		return fmt.Errorf("-lease-ttl must be positive, got %v", o.leaseTTL)
	case o.sleepPerJob < 0:
		return fmt.Errorf("-sleep-per-job must be non-negative, got %v", o.sleepPerJob)
	case !(o.precision >= 0):
		return fmt.Errorf("-precision must be non-negative, got %v", o.precision)
	case o.cacheBudget < 0 || !(o.cacheDays >= 0):
		return fmt.Errorf("-cache-budget and -cache-days must be non-negative")
	case o.cacheGC && o.cacheDir == "":
		return fmt.Errorf("-cache-gc needs -cache DIR")
	case o.cacheGC && o.cacheBudget == 0 && o.cacheDays == 0:
		return fmt.Errorf("-cache-gc needs a bound: -cache-budget MB and/or -cache-days N")
	case o.arrival != "" && hasAxis(o.axes, "arrival"):
		return fmt.Errorf("-arrival does not combine with -axes arrival (the axis is the intensity ladder); use -trace to add a replay cell")
	case (o.sla != "" || o.price != "") && hasAxis(o.axes, "sla"):
		return fmt.Errorf("-sla/-price do not combine with -axes sla (the axis carries its own ladder and pricing)")
	case o.maxLFSet && o.experiment == "sweep" && !hasAxis(o.axes, "lf") && !hasAxis(o.axes, "load"):
		return fmt.Errorf("-maxlf sets the top of the load-factor axis; a sweep reads it only with lf (or load) in -axes")
	}
	if o.shard != "" {
		if _, _, err := parseShard(o.shard); err != nil {
			return err
		}
	}
	if _, err := obs.NewLogger(io.Discard, o.logLevel, o.logFormat); err != nil {
		return err
	}
	// A malformed spec, unreadable trace or bad model fails here, before
	// any work starts.
	if _, _, err := o.arrivalSetup(); err != nil {
		return err
	}
	_, _, err := o.economySetup()
	return err
}

// hasAxis reports whether the -axes list names axis.
func hasAxis(axes, axis string) bool {
	for _, ax := range strings.Split(axes, ",") {
		if strings.TrimSpace(ax) == axis {
			return true
		}
	}
	return false
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

// cliMain parses args and runs the selected experiment or mode, returning
// the process exit code. Every failure path returns non-zero. Flag errors
// exit 2 before any work starts: an unknown flag, a stray positional
// argument, a flag that the selected experiment or mode does not read,
// and a malformed or out-of-range value. Run errors exit 1.
func cliMain(args []string, stdout, stderr io.Writer) int {
	o := options{stdout: stdout, stderr: stderr}
	fs := o.flags(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "p2pgridsim: unexpected arguments %q (did you mean -experiment %s?)\n",
			fs.Args(), fs.Arg(0))
		return 2
	}
	fs.Visit(func(f *flag.Flag) {
		o.repsSet = o.repsSet || f.Name == "reps"
		o.maxLFSet = o.maxLFSet || f.Name == "maxlf"
	})
	m, err := checkScopes(fs)
	if err == nil {
		err = o.validate()
	}
	if err != nil {
		fmt.Fprintln(stderr, "p2pgridsim:", err)
		return 2
	}
	if o.scale, err = experiments.ScaleByName(o.scaleName); err == nil {
		if m != nil {
			err = m.run(o)
		} else {
			// run (not cliMain) owns the profile lifecycles so they close
			// properly on error paths too.
			err = run(o)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "p2pgridsim:", err)
		return 1
	}
	return 0
}

func run(o options) error {
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
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
	if o.memProfile != "" {
		// Written even when dispatch failed: a heap snapshot of the errored
		// run is exactly what the flag exists to capture.
		if err := writeHeapProfile(o.memProfile); err != nil {
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

// experiment is one -experiment mode: reads lists every flag it reads,
// and inAll marks the modes -experiment all runs, in table order.
type experiment struct {
	name, reads string
	run         func(options) error
	inAll       bool
}

// experimentTable is every -experiment mode except "all", which runs the
// inAll entries in sequence and reads what they read. Table order is also
// the order in which errors and -h name the experiments that read a flag.
var experimentTable = []experiment{
	{name: "table1", inAll: true, reads: common, run: func(o options) error {
		return o.printTable(experiments.TableI(), nil)
	}},
	{name: "single", reads: common + " algo arrival sla price trace-out gantt " + traceSrc, run: runSingle},
	{name: "sweep", reads: matrix + " out artifacts cache shard merge coordinate precision obs", run: runSweep},
	{name: "fig3", inAll: true, reads: common, run: func(o options) error {
		fmt.Fprintln(o.stdout, experiments.Fig3Report())
		return nil
	}},
	{name: "fig4-6", inAll: true, reads: common + " reps artifacts", run: runStatic},
	{name: "fcfs", inAll: true, reads: common + " reps", run: func(o options) error {
		table, _, err := experiments.FCFSAblation(o.scale, o.seed, o.reps)
		return o.printTable(table, err)
	}},
	{name: "fig7-8", inAll: true, reads: common + " reps maxlf", run: func(o options) error {
		return o.printTables(experiments.LoadFactorSweepRep(o.scale, o.seed, o.maxLF, o.reps))
	}},
	{name: "fig9-10", inAll: true, reads: common + " reps", run: func(o options) error {
		return o.printTables(experiments.CCRSweepRep(o.scale, o.seed, o.reps))
	}},
	{name: "fig11", inAll: true, reads: common + " reps", run: func(o options) error {
		res, err := experiments.ScalabilitySweep(o.scale, o.seed, o.reps)
		if err != nil {
			return err
		}
		return o.printTable(experiments.ScalabilityTable(res), nil)
	}},
	{name: "arrival", reads: common + " reps " + traceSrc, run: runArrival},
	// sla prints the economic figure: deadline-miss rate and spend per
	// completed workflow across the scale's deadline ladder, the DBC-cost
	// optimizer against the best-effort DSMF baseline.
	{name: "sla", reads: common + " reps", run: func(o options) error {
		return o.printTables(experiments.SLASweepRep(o.scale, o.seed, o.reps))
	}},
	{name: "fig12-14", inAll: true, reads: common + " reps artifacts", run: func(o options) error { return runChurn(o, false) }},
	{name: "reschedule", inAll: true, reads: common + " reps artifacts", run: func(o options) error { return runChurn(o, true) }},
	{name: "oracle", inAll: true, reads: common, run: func(o options) error {
		return o.printTable(experiments.OracleAblation(o.scale, o.seed))
	}},
	{name: "planners", inAll: true, reads: common, run: func(o options) error {
		return o.printTable(experiments.PlannerShootout(o.scale, o.seed))
	}},
	{name: "churn-model", inAll: true, reads: common, run: func(o options) error {
		return o.printTable(experiments.ChurnModelAblation(o.scale, o.seed, 0.2))
	}},
	{name: "families", inAll: true, reads: common, run: func(o options) error {
		return o.printTable(experiments.FamilyComparison(o.scale, o.seed))
	}},
	{name: "report", reads: common, run: func(o options) error {
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
	var tb *trace.Buffer
	if o.traceOut != "" || o.gantt {
		// Ring buffer: a small-scale run emits a few hundred thousand
		// lifecycle events at most; if a paper-scale run overflows the
		// ring, the oldest spans drop and the export simply starts later.
		tb = trace.NewBuffer(1 << 18)
		setting.Tap = grid.TraceTap{Buf: tb}
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
			return spec, fmt.Errorf("unknown sweep axis %q (algo|churn|lf|ccr|arrival|sla|scale)", ax)
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
		return runMerge(o)
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
			// -axes arrival carries its own intensity ladder; -trace adds
			// a replay column (validate rejects -arrival here).
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
		if sla.Enabled() || price.Enabled() {
			label := o.sla
			if label == "" {
				label = "price:" + o.price
			}
			spec.SLAs = []experiments.SLACase{{Label: label, SLA: sla, Price: price}}
		}
	}
	opts := experiments.RunOptions{
		Obs: o.obs,
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
	_, tr, err := o.arrivalSetup()
	if err != nil {
		return err
	}
	return o.printTables(experiments.ArrivalSweepRep(o.scale, o.seed, o.reps, tr))
}

// runCacheGC trims the warm-start cell cache under the -cache-budget /
// -cache-days bounds, oldest access first (see executor.Disk.GC).
func runCacheGC(o options) error {
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
