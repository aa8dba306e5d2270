package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"time"

	"repro/internal/dag"
	"repro/internal/economy"
	"repro/internal/experiments"
	"repro/internal/experiments/executor"
	"repro/internal/grid"
	"repro/internal/heuristics"
	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/wire"
	"repro/internal/workload/arrival"
)

// repOut is what one repetition of a workload reports.
type repOut struct {
	// setup and run split the set-up and the timed phase into parts that
	// are the same work, in the same order, in every repetition of a seed.
	setup, run []time.Duration
	liveHeap   uint64 // bytes the workload holds at the end of its timed phase
	ops        int    // operations attempted: simulations, sweeps or HTTP requests
	failedOps  int    // operations that returned an error status
	digest     string
}

// benchWorkload is one benchmark input. rep sets up and runs it once; with a
// tracer every layer is wrapped and the layer split of work the wrappers
// cannot reach is replayed on bench-assembled grids after the timed phase.
type benchWorkload interface {
	nodes() int
	rep(name string, seed int64, shards int, t *tracer) (repOut, error)
	// footprint is the live-heap growth over the set-up of the workload's
	// first grid, per node.
	footprint(seed int64) (float64, error)
}

// namedWorkload pairs a workload with its name. BENCHMARK.json and
// README.md record why each one exists.
type namedWorkload struct {
	name string
	w    benchWorkload
}

// Each workload is cut so that a repetition takes one to two seconds on a
// 2-vCPU host: a 30-second run then holds a dozen or more repetitions for
// each part's least time to come from.
var workloads = []namedWorkload{
	{"paper-batch", simWorkload{
		scale: experiments.Scale{Name: "paper-3h", Nodes: experiments.PaperScale.Nodes, LoadFactor: experiments.PaperScale.LoadFactor,
			HorizonHours: 3, SnapshotHours: experiments.PaperScale.SnapshotHours},
		algos: []string{"DSMF"},
	}},
	{"dense-arrivals", simWorkload{
		scale:     experiments.Scale{Name: "dense", Nodes: 32, LoadFactor: 24, HorizonHours: 18, SnapshotHours: 1},
		algos:     []string{"DSMF", "min-min", "DBC-ct"},
		instances: 4,
		arrival:   mustParse(arrival.Parse("poisson:60")),
		price:     mustParse(economy.ParsePrice("1:0.3")),
		sla:       mustParse(economy.ParseSLA("both:4:2")),
	}},
	{"daemon-soak", daemonWorkload{
		scale: experiments.SmallScale, algo: "DSMF", arrivals: 1000,
		arrival: mustParse(arrival.Parse("poisson:30")), scrapeEvery: 3600, tail: 12 * 3600,
	}},
	{"sweep-churn", sweepWorkload{spec: experiments.SweepSpec{
		Name: "bench-sweep-churn", Scales: []experiments.Scale{experiments.TinyScale}, Reps: 2,
		ChurnFactors: []float64{0, 0.4}, ChurnLayout: true, Reschedule: true,
	}}},
}

// mustParse unwraps the parse of a spec literal above; a failure is a typo
// in this file.
func mustParse[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func lookup(name string) (benchWorkload, bool) {
	for _, nw := range workloads {
		if nw.name == name {
			return nw.w, true
		}
	}
	return nil, false
}

// simWorkload runs each algorithm once per repetition on one shared
// topology, the way experiments.RunAll compares algorithms, on each of
// instances independent grids. Small grids vary a lot from seed to seed
// (32 capacity draws decide a dense grid's speed), so their repetitions
// cover several grids to keep the cost of a repetition steady across seeds.
type simWorkload struct {
	scale     experiments.Scale
	algos     []string
	instances int // independent grids per repetition; 0 means 1
	arrival   arrival.Spec
	price     economy.PriceSpec
	sla       economy.SLASpec
}

func (w simWorkload) nodes() int { return w.scale.Nodes }

// settings returns one setting per instance; the first uses the seed itself.
func (w simWorkload) settings(seed int64, shards int) []experiments.Setting {
	out := make([]experiments.Setting, max(1, w.instances))
	for i := range out {
		s := experiments.NewSetting(w.scale, seed)
		if i > 0 {
			s.Seed = stats.ChainSeed(seed, 0xBE, uint64(i))
		}
		s.Arrival, s.Price, s.SLA, s.Shards = w.arrival, w.price, w.sla, shards
		out[i] = s
	}
	return out
}

func (w simWorkload) rep(name string, seed int64, shards int, t *tracer) (repOut, error) {
	var out repOut
	var digests []byte
	for _, setting := range w.settings(seed, shards) {
		for _, algo := range w.algos {
			t.beginRun(fmt.Sprintf("%s/%d/%s", name, setting.Seed, algo), true)
			start := time.Now()
			r, err := setupSim(&setting, algo, t)
			if err != nil {
				return out, fmt.Errorf("%s: %w", algo, err)
			}
			out.setup = append(out.setup, time.Since(start))
			out.run = r.run(out.run)
			out.liveHeap = max(out.liveHeap, liveHeap())
			t.count(r.eng, r.g)
			d, err := r.digest()
			if err != nil {
				return out, err
			}
			digests = append(digests, d...)
			out.ops++
		}
	}
	out.digest = hashHex(digests)
	return out, nil
}

func (w simWorkload) footprint(seed int64) (float64, error) {
	setting := w.settings(seed, 1)[0]
	return heapGrowthPerNode(setting.Scale.Nodes, func() (any, error) {
		return setupSim(&setting, w.algos[0], nil)
	})
}

// heapGrowthPerNode measures the live heap kept by what build returns.
func heapGrowthPerNode(nodes int, build func() (any, error)) (float64, error) {
	before := liveHeap()
	v, err := build()
	if err != nil {
		return 0, err
	}
	after := liveHeap()
	runtime.KeepAlive(v)
	return (float64(after) - float64(before)) / float64(nodes), nil
}

// liveHeap collects twice, so objects parked in sync.Pool victim caches by
// earlier work are gone too, and returns the live heap size.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// daemonWorkload drives service.Handler in process, without sockets, as
// one closed-loop client on the virtual clock: advance to each arrival
// instant, scrape /metrics whenever a scrape period has passed, submit;
// then advance a tail and read every workflow's status.
type daemonWorkload struct {
	scale       experiments.Scale
	algo        string
	arrivals    int
	arrival     arrival.Spec
	scrapeEvery float64 // virtual seconds
	tail        float64 // virtual seconds after the last arrival
}

func (w daemonWorkload) nodes() int { return w.scale.Nodes }

func (w daemonWorkload) config(seed int64, shards int) service.Config {
	return service.Config{Scale: w.scale, Algo: w.algo, Seed: seed, Shards: shards}
}

// soakPlan is the client's input: arrival instants and, per submission,
// the workflow name and generator seed (the derivations service.RunSoak
// uses).
type soakPlan struct {
	times []float64
	seed  int64
}

func (p soakPlan) name(i int) string   { return "soak/" + strconv.Itoa(i) }
func (p soakPlan) genSeed(i int) int64 { return stats.ChainSeed(p.seed, 0x50AC, uint64(i)) }

func (w daemonWorkload) plan(seed int64) (soakPlan, error) {
	times, err := w.arrival.Schedule(w.arrivals, stats.SplitSeed(seed, 0x35))
	return soakPlan{times: times, seed: seed}, err
}

// client issues requests straight into the handler. Any status other than
// 2xx or 429 counts as a failed operation. Each request ends a part of the
// timed phase: the time since the previous request ended.
type client struct {
	h          http.Handler
	t          *tracer
	ops, fails int
	last       time.Time
	parts      []time.Duration
}

func (c *client) call(span, method, path string, body any) (int, []byte, error) {
	var data []byte
	if body != nil {
		var err error
		if data, err = json.Marshal(body); err != nil {
			return 0, nil, err
		}
	}
	rec := httptest.NewRecorder()
	c.t.do(span, func() { c.h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(data))) })
	now := time.Now()
	c.parts = append(c.parts, now.Sub(c.last))
	c.last = now
	c.ops++
	if rec.Code/100 != 2 && rec.Code != http.StatusTooManyRequests {
		c.fails++
	}
	return rec.Code, rec.Body.Bytes(), nil
}

func (w daemonWorkload) rep(name string, seed int64, shards int, t *tracer) (repOut, error) {
	var out repOut
	plan, err := w.plan(seed)
	if err != nil {
		return out, err
	}
	t.beginRun(name+"/http", false)
	start := time.Now()
	svc, err := service.New(w.config(seed, shards))
	if err != nil {
		return out, err
	}
	defer svc.Close()
	ready := time.Now()
	c := &client{h: service.Handler(svc), t: t, last: ready}
	admitted := make([]bool, len(plan.times))
	nextScrape := w.scrapeEvery
	for i, at := range plan.times {
		if _, _, err := c.call("http.advance", http.MethodPost, "/v1/clock/advance", wire.AdvanceRequest{ToSeconds: at}); err != nil {
			return out, err
		}
		for ; nextScrape <= at; nextScrape += w.scrapeEvery {
			if _, _, err := c.call("http.scrape", http.MethodGet, "/metrics", nil); err != nil {
				return out, err
			}
		}
		code, _, err := c.call("http.submit", http.MethodPost, "/v1/workflows",
			wire.SubmitRequest{Name: plan.name(i), Gen: &wire.GenRequest{Seed: plan.genSeed(i)}})
		if err != nil {
			return out, err
		}
		admitted[i] = code == http.StatusCreated
	}
	end := plan.times[len(plan.times)-1] + w.tail
	if _, _, err := c.call("http.advance", http.MethodPost, "/v1/clock/advance", wire.AdvanceRequest{ToSeconds: end}); err != nil {
		return out, err
	}
	var digest []byte
	for id := 0; id < svc.WorkflowCount(); id++ {
		_, body, err := c.call("http.status", http.MethodGet, "/v1/workflows/"+strconv.Itoa(id), nil)
		if err != nil {
			return out, err
		}
		digest = append(digest, body...)
	}
	_, body, err := c.call("http.metrics", http.MethodGet, "/v1/metrics", nil)
	if err != nil {
		return out, err
	}
	out.setup, out.run = []time.Duration{ready.Sub(start)}, c.parts
	digest = append(digest, body...)
	var final wire.MetricsResponse
	if err := json.Unmarshal(body, &final); err != nil {
		return out, fmt.Errorf("final metrics: %w", err)
	}
	out.liveHeap = liveHeap()
	out.ops, out.failedOps = c.ops, c.fails
	out.digest = hashHex(digest)
	if t != nil {
		err = w.shadow(name, plan, admitted, final.Snapshot, t)
	}
	return out, err
}

// shadow replays the admitted submissions on a bench-assembled grid built
// the way service.New builds its own, with every layer wrapped, and checks
// that it ends in the daemon's final state. The service keeps its engine
// and algorithm private, so this is how the daemon's run gets a layer split.
func (w daemonWorkload) shadow(name string, plan soakPlan, admitted []bool, final metrics.Snapshot, t *tracer) error {
	t.beginRun(name+"/grid", true)
	algo, err := heuristics.ByName(w.algo)
	if err != nil {
		return err
	}
	setting := experiments.NewSetting(w.scale, plan.seed)
	t.do("topology.build", func() { _, err = setting.BuildNet() })
	if err != nil {
		return err
	}
	eng := sim.NewEngine()
	host := tracedDriver{eng, t}
	var g *grid.Grid
	t.do("grid.new", func() {
		g, err = grid.New(host, grid.Config{Net: setting.Net, Seed: plan.seed}, traceAlgorithm(algo, t))
	})
	if err != nil {
		return err
	}
	t.labelEvery("gossip.cycle", "grid.sched_tick")
	t.do("grid.start", g.Start)
	t.labelEvery()
	nextScrape := w.scrapeEvery
	for i, at := range plan.times {
		host.RunUntil(at)
		for ; nextScrape <= at; nextScrape += w.scrapeEvery {
			t.do("metrics.snapshot", func() { metrics.Sample(g, eng.Now()) })
		}
		if !admitted[i] {
			continue
		}
		var wf *dag.Workflow
		t.do("workload.gen", func() {
			wf, err = dag.Generate(plan.name(i), dag.DefaultGenConfig(), stats.NewRand(plan.genSeed(i), 0x17F))
		})
		if err != nil {
			return err
		}
		t.do("grid.submit", func() { _, err = g.Submit(len(g.Workflows)%len(g.Nodes), wf) })
		if err != nil {
			return err
		}
	}
	host.RunUntil(plan.times[len(plan.times)-1] + w.tail)
	t.count(eng, g)
	return sameJSON("daemon shadow final snapshot", metrics.Sample(g, eng.Now()), final)
}

func (w daemonWorkload) footprint(seed int64) (float64, error) {
	var svc *service.Service
	perNode, err := heapGrowthPerNode(w.scale.Nodes, func() (any, error) {
		var err error
		svc, err = service.New(w.config(seed, 1))
		return svc, err
	})
	if svc != nil {
		svc.Close()
	}
	return perNode, err
}

// sweepWorkload runs one streaming sweep on a one-worker local executor,
// matching the one processor the benchmark runs on, and encodes its JSON
// artifact.
type sweepWorkload struct {
	spec experiments.SweepSpec
}

func (w sweepWorkload) nodes() int { return w.spec.Scales[0].Nodes }

func (w sweepWorkload) rep(name string, seed int64, shards int, t *tracer) (repOut, error) {
	var out repOut
	spec := w.spec
	spec.Seed = seed
	exec := &timedExecutor{inner: executor.Local{Workers: 1}, t: t}
	t.beginRun(name+"/executor", false)
	start := time.Now()
	res, err := experiments.RunSweepStream(spec, experiments.RunOptions{Executor: exec, Shards: shards, RetainRuns: t != nil})
	if err != nil {
		return out, err
	}
	var data []byte
	t.do("wire.sweep_json", func() { data, err = res.JSON() })
	if err != nil {
		return out, err
	}
	// The parts are the jobs, in job-list order, then the sweep's own work:
	// finalizing cells and encoding the artifact. Jobs that share a
	// topology build it once, in whichever of them runs first.
	out.setup = []time.Duration{exec.started.Sub(start)}
	for _, id := range exec.ids {
		out.run = append(out.run, exec.jobs[id])
	}
	out.run = append(out.run, time.Since(exec.started)-sum(out.run))
	out.digest = hashHex(data)
	out.ops = 1
	out.liveHeap = liveHeap()
	runtime.KeepAlive(res)
	if t != nil {
		err = replaySweep(name, res, t)
	}
	return out, err
}

// replaySweep re-runs every job of a finished sweep on bench-assembled,
// wrapped grids (rebuilding each topology) and checks that each reduces to
// the record the sweep aggregated.
func replaySweep(name string, res *experiments.SweepResult, t *tracer) error {
	for _, c := range res.Cells {
		for rep, run := range c.Runs {
			s := run.Setting
			s.Net, s.Shards = nil, 0
			t.beginRun(fmt.Sprintf("%s/%s/%s/rep%d", name, c.Scenario.Label(), c.Algo, rep), true)
			r, err := setupSim(&s, c.Algo, t)
			if err != nil {
				return err
			}
			r.run(nil)
			t.count(r.eng, r.g)
			got := r.result()
			st := metrics.ReduceRun(&got.Collector, got.Final, got.Submitted, got.CCR)
			if err := sameJSON("sweep replay of "+c.Algo, st, c.Stats[rep]); err != nil {
				return err
			}
		}
	}
	return nil
}

// footprint sets up one DSMF job of the sweep's first cell as a standalone
// grid. The sweep builds job settings privately, so a one-job sweep with
// retained runs supplies the setting.
func (w sweepWorkload) footprint(seed int64) (float64, error) {
	spec := w.spec
	spec.Seed, spec.Reps = seed, 1
	spec.Algorithms, spec.ChurnFactors = []string{"DSMF"}, spec.ChurnFactors[:1]
	res, err := experiments.RunSweepStream(spec, experiments.RunOptions{Executor: executor.Local{Workers: 1}, RetainRuns: true})
	if err != nil {
		return 0, err
	}
	s := res.Cells[0].Runs[0].Setting
	s.Net = nil
	return heapGrowthPerNode(w.nodes(), func() (any, error) { return setupSim(&s, "DSMF", nil) })
}

func sameJSON(what string, got, want any) error {
	a, err := json.Marshal(got)
	if err != nil {
		return err
	}
	b, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("%s differs:\n got  %s\n want %s", what, a, b)
	}
	return nil
}
