// Command bench measures the simulator end to end and layer by layer on one
// named workload. Run it from the repository root through bench/run.sh:
//
//	bash bench/run.sh --workload paper-batch --seed 2010 --seconds 10 --trace 0
//
// After one untimed warm-up repetition it repeats the workload (set-up, then
// the timed phase) for --seconds, checks every repetition's result digest,
// and prints one line per metric followed by a JSON summary as the last
// line. Each repetition splits its set-up and timed phase into the same
// parts; a time is the sum of each part's fastest repetition. With --trace 0 the
// metrics are the end-to-end ones of BENCHMARK.json, measured with no
// tracing. With --trace 1 it adds one traced pass, whose timing decorators
// around the engine, the scheduler phases and the executor give the
// per-layer metrics, plus a 2-shard run and direct probes of the topology
// and sampling layers. bench/README.md describes the workloads and metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
)

// pinnedSeed is the seed whose result digests digests.json records.
const pinnedSeed = 2010

//go:embed digests.json
var pinnedJSON []byte

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, nw := range workloads {
		names = append(names, nw.name)
	}
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", pinnedSeed, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "start repetitions until this many seconds have passed")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: add a traced pass and print the per-layer metrics")
	traceOut := fs.String("trace-out", "", "with --trace 1, write the traced pass's spans to this file as Chrome trace-event JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookup(*name)
	if !ok || fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "usage: bench --workload {%s} [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]\n",
			strings.Join(names, "|"))
		return 2
	}
	pins := map[string]string{}
	if err := json.Unmarshal(pinnedJSON, &pins); err != nil {
		fmt.Fprintf(stderr, "bench: digests.json: %v\n", err)
		return 1
	}
	want := ""
	if *seed == pinnedSeed {
		want = pins[*name]
	}
	rep, err := measure(*name, w, *seed, *seconds, *trace == 1, *traceOut, want, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *name, err)
		return 1
	}
	if err := rep.print(stdout, *name, *seed); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if rep.failed > 0 {
		return 1
	}
	return 0
}

type metric struct {
	name, unit string
	value      float64
	n          int // samples behind the value
}

type report struct {
	attempted, failed int
	digest            string
	metrics           []metric
}

func (r *report) add(name, unit string, value float64, n int) {
	r.metrics = append(r.metrics, metric{name, unit, value, n})
}

// check compares a digest with the pinned one, or with the first digest
// seen when the seed has none pinned.
func (r *report) check(log io.Writer, what, got string) {
	if r.digest == "" {
		r.digest = got
		return
	}
	if got != r.digest {
		r.failed++
		fmt.Fprintf(log, "bench: %s digest %s, want %s\n", what, got, r.digest)
	}
}

func (r *report) print(w io.Writer, name string, seed int64) error {
	fmt.Fprintf(w, "workload %s  seed %d  digest %s\n", name, seed, r.digest)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]value{}}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-22s %16.6g %-5s n=%d\n", m.name, m.value, m.unit, m.n)
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// samples collects the untraced repetitions: the fastest time of each part
// of set-up and of the timed phase, and one timed-phase total and memory
// value per repetition.
type samples struct {
	setup, run                     fastest
	runs, liveMB, allocMB, mallocs []float64
}

// fastest keeps, part by part, the least time any repetition took.
type fastest []time.Duration

func (f *fastest) add(parts []time.Duration) error {
	if *f == nil {
		*f = slices.Clone(parts)
		return nil
	}
	if len(parts) != len(*f) {
		return fmt.Errorf("split into %d parts, earlier repetitions into %d", len(parts), len(*f))
	}
	for i, p := range parts {
		(*f)[i] = min((*f)[i], p)
	}
	return nil
}

func sum(parts []time.Duration) (total time.Duration) {
	for _, p := range parts {
		total += p
	}
	return total
}

func measure(name string, w benchWorkload, seed int64, seconds float64, traced bool, traceOut, pinned string, log io.Writer) (*report, error) {
	r := &report{digest: pinned}
	// A simulation is single-threaded. With one processor the Go collector
	// shares it instead of running on a second core; on a shared 2-core
	// host, two processors spread run times four to six times wider.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// The traced pass, the 2-shard run and the probes take about as long as
	// the untraced repetitions before them, so a traced run keeps half its
	// time for them.
	budget := seconds
	if traced {
		budget /= 2
	}
	var s samples
	var reps []float64 // wall seconds of each whole repetition, warm-up included
	start := time.Now()
	// The first repetition warms the heap, the caches and lazily built
	// tables. It is checked but not timed. A repetition starts only if one
	// of typical length still ends within the budget.
	for rep := 0; len(s.runs) == 0 || time.Since(start).Seconds()+median(reps) <= budget; rep++ {
		runtime.GC()
		before := memStats()
		began := time.Now()
		out, err := w.rep(name, seed, 1, nil)
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", rep, err)
		}
		reps = append(reps, time.Since(began).Seconds())
		after := memStats()
		r.attempted += out.ops
		r.failed += out.failedOps
		r.check(log, fmt.Sprintf("repetition %d", rep), out.digest)
		fmt.Fprintf(log, "bench: %s repetition %d: set-up %.4f s, run %.4f s\n", name, rep, sum(out.setup).Seconds(), sum(out.run).Seconds())
		if rep == 0 {
			continue
		}
		if err := s.setup.add(out.setup); err != nil {
			return nil, fmt.Errorf("repetition %d set-up: %w", rep, err)
		}
		if err := s.run.add(out.run); err != nil {
			return nil, fmt.Errorf("repetition %d: %w", rep, err)
		}
		s.runs = append(s.runs, sum(out.run).Seconds())
		s.liveMB = append(s.liveMB, float64(out.liveHeap)/1e6)
		s.allocMB = append(s.allocMB, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
		s.mallocs = append(s.mallocs, float64(after.Mallocs-before.Mallocs))
	}
	if !traced {
		// Other tenants of the host only ever add time, and they come and go
		// within seconds: whole repetitions run up to 70% slower. A time is
		// the sum over its parts of each part's fastest repetition, the
		// estimate they disturb least. bench/README.md has the measurements.
		r.add("setup_s", "s", sum(s.setup).Seconds(), len(s.runs))
		r.add("run_s", "s", sum(s.run).Seconds(), len(s.runs))
		r.add("live_heap_mb", "MB", median(s.liveMB), len(s.liveMB))
		r.add("alloc_mb", "MB", median(s.allocMB), len(s.allocMB))
		return r, nil
	}
	return r, tracedMetrics(r, name, w, seed, s, traceOut, log)
}

// tracedMetrics runs the traced pass, a 2-shard run and the probes, and
// adds the per-layer metrics.
func tracedMetrics(r *report, name string, w benchWorkload, seed int64, s samples, traceOut string, log io.Writer) error {
	// The traced pass and the 2-shard run are single repetitions, so they
	// are compared with the median untraced one.
	untraced := median(s.runs)
	t := newTracer()
	out, err := w.rep(name, seed, 1, t)
	if err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	r.attempted += out.ops
	r.failed += out.failedOps
	r.check(log, "traced pass", out.digest)
	layers, total := t.aggregate()
	get := func(n string) *layerStats {
		if ls := layers[n]; ls != nil {
			return ls
		}
		return &layerStats{}
	}
	run, gossip := get("sim.run"), get("gossip.cycle")
	p1, plan := get("core.phase1"), get("core.planall")
	phase1 := &layerStats{count: p1.count + plan.count, self: p1.self + plan.self, durs: slices.Concat(p1.durs, plan.durs)}
	slices.Sort(phase1.durs)
	phase2, node, deferred := get("core.phase2"), get("grid.node"), get("grid.defer")

	r.add("sim.events", "count", float64(t.events), 1)
	r.add("sim.self_s", "s", run.self.Seconds(), run.count)
	r.add("sim.ns_per_event", "ns", ratio(float64(run.self.Nanoseconds()), float64(t.events)), int(t.events))
	r.add("gossip.cycles", "count", float64(gossip.count), 1)
	r.add("gossip.cycle_s", "s", gossip.self.Seconds(), gossip.count)
	r.add("gossip.cycle_ms_p50", "ms", 1e3*quantile(gossip.durs, 0.5), gossip.count)
	r.add("gossip.cycle_ms_p90", "ms", 1e3*quantile(gossip.durs, 0.9), gossip.count)
	r.add("gossip.share", "ratio", ratio(gossip.self.Seconds(), total.Seconds()), 1)
	r.add("gossip.msgs", "count", float64(t.msgs), 1)
	r.add("gossip.bytes_per_node", "B", ratio(float64(t.bytes), float64(t.nodes)), 1)
	r.add("core.phase1_calls", "count", float64(phase1.count), 1)
	r.add("core.phase1_s", "s", phase1.self.Seconds(), phase1.count)
	r.add("core.phase1_us_p50", "us", 1e6*quantile(phase1.durs, 0.5), phase1.count)
	r.add("core.phase1_us_p99", "us", 1e6*quantile(phase1.durs, 0.99), phase1.count)
	r.add("core.phase1_share", "ratio", ratio(phase1.self.Seconds(), total.Seconds()), 1)
	r.add("core.dispatch_per_call", "ratio", ratio(float64(t.dispatches), float64(t.schedules)), t.schedules)
	r.add("core.phase2_picks", "count", float64(phase2.count), 1)
	r.add("core.phase2_s", "s", phase2.self.Seconds(), phase2.count)
	r.add("grid.node_events", "count", float64(node.count), 1)
	r.add("grid.node_s", "s", (node.self + deferred.self).Seconds(), node.count)
	r.add("grid.sched_tick_s", "s", get("grid.sched_tick").self.Seconds(), get("grid.sched_tick").count)
	r.add("grid.submit_s", "s", get("grid.submit").self.Seconds(), get("grid.submit").count)
	r.add("grid.new_s", "s", get("grid.new").dur.Seconds(), get("grid.new").count)
	r.add("metrics.snapshot_s", "s", get("metrics.snapshot").self.Seconds(), get("metrics.snapshot").count)
	r.add("workload.gen_s", "s", get("workload.gen").dur.Seconds(), get("workload.gen").count)
	r.add("topology.build_s", "s", get("topology.build").dur.Seconds(), get("topology.build").count)
	r.add("bench.trace_overhead", "ratio", sum(out.run).Seconds()/untraced-1, 1)
	if traceOut != "" {
		if err := t.writeChrome(traceOut); err != nil {
			return err
		}
	}
	t = nil

	procs := runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	shard, err := w.rep(name, seed, 2, nil)
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return fmt.Errorf("2-shard run: %w", err)
	}
	r.attempted += shard.ops
	r.failed += shard.failedOps
	r.check(log, "2-shard run", shard.digest)
	r.add("sim.shard2_speedup", "ratio", untraced/sum(shard.run).Seconds(), 1)

	perNode, err := w.footprint(seed)
	if err != nil {
		return fmt.Errorf("footprint: %w", err)
	}
	r.add("mem.allocs", "count", median(s.mallocs), len(s.mallocs))
	r.add("mem.bytes_per_node", "B", perNode, 1)
	return probeLayers(r, w.nodes(), seed)
}

func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func median(xs []float64) float64 {
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	return quantile(sorted, 0.5)
}

// quantile interpolates linearly between the closest ranks of sorted
// values; it is 0 for no values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
