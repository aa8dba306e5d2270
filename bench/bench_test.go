package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
	"time"

	"repro/internal/economy"
	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/heuristics"
	"repro/internal/workload/arrival"
)

var tiny = experiments.Scale{Name: "bench-test", Nodes: 24, LoadFactor: 2, HorizonHours: 6, SnapshotHours: 1}

// assemblyCases cover list, matrix and DBC planning with prices and SLAs,
// a full-ahead planner, churn with rescheduling, and Poisson arrivals.
func assemblyCases(t *testing.T) map[string]experiments.Setting {
	t.Helper()
	base := func() experiments.Setting { return experiments.NewSetting(tiny, 2010) }
	priced := base()
	var err error
	if priced.Price, err = economy.ParsePrice("1:0.3"); err != nil {
		t.Fatal(err)
	}
	if priced.SLA, err = economy.ParseSLA("both:4:2"); err != nil {
		t.Fatal(err)
	}
	churn := base()
	churn.Homes = tiny.Nodes / 2
	churn.RescheduleFailed = true
	churn.Churn = grid.ChurnConfig{DynamicFactor: 0.3, StableCount: tiny.Nodes / 2, Seed: 7}
	poisson := base()
	if poisson.Arrival, err = arrival.Parse("poisson:20"); err != nil {
		t.Fatal(err)
	}
	return map[string]experiments.Setting{
		"DSMF": base(), "min-min": base(), "DBC-ct": priced, "HEFT": base(),
		"SMF": churn, "sufferage": poisson,
	}
}

// runRecord is what experiments.Run reports about a run, in comparable form.
type runRecord struct {
	Collector, Final                string
	CCR                             float64
	Submitted, Dropped, Unsubmitted int
}

func reduce(t *testing.T, r experiments.Result) runRecord {
	t.Helper()
	col, err := json.Marshal(r.Collector)
	if err != nil {
		t.Fatal(err)
	}
	final, err := json.Marshal(r.Final)
	if err != nil {
		t.Fatal(err)
	}
	return runRecord{string(col), string(final), r.CCR, r.Submitted, r.Dropped, r.Unsubmitted}
}

// TestAssemblyMatchesExperimentsRun pins the bench's layer-by-layer
// assembly to experiments.Run bit for bit, and checks that the traced
// wrappers leave the result digest unchanged.
func TestAssemblyMatchesExperimentsRun(t *testing.T) {
	for algo, setting := range assemblyCases(t) {
		t.Run(algo, func(t *testing.T) {
			a, err := heuristics.ByName(algo)
			if err != nil {
				t.Fatal(err)
			}
			want, err := experiments.Run(setting, a)
			if err != nil {
				t.Fatal(err)
			}
			digest := func(tr *tracer) string {
				s := setting
				r, err := setupSim(&s, algo, tr)
				if err != nil {
					t.Fatal(err)
				}
				r.run(nil)
				if got := reduce(t, r.result()); got != reduce(t, want) {
					t.Fatalf("bench assembly differs from experiments.Run:\n got  %+v\n want %+v", got, reduce(t, want))
				}
				d, err := r.digest()
				if err != nil {
					t.Fatal(err)
				}
				return d
			}
			untraced := digest(nil)
			tr := newTracer()
			tr.beginRun(algo, true)
			if traced := digest(tr); traced != untraced {
				t.Fatalf("traced digest %s, untraced %s", traced, untraced)
			}
			if len(tr.spans) == 0 || len(tr.stack) != 0 {
				t.Fatalf("traced run left %d spans, %d open", len(tr.spans), len(tr.stack))
			}
		})
	}
}

// TestFastest checks that a time keeps each part's least value and that
// repetitions split differently are refused.
func TestFastest(t *testing.T) {
	var f fastest
	for _, parts := range [][]time.Duration{{5, 1, 7}, {3, 4, 9}, {6, 2, 6}} {
		if err := f.add(parts); err != nil {
			t.Fatal(err)
		}
	}
	if want := (fastest{3, 1, 6}); !slices.Equal(f, want) {
		t.Fatalf("fastest %v, want %v", f, want)
	}
	if sum(f) != 10 {
		t.Fatalf("sum %v, want 10", sum(f))
	}
	if err := f.add([]time.Duration{1, 1}); err == nil {
		t.Fatal("a repetition with fewer parts was accepted")
	}
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// TestBenchmarkFileMatchesProgram checks that BENCHMARK.json declares
// exactly the program's workloads, each with a pinned digest.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf := loadBenchmarkFile(t)
	pins := map[string]string{}
	if err := json.Unmarshal(pinnedJSON, &pins); err != nil {
		t.Fatalf("digests.json: %v", err)
	}
	var declared []string
	for _, w := range bf.Workloads {
		declared = append(declared, w.Name)
	}
	var program []string
	for _, nw := range workloads {
		program = append(program, nw.name)
		if pins[nw.name] == "" {
			t.Errorf("no pinned digest for %s", nw.name)
		}
	}
	if !slices.Equal(declared, program) {
		t.Fatalf("BENCHMARK.json workloads %v, program %v", declared, program)
	}
}

// smokeWorkloads are reduced versions of every workload kind.
func smokeWorkloads() map[string]benchWorkload {
	small := experiments.Scale{Name: "smoke", Nodes: 16, LoadFactor: 1, HorizonHours: 3, SnapshotHours: 1}
	return map[string]benchWorkload{
		"sim": simWorkload{scale: small, algos: []string{"DSMF", "min-min"}, instances: 2,
			arrival: mustParse(arrival.Parse("poisson:20"))},
		"daemon": daemonWorkload{scale: small, algo: "DSMF", arrivals: 30,
			arrival: mustParse(arrival.Parse("poisson:20")), scrapeEvery: 3600, tail: 3600},
		"sweep": sweepWorkload{spec: experiments.SweepSpec{
			Name: "smoke", Scales: []experiments.Scale{small}, Algorithms: []string{"DSMF", "HEFT"}, Reps: 1,
			ChurnFactors: []float64{0, 0.4}, ChurnLayout: true, Reschedule: true,
		}},
	}
}

// TestSmoke runs every workload kind at reduced size in both modes and
// checks the printed result: valid metric names, exactly the metrics
// BENCHMARK.json declares for the mode, and a loadable span export.
func TestSmoke(t *testing.T) {
	bf := loadBenchmarkFile(t)
	var endToEnd, perLayer []string
	for _, m := range bf.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range bf.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	slices.Sort(endToEnd)
	slices.Sort(perLayer)
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for kind, w := range smokeWorkloads() {
		for _, traced := range []bool{false, true} {
			out := filepath.Join(t.TempDir(), "trace.json")
			if !traced {
				out = ""
			}
			rep, err := measure(kind, w, 2010, 0.01, traced, out, "", io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", kind, traced, err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("%s traced=%v: %d of %d operations failed", kind, traced, rep.failed, rep.attempted)
			}
			var names []string
			for _, m := range rep.metrics {
				if !valid.MatchString(m.name) {
					t.Errorf("metric name %q", m.name)
				}
				names = append(names, m.name)
			}
			slices.Sort(names)
			want := endToEnd
			if traced {
				want = perLayer
			}
			if !slices.Equal(names, want) {
				t.Errorf("%s traced=%v prints %v, BENCHMARK.json declares %v", kind, traced, names, want)
			}
			if traced {
				data, err := os.ReadFile(out)
				if err != nil {
					t.Fatal(err)
				}
				var doc struct {
					TraceEvents []struct{ Name, Ph string } `json:"traceEvents"`
				}
				if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) == 0 {
					t.Fatalf("%s span export: %v, %d events", kind, err, len(doc.TraceEvents))
				}
			}
		}
	}
}
