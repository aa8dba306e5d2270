// Command benchgate is the CI perf-regression gate: it parses `go test
// -bench` output, takes the per-metric median across -count repetitions,
// and compares it against the committed baseline (BENCH_baseline.json),
// failing on regressions beyond the baseline's thresholds.
//
// Usage:
//
//	go test -run=NONE -bench=BenchmarkSingleDSMFRun -benchmem -benchtime=20x -count=5 . \
//	    | go run ./cmd/benchgate -baseline BENCH_baseline.json
//
// ns/op is gated with a generous threshold (CI runners are noisy; the
// median across -count repetitions absorbs most of it). B/op is
// deterministic for this simulator, so the same threshold catches real
// allocation regressions exactly. allocs/op is deterministic to within one
// allocation, so its median may exceed the baseline by at most one. All
// three are averages over the b.N iterations, each its own seed, so they
// compare only at the iteration count the baseline was recorded at: input
// run at any other count is refused.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(gateMain(os.Args[1:], os.Stdout, os.Stderr))
}

// metricsBlock is one recorded measurement set.
type metricsBlock struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// thresholdBlock is a pair of relative regression bounds.
type thresholdBlock struct {
	NsPerOp    float64 `json:"ns_per_op"`
	BytesPerOp float64 `json:"bytes_per_op"`
}

// envBaseline is a per-environment baseline keyed by CPU model: hosted
// runners and dev machines differ enough in ns/op that one recorded host
// cannot gate them all sharply.
type envBaseline struct {
	CPU        string         `json:"cpu"`
	Recorded   string         `json:"recorded,omitempty"`
	Metrics    metricsBlock   `json:"metrics"`
	Thresholds thresholdBlock `json:"thresholds,omitempty"`
}

// calibrationBlock records the fixed-work calibration kernel's pass time
// on the recorded host (see calibrate.go). When present, the recorded-host
// fallback scales its ns/op baseline by (local pass time / recorded pass
// time) so unknown CPUs gate at the normal threshold instead of loosely.
type calibrationBlock struct {
	NsPerPass float64 `json:"ns_per_pass"`
}

// baseline mirrors BENCH_baseline.json (schema p2pgridsim/bench-baseline/v3;
// v2 files, without the baselines array, load and gate exactly as before,
// as do v3 files without the calibration block).
type baseline struct {
	Schema      string            `json:"schema"`
	Benchmark   string            `json:"benchmark"`
	Config      string            `json:"config"`
	Environment map[string]string `json:"environment"`
	Metrics     metricsBlock      `json:"metrics"`
	Thresholds  thresholdBlock    `json:"thresholds"`
	Calibration calibrationBlock  `json:"calibration,omitempty"`
	// Iterations is the b.N every recorded sample ran (-benchtime=Nx).
	// Without it allocs/op is reported but not gated.
	Iterations int `json:"iterations,omitempty"`
	// Baselines holds per-CPU entries; the top-level metrics are the
	// recorded-host fallback for CPUs without one.
	Baselines []envBaseline     `json:"baselines,omitempty"`
	History   []json.RawMessage `json:"history"`
}

// resolve selects the baseline for the given CPU model: the matching
// per-CPU entry when one exists (its zero thresholds fall back to the
// top-level ones), otherwise the recorded-host metrics. It rewrites
// b.Metrics/b.Thresholds in place and returns a report note naming the
// choice, plus whether the recorded-host fallback was selected (the case
// calibration then normalizes). Matching is case-insensitive on the
// trimmed model string.
func (b *baseline) resolve(cpu string) (note string, fallback bool) {
	norm := strings.ToLower(strings.TrimSpace(cpu))
	if norm != "" {
		for _, e := range b.Baselines {
			if strings.ToLower(strings.TrimSpace(e.CPU)) != norm {
				continue
			}
			b.Metrics = e.Metrics
			if e.Thresholds.NsPerOp > 0 {
				b.Thresholds.NsPerOp = e.Thresholds.NsPerOp
			}
			if e.Thresholds.BytesPerOp > 0 {
				b.Thresholds.BytesPerOp = e.Thresholds.BytesPerOp
			}
			return fmt.Sprintf("per-CPU baseline %q", e.CPU), false
		}
	}
	recorded := b.Environment["cpu"]
	if norm == "" {
		return fmt.Sprintf("recorded-host baseline (%s); local CPU model unknown", recorded), true
	}
	return fmt.Sprintf("recorded-host baseline (%s); no per-CPU entry for %q", recorded, cpu), true
}

// detectCPU reads the local CPU model (the per-CPU baseline key) from
// /proc/cpuinfo; on platforms without it the empty string selects the
// recorded-host fallback.
func detectCPU() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		key, val, ok := strings.Cut(line, ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return ""
}

// sample is one parsed benchmark result line.
type sample struct {
	iters       int // b.N, the line's iteration column
	nsPerOp     float64
	bytesPerOp  float64
	allocsPerOp float64
}

func gateMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		baselinePath = fs.String("baseline", "BENCH_baseline.json", "baseline JSON file")
		input        = fs.String("input", "-", "benchmark output file (- for stdin)")
		threshold    = fs.Float64("threshold", 0, "override both regression thresholds (0 = use the baseline's)")
		cpu          = fs.String("cpu", "", "CPU model selecting a per-CPU baseline entry (default: auto-detect from /proc/cpuinfo; unmatched models fall back to the recorded host)")
		calOnly      = fs.Bool("calibrate", false, "measure the fixed-work calibration kernel on this host, print its pass time, and exit (record it as the baseline's calibration.ns_per_pass)")
		calNS        = fs.Float64("calibration-ns", 0, "use this as the local calibration pass time instead of measuring (tests and pre-measured hosts)")
		calPasses    = fs.Int("calibration-passes", 5, "calibration kernel repetitions (the median is used)")
		candidate    = fs.String("record-candidate", "", "write a per-CPU baseline candidate entry (this host's medians + calibration) to this file, for hand promotion into the baseline's baselines array")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchgate: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *calPasses < 1 {
		fmt.Fprintf(stderr, "benchgate: -calibration-passes must be positive, got %d\n", *calPasses)
		return 2
	}
	if *calNS < 0 {
		fmt.Fprintf(stderr, "benchgate: -calibration-ns must be non-negative, got %v\n", *calNS)
		return 2
	}
	localCal := func() float64 {
		if *calNS > 0 {
			return *calNS
		}
		return calibrate(*calPasses)
	}
	if *calOnly {
		fmt.Fprintf(stdout, "benchgate: calibration %.0f ns/pass (median of %d)\n", localCal(), *calPasses)
		return 0
	}

	base, err := loadBaseline(*baselinePath)
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return 2
	}
	model := *cpu
	if model == "" {
		model = detectCPU()
	}
	note, fallback := base.resolve(model)
	fmt.Fprintf(stdout, "benchgate: using %s\n", note)
	measuredCal := 0.0
	if (fallback && base.Calibration.NsPerPass > 0) || *candidate != "" {
		measuredCal = localCal()
	}
	if fallback && base.Calibration.NsPerPass > 0 {
		// Calibrated fallback: scale the recorded ns/op to this host's
		// speed so the normal threshold gates sharply on unknown CPUs.
		ratio := measuredCal / base.Calibration.NsPerPass
		base.Metrics.NsPerOp *= ratio
		fmt.Fprintf(stdout, "benchgate: calibration %.2f ms/pass vs recorded %.2f ms/pass (ratio %.3f) — ns/op baseline normalized to this host\n",
			measuredCal/1e6, base.Calibration.NsPerPass/1e6, ratio)
	}
	in := io.Reader(os.Stdin)
	if *input != "-" {
		f, err := os.Open(*input)
		if err != nil {
			fmt.Fprintln(stderr, "benchgate:", err)
			return 2
		}
		defer f.Close()
		in = f
	}
	samples, err := parseBench(in, base.Benchmark)
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return 2
	}
	if n := base.Iterations; n > 0 {
		for _, s := range samples {
			if s.iters != n {
				fmt.Fprintf(stderr, "benchgate: %s ran %d iterations, but the baseline was recorded at %d; each iteration runs its own seed, so rerun with -benchtime=%dx\n",
					base.Benchmark, s.iters, n, n)
				return 2
			}
		}
	}
	if *candidate != "" {
		if err := writeCandidate(*candidate, base.Benchmark, model, samples, measuredCal, stdout); err != nil {
			fmt.Fprintln(stderr, "benchgate:", err)
			return 2
		}
	}

	nsThresh, bThresh := base.Thresholds.NsPerOp, base.Thresholds.BytesPerOp
	if *threshold > 0 {
		nsThresh, bThresh = *threshold, *threshold
	}
	report, failed := gate(base, samples, nsThresh, bThresh)
	fmt.Fprint(stdout, report)
	if failed {
		return 1
	}
	return 0
}

// candidateJSON is the -record-candidate artifact: the entry object is
// exactly the envBaseline shape, so promoting a new runner class is a
// copy-paste of that object into the baseline's baselines array once its
// medians have been observed across enough runs.
type candidateJSON struct {
	Schema         string      `json:"schema"`
	Benchmark      string      `json:"benchmark"`
	Samples        int         `json:"samples"`
	CalibrationNs  float64     `json:"calibration_ns_per_pass,omitempty"`
	PromoteComment string      `json:"promote"`
	Entry          envBaseline `json:"entry"`
}

// writeCandidate records this host's medians as a promotable per-CPU
// baseline entry and prints a human summary (CI surfaces it as a step
// summary next to the uploaded artifact).
func writeCandidate(path, benchmark, cpu string, samples []sample, calNs float64, stdout io.Writer) error {
	ns := make([]float64, len(samples))
	bs := make([]float64, len(samples))
	al := make([]float64, len(samples))
	for i, s := range samples {
		ns[i], bs[i], al[i] = s.nsPerOp, s.bytesPerOp, s.allocsPerOp
	}
	if cpu == "" {
		cpu = "unknown-cpu"
	}
	doc := candidateJSON{
		Schema:         "p2pgridsim/bench-candidate/v1",
		Benchmark:      benchmark,
		Samples:        len(samples),
		CalibrationNs:  calNs,
		PromoteComment: "append \"entry\" to the baselines array of BENCH_baseline.json once this runner class's medians look stable across runs",
		Entry: envBaseline{
			CPU:      cpu,
			Recorded: time.Now().UTC().Format("2006-01-02"),
			Metrics: metricsBlock{
				NsPerOp:     median(ns),
				BytesPerOp:  median(bs),
				AllocsPerOp: median(al),
			},
		},
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "benchgate: candidate baseline for %q written to %s\n", cpu, path)
	fmt.Fprintf(stdout, "  ns/op median %14.0f  (%d samples)\n", doc.Entry.Metrics.NsPerOp, len(samples))
	fmt.Fprintf(stdout, "  B/op  median %14.0f  allocs/op median %.0f\n", doc.Entry.Metrics.BytesPerOp, doc.Entry.Metrics.AllocsPerOp)
	if calNs > 0 {
		fmt.Fprintf(stdout, "  calibration  %11.2f ms/pass\n", calNs/1e6)
	}
	return nil
}

func loadBaseline(path string) (baseline, error) {
	var b baseline
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("parse %s: %w", path, err)
	}
	if b.Benchmark == "" {
		return b, fmt.Errorf("%s: missing benchmark name", path)
	}
	if b.Metrics.NsPerOp <= 0 || b.Metrics.BytesPerOp <= 0 {
		return b, fmt.Errorf("%s: missing baseline metrics", path)
	}
	if b.Thresholds.NsPerOp <= 0 {
		b.Thresholds.NsPerOp = 0.20
	}
	if b.Thresholds.BytesPerOp <= 0 {
		b.Thresholds.BytesPerOp = 0.20
	}
	return b, nil
}

// parseBench extracts every result line of the named benchmark from `go
// test -bench -benchmem` output. Lines look like:
//
//	BenchmarkSingleDSMFRun-8   20   62782550 ns/op   2057747 B/op   22730 allocs/op
//
// The -N GOMAXPROCS suffix is optional and ignored.
func parseBench(r io.Reader, name string) ([]sample, error) {
	var out []sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 {
			continue
		}
		bench := fields[0]
		if i := strings.LastIndex(bench, "-"); i > 0 {
			if _, err := strconv.Atoi(bench[i+1:]); err == nil {
				bench = bench[:i]
			}
		}
		if bench != name {
			continue
		}
		iters, err := strconv.Atoi(fields[1])
		if err != nil {
			continue
		}
		s := sample{iters: iters}
		ok := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				s.nsPerOp = v
				ok = true
			case "B/op":
				s.bytesPerOp = v
			case "allocs/op":
				s.allocsPerOp = v
			}
		}
		if ok {
			out = append(out, s)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no %s results found in input (need `go test -bench=%s -benchmem`)", name, name)
	}
	return out, nil
}

func median(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// allocSlack is how far the allocs/op median may exceed its baseline.
const allocSlack = 1

// gate compares sample medians against the baseline and renders the
// verdict. It fails on ns/op or B/op medians above baseline*(1+threshold),
// and, when the baseline records its iteration count, on an allocs/op
// median more than allocSlack above its baseline.
func gate(base baseline, samples []sample, nsThresh, bThresh float64) (report string, failed bool) {
	ns := make([]float64, len(samples))
	bs := make([]float64, len(samples))
	al := make([]float64, len(samples))
	for i, s := range samples {
		ns[i], bs[i], al[i] = s.nsPerOp, s.bytesPerOp, s.allocsPerOp
	}
	var b strings.Builder
	fmt.Fprintf(&b, "benchgate: %s, median of %d runs vs baseline (%s, %s)\n",
		base.Benchmark, len(samples), base.Environment["cpu"], base.Environment["go"])
	// check fails got when it is both more than thresh (relative) and
	// more than slack (absolute) above want; an ungated metric is only
	// reported.
	check := func(metric string, got, want, thresh, slack float64, gated bool) {
		if gated && got <= 0 {
			// A gated metric missing from the input (e.g. B/op without
			// -benchmem) must fail, not masquerade as an improvement.
			fmt.Fprintf(&b, "  %-10s %14s  baseline %14.0f  %8s  FAIL (metric missing - run with -benchmem)\n",
				metric, "absent", want, "")
			failed = true
			return
		}
		delta := got/want - 1
		verdict := "ok"
		switch {
		case !gated:
			verdict = "info (the baseline records no iteration count)"
		case delta > thresh && got-want > slack:
			verdict = fmt.Sprintf("FAIL (> +%.0f%%)", thresh*100)
			if slack > 0 {
				verdict = fmt.Sprintf("FAIL (> +%.0f)", slack)
			}
			failed = true
		case delta < -thresh && want-got > slack:
			verdict = "improved - consider refreshing the baseline"
		}
		fmt.Fprintf(&b, "  %-10s %14.0f  baseline %14.0f  %+7.2f%%  %s\n",
			metric, got, want, delta*100, verdict)
	}
	check("ns/op", median(ns), base.Metrics.NsPerOp, nsThresh, 0, true)
	check("B/op", median(bs), base.Metrics.BytesPerOp, bThresh, 0, true)
	if base.Metrics.AllocsPerOp > 0 {
		check("allocs/op", median(al), base.Metrics.AllocsPerOp, 0, allocSlack, base.Iterations > 0)
	}
	return b.String(), failed
}
