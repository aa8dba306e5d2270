// Package traces parses SWF/GWA-style grid workload traces (Standard
// Workload Format: one whitespace-separated record per job, `;` comment
// header) into the few fields the simulator replays: submit time, runtime
// and processor count. Parsed traces drive two things: the arrival
// schedule (submit offsets become virtual submission times) and the
// workload shaping rule (runtime x procs is the job's total CPU-seconds,
// which the workload generator maps onto a Table I DAG by uniformly
// rescaling its task loads — see workload.Generate).
//
// The format references are the Parallel Workloads Archive's SWF
// definition and the Grid Workloads Archive's GWF, which shares the
// leading fields this package reads: job number, submit time (s), wait
// time (s), run time (s), number of allocated processors. SWF encodes
// missing values as -1; jobs with unusable runtime or processor counts
// are skipped (and counted), not errors.
package traces

import (
	"bufio"
	_ "embed"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/workload/arrival"
)

// Job is one replayable trace record. Submit is in seconds from the start
// of the (normalized) trace; Runtime in seconds; Procs >= 1.
type Job struct {
	ID      int     `json:"id"`
	Submit  float64 `json:"submit"`
	Runtime float64 `json:"runtime"`
	Procs   int     `json:"procs"`
}

// CPUSeconds returns the job's total work, runtime x procs: the quantity
// the workload scaling rule preserves.
func (j Job) CPUSeconds() float64 { return j.Runtime * float64(j.Procs) }

// Trace is a parsed workload trace: jobs sorted by submit time, submit
// offsets normalized so the first job arrives at 0.
type Trace struct {
	Name    string
	Jobs    []Job
	Skipped int // records dropped for SWF -1 sentinels (unknown runtime/procs)
}

// Span returns the submit-time extent of the trace in seconds.
func (t *Trace) Span() float64 {
	if len(t.Jobs) == 0 {
		return 0
	}
	return t.Jobs[len(t.Jobs)-1].Submit
}

// ArrivalSpec converts the trace's submit schedule into a trace-replay
// arrival spec.
func (t *Trace) ArrivalSpec() arrival.Spec {
	times := make([]float64, len(t.Jobs))
	for i, j := range t.Jobs {
		times[i] = j.Submit
	}
	return arrival.Spec{Kind: arrival.KindTrace, Times: times}
}

// Scale returns a copy of the trace with every submit time multiplied by
// factor: the knob that compresses a days-long trace into a simulation
// horizon (or stretches a short one).
func (t *Trace) Scale(factor float64) *Trace {
	out := &Trace{Name: t.Name, Jobs: append([]Job(nil), t.Jobs...), Skipped: t.Skipped}
	for i := range out.Jobs {
		out.Jobs[i].Submit *= factor
	}
	return out
}

// parseSWFLine parses one SWF record. It returns ok=false with a nil
// error for lines that are legitimately not jobs: comments (`;` or `#`),
// blank lines, and records whose runtime or processor count is the SWF
// "unknown" sentinel (-1 or 0). Structurally malformed lines — too few
// fields, non-numeric leading fields, negative submit times — return an
// error.
func parseSWFLine(line string) (j Job, ok bool, err error) {
	s := strings.TrimSpace(line)
	if s == "" || s[0] == ';' || s[0] == '#' {
		return Job{}, false, nil
	}
	fields := strings.Fields(s)
	if len(fields) < 5 {
		return Job{}, false, fmt.Errorf("traces: record has %d fields, want at least 5 (job submit wait runtime procs)", len(fields))
	}
	id, err := strconv.Atoi(fields[0])
	if err != nil {
		return Job{}, false, fmt.Errorf("traces: job number %q: %w", fields[0], err)
	}
	submit, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return Job{}, false, fmt.Errorf("traces: submit time %q: %w", fields[1], err)
	}
	if submit < 0 || math.IsNaN(submit) || math.IsInf(submit, 0) {
		return Job{}, false, fmt.Errorf("traces: submit time %v out of range", submit)
	}
	runtime, err := strconv.ParseFloat(fields[3], 64)
	if err != nil {
		return Job{}, false, fmt.Errorf("traces: runtime %q: %w", fields[3], err)
	}
	if math.IsNaN(runtime) || math.IsInf(runtime, 0) {
		return Job{}, false, fmt.Errorf("traces: runtime %v out of range", runtime)
	}
	procs, err := strconv.Atoi(fields[4])
	if err != nil {
		return Job{}, false, fmt.Errorf("traces: processor count %q: %w", fields[4], err)
	}
	if procs <= 0 && len(fields) > 7 {
		// Fall back to the requested processor count (SWF field 8).
		if req, err := strconv.Atoi(fields[7]); err == nil {
			procs = req
		}
	}
	if runtime <= 0 || procs <= 0 {
		return Job{}, false, nil // SWF unknown sentinel: skip, never fail
	}
	return Job{ID: id, Submit: submit, Runtime: runtime, Procs: procs}, true, nil
}

// ParseSWF reads an SWF/GWF trace. Records arriving out of submit order
// are accepted and sorted (stably, preserving file order among ties);
// submit times are then normalized so the first arrival is at offset 0.
// A trace with no usable job records (empty file, comments only, or every
// record skipped) is an error.
func ParseSWF(name string, r io.Reader) (*Trace, error) {
	t := &Trace{Name: name}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		j, ok, err := parseSWFLine(sc.Text())
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", name, lineNo, err)
		}
		if !ok {
			if s := strings.TrimSpace(sc.Text()); s != "" && s[0] != ';' && s[0] != '#' {
				t.Skipped++
			}
			continue
		}
		t.Jobs = append(t.Jobs, j)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if len(t.Jobs) == 0 {
		return nil, fmt.Errorf("%s: no usable job records", name)
	}
	sort.SliceStable(t.Jobs, func(i, k int) bool { return t.Jobs[i].Submit < t.Jobs[k].Submit })
	start := t.Jobs[0].Submit
	for i := range t.Jobs {
		t.Jobs[i].Submit -= start
	}
	return t, nil
}

// Load reads an SWF trace from a file.
func Load(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseSWF(path, f)
}

//go:embed sample.swf
var sampleSWF string

// Sample returns the bundled demo trace: a small synthetic SWF modeled on
// a morning-burst grid log (42 jobs over about 5 hours, 1-8 processors,
// minutes-to-hour runtimes). It is embedded in the binary so trace-replay
// experiments run without any external file.
func Sample() *Trace {
	t, err := ParseSWF("sample.swf", strings.NewReader(sampleSWF))
	if err != nil {
		panic("traces: embedded sample trace invalid: " + err.Error())
	}
	return t
}
