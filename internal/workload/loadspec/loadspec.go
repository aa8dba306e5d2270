// Package loadspec resolves user-facing workload specifications — the
// -arrival / -trace / -trace-scale / -model / -synth flag set shared by
// cmd/p2pgridsim, cmd/wfgen and the service API's replay endpoint — into
// the parsed pieces the workload packages consume. Every entry point
// routes through ResolveOptions, so a malformed spec produces the same
// error text whether it arrived as a CLI flag or an HTTP request field,
// and the combination rules (-trace only pairs with trace replay,
// -trace-scale needs a trace or model, -model excludes -arrival/-trace,
// -synth needs -model) are enforced once instead of per front end.
//
// A fitted model (-model, see internal/workload/mining) resolves into a
// synthesized trace, so downstream it flows through the exact machinery
// trace replay uses; -trace-scale applies after synthesis, per the rule
// "fit on unscaled times, synthesize, then scale" (docs/workloads.md).
package loadspec

import (
	"fmt"
	"math"

	"repro/internal/workload/arrival"
	"repro/internal/workload/mining"
	"repro/internal/workload/traces"
)

// Spec is a resolved, eagerly validated workload specification.
type Spec struct {
	// Arrival is the parsed arrival process (zero value: the paper's
	// batch load at t=0).
	Arrival arrival.Spec
	// Trace is the loaded (and submit-time-scaled) trace for trace
	// replay; nil otherwise.
	Trace *traces.Trace
}

// Options is the full workload-source flag set a front end can offer.
type Options struct {
	// Arrival is an arrival.Parse expression ("" = none): batch,
	// poisson:RATE, mmpp:RATE[:BURST], diurnal:RATE[:PERIODH], trace.
	Arrival string
	// Trace names an SWF/GWA trace file, "sample" selecting the bundled
	// demo trace. A trace alone (no arrival spec) selects trace replay;
	// combined with any arrival kind other than trace it is an error.
	// "trace" with no path defaults to the sample trace.
	Trace string
	// TraceScale multiplies trace submit times (compressing a multi-day
	// trace into a shorter horizon); 0 and 1 mean unscaled. For models it
	// applies to the synthesized schedule, never to the fit.
	TraceScale float64
	// Model names a fitted model artifact (wfgen -fit output). Mutually
	// exclusive with Arrival and Trace: the model is the workload source.
	Model string
	// Synth is the synthesis job count when Model is set; 0 means the
	// model's own fitted job count. Requires Model.
	Synth int
	// Seed drives model synthesis (ignored otherwise).
	Seed int64
}

// ResolveOptions parses and validates a workload specification (see the
// Options fields for the combination rules).
func ResolveOptions(o Options) (Spec, error) {
	var out Spec
	if o.Model != "" {
		if o.Arrival != "" || o.Trace != "" {
			return Spec{}, fmt.Errorf("-model is the workload source; it combines with neither -arrival nor -trace")
		}
		m, err := mining.Load(o.Model)
		if err != nil {
			return Spec{}, err
		}
		n := o.Synth
		if n == 0 {
			n = m.Jobs
		}
		jobs, err := mining.Synthesize(m, n, o.Seed)
		if err != nil {
			return Spec{}, err
		}
		out.Trace = &traces.Trace{Name: fmt.Sprintf("model:%s:n%d", m.Source, n), Jobs: jobs}
	} else if o.Synth != 0 {
		return Spec{}, fmt.Errorf("-synth needs -model")
	}
	arrivalSpec, tracePath, traceScale := o.Arrival, o.Trace, o.TraceScale
	if arrivalSpec != "" {
		spec, err := arrival.Parse(arrivalSpec)
		if err != nil {
			return Spec{}, err
		}
		out.Arrival = spec
	}
	if tracePath == "sample" {
		out.Trace = traces.Sample()
	} else if tracePath != "" {
		tr, err := traces.Load(tracePath)
		if err != nil {
			return Spec{}, err
		}
		out.Trace = tr
	}
	if out.Arrival.Kind == arrival.KindTrace {
		if out.Trace == nil {
			out.Trace = traces.Sample()
		}
	} else if out.Trace != nil && arrivalSpec != "" {
		return Spec{}, fmt.Errorf("-trace combines only with -arrival trace (or no -arrival), not %q", arrivalSpec)
	}
	if traceScale != 0 && traceScale != 1 {
		if !(traceScale > 0) || math.IsInf(traceScale, 1) {
			return Spec{}, fmt.Errorf("-trace-scale must be positive and finite, got %v", traceScale)
		}
		if out.Trace == nil {
			return Spec{}, fmt.Errorf("-trace-scale needs a trace (-trace FILE, -arrival trace or -model FILE)")
		}
		out.Trace = out.Trace.Scale(traceScale)
		if math.IsInf(out.Trace.Span(), 1) {
			return Spec{}, fmt.Errorf("-trace-scale %v overflows the trace's last submit time", traceScale)
		}
	}
	return out, nil
}
