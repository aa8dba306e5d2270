package loadspec

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/workload/arrival"
	"repro/internal/workload/mining"
	"repro/internal/workload/traces"
)

func TestResolve(t *testing.T) {
	// Plain arrival process, no trace.
	sp, err := Resolve("poisson:120", "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Arrival.Kind != arrival.KindPoisson || sp.Trace != nil {
		t.Fatalf("poisson spec resolved to %+v", sp)
	}

	// Empty spec: the batch workload.
	sp, err = Resolve("", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !sp.Arrival.IsBatch() || sp.Trace != nil {
		t.Fatalf("empty spec resolved to %+v", sp)
	}

	// "trace" alone defaults to the bundled sample; a bare -trace also
	// selects replay.
	for _, args := range [][2]string{{"trace", ""}, {"", "sample"}, {"trace", "sample"}} {
		sp, err = Resolve(args[0], args[1], 1)
		if err != nil {
			t.Fatalf("Resolve(%q, %q): %v", args[0], args[1], err)
		}
		if sp.Trace == nil || len(sp.Trace.Jobs) == 0 {
			t.Fatalf("Resolve(%q, %q) left Trace empty", args[0], args[1])
		}
	}

	// Scaling compresses submit times.
	full, _ := Resolve("trace", "", 1)
	half, err := Resolve("trace", "", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	fj, hj := full.Trace.Jobs, half.Trace.Jobs
	last := len(fj) - 1
	if hj[last].Submit != fj[last].Submit*0.5 {
		t.Fatalf("trace scale 0.5: last submit %v, want %v", hj[last].Submit, fj[last].Submit*0.5)
	}
}

func TestResolveErrors(t *testing.T) {
	cases := []struct {
		arrival, trace string
		scale          float64
		wantErr        string
	}{
		{"poisson:nope", "", 1, "poisson"},
		{"poisson:60", "sample", 1, "-trace combines only with -arrival trace"},
		{"trace", "sample", -2, "-trace-scale must be positive"},
		{"trace", "sample", math.NaN(), "-trace-scale must be positive"},
		{"trace", "sample", math.Inf(1), "-trace-scale must be positive"},
		{"trace", "sample", math.Inf(-1), "-trace-scale must be positive"},
		{"trace", "sample", math.MaxFloat64, "overflows"},
		{"poisson:60", "", 0.5, "-trace-scale needs a trace"},
		{"", "no-such-file.swf", 1, "no-such-file.swf"},
	}
	for _, tc := range cases {
		_, err := Resolve(tc.arrival, tc.trace, tc.scale)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("Resolve(%q, %q, %v) = %v, want error containing %q",
				tc.arrival, tc.trace, tc.scale, err, tc.wantErr)
		}
	}
}

// A fitted model resolves into a synthesized trace; -synth rescales it;
// -trace-scale applies to the synthesized schedule (after synthesis).
func TestResolveModel(t *testing.T) {
	m, err := mining.Fit(traces.Sample())
	if err != nil {
		t.Fatal(err)
	}
	data, err := mining.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Default count: the model's own fitted job count.
	sp, err := ResolveOptions(Options{Model: path, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if sp.Trace == nil || len(sp.Trace.Jobs) != m.Jobs {
		t.Fatalf("model resolve: %+v, want %d synthesized jobs", sp.Trace, m.Jobs)
	}
	if want := "model:sample.swf:n42"; sp.Trace.Name != want {
		t.Errorf("trace name %q, want %q", sp.Trace.Name, want)
	}
	if !sp.Arrival.IsBatch() {
		t.Errorf("model resolve set arrival %+v; the synthesized trace is the source", sp.Arrival)
	}

	// -synth overrides the scale; same seed, same prefix determinism is
	// the synthesizer's business — here we check the plumbing.
	big, err := ResolveOptions(Options{Model: path, Synth: 300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(big.Trace.Jobs) != 300 {
		t.Fatalf("synth 300: got %d jobs", len(big.Trace.Jobs))
	}

	// -trace-scale multiplies the synthesized submit times (fit on
	// unscaled times, synthesize, then scale).
	scaled, err := ResolveOptions(Options{Model: path, Synth: 300, Seed: 5, TraceScale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	last := len(big.Trace.Jobs) - 1
	if got, want := scaled.Trace.Jobs[last].Submit, big.Trace.Jobs[last].Submit*0.5; got != want {
		t.Fatalf("scaled last submit %v, want %v", got, want)
	}

	// Combination rules.
	for _, tc := range []struct {
		o       Options
		wantErr string
	}{
		{Options{Model: path, Arrival: "poisson:60"}, "combines with neither"},
		{Options{Model: path, Trace: "sample"}, "combines with neither"},
		{Options{Synth: 100}, "-synth needs -model"},
		{Options{Model: "no-such-model.json"}, "no-such-model.json"},
	} {
		if _, err := ResolveOptions(tc.o); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("ResolveOptions(%+v) = %v, want error containing %q", tc.o, err, tc.wantErr)
		}
	}
}

// A trace loaded from a file path goes through traces.Load.
func TestResolveLoadsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.swf")
	swf := "; tiny trace\n1 0 0 100 2 -1 -1 2 -1 -1\n2 30 0 50 1 -1 -1 1 -1 -1\n"
	if err := os.WriteFile(path, []byte(swf), 0o644); err != nil {
		t.Fatal(err)
	}
	sp, err := Resolve("trace", path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Trace.Jobs) != 2 {
		t.Fatalf("loaded %d jobs, want 2", len(sp.Trace.Jobs))
	}
}
