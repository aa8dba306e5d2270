package service

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/workload/arrival"
	"repro/internal/workload/mining"
	"repro/internal/workload/traces"
)

func newTiny(t *testing.T, mut func(*Config)) *Service {
	t.Helper()
	cfg := Config{Scale: experiments.TinyScale, Seed: 7}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestSubmitStatusLifecycle(t *testing.T) {
	s := newTiny(t, nil)
	resp, err := s.Submit(SubmitRequest{Name: "wf-a"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if resp.ID != 0 || resp.Name != "wf-a" || resp.Tasks <= 0 {
		t.Fatalf("unexpected submit response %+v", resp)
	}
	st, err := s.Status(0)
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if st.State != "active" || len(st.Tasks) != resp.Tasks {
		t.Fatalf("fresh workflow: state %q, %d tasks (want active, %d)", st.State, len(st.Tasks), resp.Tasks)
	}
	// A day of virtual time is ample for one tiny-scale workflow.
	if _, err := s.AdvanceTo(24 * 3600); err != nil {
		t.Fatalf("AdvanceTo: %v", err)
	}
	st, err = s.Status(0)
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if st.State != "completed" {
		t.Fatalf("after a day: state %q, want completed", st.State)
	}
	if st.Done != resp.Tasks || st.Placed != resp.Tasks {
		t.Fatalf("done %d placed %d, want %d", st.Done, st.Placed, resp.Tasks)
	}
	if st.CompletedAt <= 0 || st.ACTSeconds != st.CompletedAt-st.SubmittedAt {
		t.Fatalf("completion times inconsistent: %+v", st)
	}
	if _, err := s.Status(99); err == nil {
		t.Fatalf("Status(99) should fail")
	}
}

func TestSubmitSourcesExclusive(t *testing.T) {
	s := newTiny(t, nil)
	_, err := s.Submit(SubmitRequest{
		Gen:   &GenRequest{Seed: 1},
		Trace: &TraceRequest{RuntimeSeconds: 100, Procs: 2},
	})
	if err == nil {
		t.Fatalf("gen+trace should be rejected")
	}
	if _, err := s.Submit(SubmitRequest{Trace: &TraceRequest{RuntimeSeconds: -1, Procs: 2}}); err == nil {
		t.Fatalf("negative runtime should be rejected")
	}
	// An explicit DAG via the JSON interchange format.
	raw := `{"name":"ex","tasks":[{"name":"a","load_mi":100},{"name":"b","load_mi":200}],"edges":[{"from":0,"to":1,"data_mb":10}]}`
	resp, err := s.Submit(SubmitRequest{Workflow: json.RawMessage(raw)})
	if err != nil {
		t.Fatalf("explicit workflow: %v", err)
	}
	if resp.Tasks != 2 {
		t.Fatalf("explicit workflow: %d tasks, want 2", resp.Tasks)
	}
}

// TestTraceSubmitScaling pins a trace job's size to the replay scaling
// rule: its workflow's total load is runtime x procs x 6.2 MI.
func TestTraceSubmitScaling(t *testing.T) {
	s := newTiny(t, nil)
	for _, tr := range []TraceRequest{{RuntimeSeconds: 3600, Procs: 4}, {RuntimeSeconds: 12.5, Procs: 1}} {
		resp, err := s.Submit(SubmitRequest{Trace: &tr})
		if err != nil {
			t.Fatalf("trace submit %+v: %v", tr, err)
		}
		want := tr.RuntimeSeconds * float64(tr.Procs) * 6.2
		if got := s.g.Workflows[resp.ID].W.TotalLoad(); math.Abs(got-want) > 1e-9*want {
			t.Fatalf("trace job %+v: total load %v MI, want %v", tr, got, want)
		}
	}
}

func TestBackpressure(t *testing.T) {
	s := newTiny(t, func(c *Config) { c.MaxInFlight = 4 })
	var admitted, rejected int
	for i := 0; i < 10; i++ {
		_, err := s.Submit(SubmitRequest{})
		switch {
		case err == nil:
			admitted++
		case errors.Is(err, ErrOverloaded):
			rejected++
		default:
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	if admitted != 4 || rejected != 6 {
		t.Fatalf("admitted %d rejected %d, want 4/6", admitted, rejected)
	}
	m := s.Snapshot()
	if m.Rejected != 6 || m.InFlight != 4 {
		t.Fatalf("snapshot counters %+v, want rejected 6 in-flight 4", m)
	}
	if s.RetryAfterSeconds() <= 0 {
		t.Fatalf("retry-after hint must be positive")
	}
	// Admission reopens once the backlog finishes.
	if _, err := s.AdvanceTo(24 * 3600); err != nil {
		t.Fatalf("AdvanceTo: %v", err)
	}
	if _, err := s.Submit(SubmitRequest{}); err != nil {
		t.Fatalf("post-drain submit: %v", err)
	}
}

func TestDrain(t *testing.T) {
	s := newTiny(t, nil)
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(SubmitRequest{}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	m, err := s.Drain()
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if m.InFlight != 0 || m.Snapshot.Completed != 3 {
		t.Fatalf("drained snapshot %+v, want 0 in flight / 3 completed", m)
	}
	if !m.Draining {
		t.Fatalf("final snapshot should report draining")
	}
	if _, err := s.Submit(SubmitRequest{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after drain: %v, want ErrClosed", err)
	}
	if _, err := s.Drain(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second drain: %v, want ErrClosed", err)
	}
}

func TestReplayDeterministicAndCounted(t *testing.T) {
	run := func() (ReplayResponse, MetricsResponse, string) {
		s := newTiny(t, nil)
		rr, err := s.Replay(ReplayRequest{Arrival: "poisson:120", Count: 40, Seed: 11})
		if err != nil {
			t.Fatalf("Replay: %v", err)
		}
		if _, err := s.AdvanceTo(rr.LastAt + 24*3600); err != nil {
			t.Fatalf("AdvanceTo: %v", err)
		}
		m := s.Snapshot()
		d, err := s.digest(m)
		if err != nil {
			t.Fatalf("digest: %v", err)
		}
		s.Close()
		return rr, m, d
	}
	ra, ma, da := run()
	rb, _, db := run()
	if ra != rb {
		t.Fatalf("replay acks differ: %+v vs %+v", ra, rb)
	}
	if ra.Scheduled != 40 || ra.SpanSeconds <= 0 {
		t.Fatalf("unexpected replay ack %+v", ra)
	}
	if ma.Pending != 0 {
		t.Fatalf("pending %d after full advance, want 0", ma.Pending)
	}
	if ma.Admitted+ma.Rejected+ma.Dropped != 40 {
		t.Fatalf("counters %d+%d+%d, want 40 total", ma.Admitted, ma.Rejected, ma.Dropped)
	}
	if da != db {
		t.Fatalf("replay digests differ:\n%s\n%s", da, db)
	}
}

func TestReplayTraceSample(t *testing.T) {
	s := newTiny(t, nil)
	rr, err := s.Replay(ReplayRequest{Trace: "sample"})
	if err != nil {
		t.Fatalf("Replay(trace): %v", err)
	}
	if rr.Scheduled <= 0 {
		t.Fatalf("sample trace scheduled %d arrivals", rr.Scheduled)
	}
	if _, err := s.AdvanceTo(rr.LastAt + 24*3600); err != nil {
		t.Fatalf("AdvanceTo: %v", err)
	}
	m := s.Snapshot()
	if m.Admitted != rr.Scheduled {
		t.Fatalf("admitted %d of %d trace arrivals", m.Admitted, rr.Scheduled)
	}
}

// TestReplayModel schedules a replay synthesized from a fitted workload
// model: deterministic for equal (model, synth, seed), exclusive with the
// arrival/trace fields, and counted like any other replay.
func TestReplayModel(t *testing.T) {
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

	run := func() ReplayResponse {
		s := newTiny(t, nil)
		defer s.Close()
		rr, err := s.Replay(ReplayRequest{Model: path, Synth: 25, Seed: 11})
		if err != nil {
			t.Fatalf("Replay(model): %v", err)
		}
		return rr
	}
	ra, rb := run(), run()
	if ra != rb {
		t.Fatalf("model replay acks differ: %+v vs %+v", ra, rb)
	}
	if ra.Scheduled != 25 || ra.SpanSeconds <= 0 {
		t.Fatalf("unexpected model replay ack %+v", ra)
	}

	s := newTiny(t, nil)
	defer s.Close()
	if _, err := s.Replay(ReplayRequest{Model: path, Arrival: "poisson:60"}); err == nil {
		t.Fatal("model + arrival accepted")
	}
	if _, err := s.Replay(ReplayRequest{Synth: 10}); err == nil {
		t.Fatal("synth without model accepted")
	}
}

func TestNextTask(t *testing.T) {
	s := newTiny(t, nil)
	if _, err := s.Submit(SubmitRequest{}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Advance into the first scheduling round so phase 1 dispatches.
	if _, err := s.AdvanceTo(2 * s.chunk); err != nil {
		t.Fatalf("AdvanceTo: %v", err)
	}
	busy := 0
	for n := 0; n < len(s.g.Nodes); n++ {
		resp, err := s.NextTask(n)
		if err != nil {
			t.Fatalf("NextTask(%d): %v", n, err)
		}
		if resp.Running != nil || resp.Next != nil || resp.Queued > 0 {
			busy++
		}
		if resp.Next != nil && resp.Ready == 0 {
			t.Fatalf("node %d: next task without ready tasks: %+v", n, resp)
		}
	}
	if busy == 0 {
		t.Fatalf("no node shows queued work after a scheduling round")
	}
	if _, err := s.NextTask(-1); err == nil {
		t.Fatalf("NextTask(-1) should fail")
	}
}

// TestSoakDeterminism is the service-mode determinism contract: two daemons
// built from the same config and fed the identical 10k-Poisson submission
// sequence over the virtual clock end in byte-identical state (digest over
// every workflow status plus the final snapshot). Admission control is part
// of the sequence: with the default in-flight bound a sizable fraction of
// the offered load is shed, identically in both runs.
func TestSoakDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-workflow soak skipped in -short")
	}
	soak := SoakConfig{
		N:       10000,
		Arrival: arrival.Spec{Kind: arrival.KindPoisson, RatePerHour: 400},
		Seed:    42,
		// Give the tail a day so the last admitted workflows finish.
		TailSeconds: 24 * 3600,
	}
	run := func() SoakReport {
		s := newTiny(t, func(c *Config) { c.MaxInFlight = 128 })
		rep, err := RunSoak(s, soak)
		if err != nil {
			t.Fatalf("RunSoak: %v", err)
		}
		s.Close()
		return rep
	}
	a := run()
	b := run()
	if a.Digest != b.Digest {
		t.Fatalf("soak digests differ:\n%s\n%s", a.Digest, b.Digest)
	}
	if a.Submitted != soak.N || a.Admitted+a.Rejected != soak.N {
		t.Fatalf("soak accounting: %+v", a)
	}
	if a.Admitted == 0 || a.Final.Snapshot.Completed == 0 {
		t.Fatalf("soak admitted/completed nothing: %+v", a)
	}
	t.Logf("soak: %d admitted, %d shed, %d completed, digest %s",
		a.Admitted, a.Rejected, a.Final.Snapshot.Completed, a.Digest[:16])
}

// TestWallClockPacerAndLeak exercises wall-clock mode end to end and checks
// that Drain leaves no goroutines behind.
func TestWallClockPacerAndLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	s := newTiny(t, func(c *Config) { c.Pace = 100000 }) // 100k virtual s per wall s
	if s.Clock() != "wall" {
		t.Fatalf("clock %q, want wall", s.Clock())
	}
	if _, err := s.AdvanceTo(100); !errors.Is(err, ErrWallClock) {
		t.Fatalf("explicit advance in wall mode: %v, want ErrWallClock", err)
	}
	if _, err := s.Submit(SubmitRequest{}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Now() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pacer never advanced the clock")
		}
		time.Sleep(10 * time.Millisecond)
	}
	m, err := s.Drain()
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if m.InFlight != 0 {
		t.Fatalf("drained with %d in flight", m.InFlight)
	}
	// Goroutine count settles asynchronously; retry briefly.
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after drain", before, runtime.NumGoroutine())
}

func TestHTTPAPI(t *testing.T) {
	s := newTiny(t, func(c *Config) { c.MaxInFlight = 2 })
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	post := func(path, body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		return resp, []byte(readAll(t, resp))
	}
	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp, []byte(readAll(t, resp))
	}

	// Submit twice (bound 2), third is shed with 429 + Retry-After.
	for i := 0; i < 2; i++ {
		resp, body := post("/v1/workflows", `{}`)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit %d: status %d body %s", i, resp.StatusCode, body)
		}
	}
	resp, body := post("/v1/workflows", `{}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over bound: status %d body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After header")
	}
	var errResp ErrorResponse
	if err := json.Unmarshal(body, &errResp); err != nil || errResp.RetryAfterSeconds <= 0 {
		t.Fatalf("429 body %s (err %v)", body, err)
	}

	// Status of workflow 0; unknown id is a 404; bad id a 400.
	if resp, body := get("/v1/workflows/0"); resp.StatusCode != http.StatusOK {
		t.Fatalf("status: %d %s", resp.StatusCode, body)
	}
	if resp, _ := get("/v1/workflows/99"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown workflow: status %d", resp.StatusCode)
	}
	if resp, _ := get("/v1/workflows/xyz"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad workflow id: status %d", resp.StatusCode)
	}

	// Advance the clock; malformed and unknown-field bodies are 400s.
	if resp, body := post("/v1/clock/advance", `{"by_seconds": 7200}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("advance: %d %s", resp.StatusCode, body)
	} else {
		var adv AdvanceResponse
		if err := json.Unmarshal(body, &adv); err != nil || adv.NowSeconds != 7200 {
			t.Fatalf("advance response %s (err %v)", body, err)
		}
	}
	if resp, _ := post("/v1/clock/advance", `{"nope": 1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d", resp.StatusCode)
	}
	if resp, _ := post("/v1/clock/advance", `{"to_seconds": -5}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative target: status %d", resp.StatusCode)
	}

	// Next-task preview and metrics.
	if resp, body := get("/v1/nodes/0/next-task"); resp.StatusCode != http.StatusOK {
		t.Fatalf("next-task: %d %s", resp.StatusCode, body)
	}
	if resp, _ := get("/v1/nodes/9999/next-task"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown node: status %d", resp.StatusCode)
	}
	var m MetricsResponse
	if resp, body := get("/v1/metrics"); resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d %s", resp.StatusCode, body)
	} else if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("metrics body: %v", err)
	}
	if m.Schema != "p2pgridsim/api/v1" || m.Clock != "virtual" || m.Rejected != 1 {
		t.Fatalf("metrics %+v", m)
	}
	if resp, body := get("/metrics"); resp.StatusCode != http.StatusOK ||
		!strings.Contains(string(body), "p2pgrid_workflows_in_flight") ||
		!strings.Contains(string(body), "# TYPE p2pgrid_submissions_rejected_total counter") {
		t.Fatalf("prometheus scrape: %d\n%s", resp.StatusCode, body)
	}

	// Replay over HTTP.
	if resp, body := post("/v1/workflows/replay", `{"arrival":"poisson:60","count":5}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("replay: %d %s", resp.StatusCode, body)
	}
	if resp, _ := post("/v1/workflows/replay", `{"arrival":"bogus:1"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad replay spec: status %d", resp.StatusCode)
	}

	if resp, _ := get("/v1/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}
