package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/economy"
	"repro/internal/workload/arrival"
)

// TestPromExpositionWellFormed is the /metrics audit: parse the exposition
// line by line on a priced daemon that has done real work and reject any
// untyped, HELP-less, duplicated, or off-prefix series. The grid histogram
// families must be present with _bucket/_sum/_count and at least four of
// them populated by the driven traffic.
func TestPromExpositionWellFormed(t *testing.T) {
	s := newTiny(t, func(c *Config) { c.Price = economy.PriceSpec{BaseRate: 1} })
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(SubmitRequest{}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	if _, err := s.AdvanceTo(24 * 3600); err != nil {
		t.Fatalf("AdvanceTo: %v", err)
	}
	rec := httptest.NewRecorder()
	Handler(s).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("scrape status %d", rec.Code)
	}
	if got := rec.Header().Get("Content-Type"); !strings.Contains(got, "version=0.0.4") {
		t.Fatalf("content type %q", got)
	}

	help := map[string]bool{}
	typed := map[string]string{}
	sampled := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(rec.Body.String(), "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)[0]
			if help[name] {
				t.Fatalf("duplicate HELP for %s", name)
			}
			help[name] = true
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			if _, dup := typed[fields[0]]; dup {
				t.Fatalf("duplicate TYPE for %s", fields[0])
			}
			typed[fields[0]] = fields[1]
		case line == "":
			t.Fatal("blank line in exposition")
		default:
			name := line
			if i := strings.IndexAny(line, "{ "); i >= 0 {
				name = line[:i]
			}
			sampled[name] = true
		}
	}
	family := func(series string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(series, suf)
			if base != series && typed[base] == "histogram" {
				return base
			}
		}
		return series
	}
	for series := range sampled {
		fam := family(series)
		if !strings.HasPrefix(fam, "p2pgrid_") {
			t.Errorf("series %s outside the p2pgrid_ namespace", series)
		}
		if typed[fam] == "" {
			t.Errorf("series %s has no TYPE line", series)
		}
		if !help[fam] {
			t.Errorf("series %s has no HELP line", series)
		}
	}
	for fam, typ := range typed {
		if !help[fam] {
			t.Errorf("family %s typed but missing HELP", fam)
		}
		if typ != "histogram" && !sampled[fam] {
			t.Errorf("family %s declared but never sampled", fam)
		}
		if typ == "histogram" {
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if !sampled[fam+suf] {
					t.Errorf("histogram %s missing %s series", fam, suf)
				}
			}
		}
	}
	// The driven traffic must populate at least four histogram families
	// (completion, queue wait, exec, transfer; gossip staleness and DBC
	// candidates depend on algorithm and topology).
	populated := 0
	for fam, typ := range typed {
		if typ == "histogram" && strings.Contains(rec.Body.String(), fam+"_count ") &&
			!strings.Contains(rec.Body.String(), fam+"_count 0\n") {
			populated++
		}
	}
	if populated < 4 {
		t.Fatalf("only %d histogram families populated after traffic, want >= 4:\n%s", populated, rec.Body.String())
	}
}

// TestWorkflowTraceHTTP exercises the span export route: a completed
// workflow yields a structurally valid, non-empty Chrome trace-event
// document; unknown and malformed ids map to 404/400.
func TestWorkflowTraceHTTP(t *testing.T) {
	s := newTiny(t, nil)
	if _, err := s.Submit(SubmitRequest{Name: "traced"}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := s.AdvanceTo(24 * 3600); err != nil {
		t.Fatalf("AdvanceTo: %v", err)
	}
	h := Handler(s)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/workflows/0/trace", nil))
	if rec.Code != 200 || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("trace route: %d %q\n%s", rec.Code, rec.Header().Get("Content-Type"), rec.Body)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
			Name string  `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("trace body is not JSON: %v", err)
	}
	var spans int
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" && e.Ph != "i" && e.Ph != "M" {
			t.Fatalf("unexpected phase %q", e.Ph)
		}
		if e.Dur < 0 {
			t.Fatalf("negative duration in %+v", e)
		}
		if e.Ph == "X" {
			spans++
		}
	}
	if spans == 0 {
		t.Fatalf("no spans for a completed workflow:\n%s", rec.Body)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/workflows/99/trace", nil))
	if rec.Code != 404 {
		t.Fatalf("unknown workflow trace: %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/workflows/xyz/trace", nil))
	if rec.Code != 400 {
		t.Fatalf("bad id trace: %d", rec.Code)
	}
}

// TestSoakDigestUnchangedByObservability pins the invisible-to-artifacts
// contract at the daemon level: the soak digest of a service with its
// tap (metrics and trace ring) surgically removed equals the digest of an
// untouched twin. Observation must never steer the simulation.
func TestSoakDigestUnchangedByObservability(t *testing.T) {
	soak := SoakConfig{
		N:           300,
		Arrival:     arrival.Spec{Kind: arrival.KindPoisson, RatePerHour: 400},
		Seed:        42,
		TailSeconds: 24 * 3600,
	}
	run := func(strip bool) SoakReport {
		s := newTiny(t, func(c *Config) { c.MaxInFlight = 64 })
		if strip {
			s.g.Cfg.Tap = nil
		}
		rep, err := RunSoak(s, soak)
		if err != nil {
			t.Fatalf("RunSoak: %v", err)
		}
		s.Close()
		return rep
	}
	with := run(false)
	without := run(true)
	if with.Digest != without.Digest {
		t.Fatalf("observability changed the soak digest:\nwith    %s\nwithout %s", with.Digest, without.Digest)
	}
	if m := with.Final; m.Snapshot.Completed == 0 {
		t.Fatalf("soak completed nothing: %+v", m)
	}
}

// TestDaemonObservabilityBytes pins the daemon's two tap consumers byte
// for byte: the /metrics exposition (histograms, DBC candidate counts
// included) and one workflow's trace export of a priced DBC-ct daemon
// after a fixed soak, as recorded before the grid reported through one
// tap.
func TestDaemonObservabilityBytes(t *testing.T) {
	s := newTiny(t, func(c *Config) {
		c.Algo = "DBC-ct"
		c.Price = economy.PriceSpec{BaseRate: 1, Spread: 0.3}
		c.MaxInFlight = 64
	})
	soak := SoakConfig{
		N:           300,
		Arrival:     arrival.Spec{Kind: arrival.KindPoisson, RatePerHour: 400},
		Seed:        42,
		TailSeconds: 24 * 3600,
	}
	if _, err := RunSoak(s, soak); err != nil {
		t.Fatalf("RunSoak: %v", err)
	}
	if s.ObsSnapshot().Phase1Candidates.Count() == 0 {
		t.Fatal("the soak observed no DBC candidate counts")
	}
	pins := map[string]string{
		"/metrics":              "54730bec7923d5580552e8d60a6bfb7344e4aefeeb9f799396a2496ab485f6d5",
		"/v1/workflows/0/trace": "163c330e638a9632d30a39a68ab05de22a5cd3480a255497b8fcf1c36261b7ed",
	}
	for path, want := range pins {
		rec := httptest.NewRecorder()
		Handler(s).ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("%s: status %d", path, rec.Code)
		}
		sum := sha256.Sum256(rec.Body.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s body digest %s, want %s", path, got, want)
		}
	}
}
