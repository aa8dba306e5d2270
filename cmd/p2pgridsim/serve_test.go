package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestServeFlagValidation pins the -serve flag-combination contract.
func TestServeFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"pace without serve", []string{"-pace", "100"}},
		{"max-inflight without serve", []string{"-max-inflight", "8"}},
		{"serve with experiment", []string{"-serve", ":0", "-experiment", "sweep"}},
		{"serve with arrival", []string{"-serve", ":0", "-arrival", "poisson:60"}},
		{"serve with out", []string{"-serve", ":0", "-out", "x.json"}},
		{"serve with worker", []string{"-serve", ":0", "-worker", "dir"}},
		{"negative pace", []string{"-serve", ":0", "-pace", "-1"}},
		{"zero max-inflight", []string{"-serve", ":0", "-max-inflight", "0"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCLI(tc.args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2; stderr: %s", code, stderr)
			}
			if stderr == "" {
				t.Fatalf("no diagnostic on stderr")
			}
		})
	}
	// Unknown algorithm and unbindable address surface as runtime errors.
	if code, _, _ := runCLI("-serve", ":0", "-algo", "nope"); code != 1 {
		t.Fatalf("bad algo: exit %d, want 1", code)
	}
	if code, _, _ := runCLI("-serve", "256.0.0.1:99999"); code != 1 {
		t.Fatalf("bad address: exit %d, want 1", code)
	}
}

// TestServeLifecycle runs the daemon in-process: submit and replay over
// HTTP, advance the virtual clock, scrape metrics, then SIGTERM and
// require a clean drain (exit 0). The daemon is unpriced, so its economic
// series must read zero, and it logs JSON, so every log line must parse
// and the replay must leave an event.
func TestServeLifecycle(t *testing.T) {
	// A pre-bound listener would be cleaner, but the daemon owns its
	// socket; pick a free port and race-free enough for a test.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	done := make(chan struct {
		code   int
		stderr string
	}, 1)
	go func() {
		code, _, stderr := runCLI("-serve", addr, "-scale", "tiny", "-seed", "7", "-max-inflight", "4", "-log-format", "json")
		done <- struct {
			code   int
			stderr string
		}{code, stderr}
	}()

	base := "http://" + addr
	waitUp(t, base)

	resp, err := http.Post(base+"/v1/workflows", "application/json", strings.NewReader(`{"name":"smoke"}`))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	resp, err = http.Post(base+"/v1/workflows/replay", "application/json", strings.NewReader(`{"trace":"sample"}`))
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("replay: status %d", resp.StatusCode)
	}
	resp, err = http.Post(base+"/v1/clock/advance", "application/json", strings.NewReader(`{"by_seconds": 7200}`))
	if err != nil {
		t.Fatalf("advance: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("advance: status %d", resp.StatusCode)
	}
	resp, err = http.Get(base + "/v1/workflows/0")
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	var st struct {
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("status body: %v", err)
	}
	resp.Body.Close()
	if st.State == "" {
		t.Fatalf("empty workflow state")
	}
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); !strings.HasPrefix(got, "text/plain") {
		t.Fatalf("prometheus content type %q", got)
	}
	scrape := "\n" + string(body)
	if !strings.Contains(scrape, "\np2pgrid_workflows_completed_total ") {
		t.Fatalf("scrape lacks the completion counter:\n%s", body)
	}
	for _, name := range []string{
		"p2pgrid_deadline_misses_total",
		"p2pgrid_budget_violations_total",
		"p2pgrid_sla_fallbacks_total",
		"p2pgrid_spend_total",
	} {
		if !strings.Contains(scrape, "\n"+name+" 0\n") {
			t.Errorf("unpriced daemon: %s does not read 0:\n%s", name, body)
		}
	}

	// SIGTERM → graceful drain → exit 0. The handler is registered by
	// runServe, so the test process itself is safe to signal.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("kill: %v", err)
	}
	select {
	case r := <-done:
		if r.code != 0 {
			t.Fatalf("daemon exit %d, stderr:\n%s", r.code, r.stderr)
		}
		if !strings.Contains(r.stderr, "drained") {
			t.Fatalf("no drain report in stderr:\n%s", r.stderr)
		}
		// The banner and the drain report are plain lines; every slog
		// line is one JSON object with a message.
		var events, replays int
		for _, line := range strings.Split(r.stderr, "\n") {
			if !strings.HasPrefix(line, "{") {
				continue
			}
			var ev struct {
				Msg string `json:"msg"`
			}
			if err := json.Unmarshal([]byte(line), &ev); err != nil || ev.Msg == "" {
				t.Fatalf("log line is not a JSON event with a msg (%v): %s", err, line)
			}
			events++
			if strings.Contains(ev.Msg, "replay") {
				replays++
			}
		}
		if events == 0 || replays == 0 {
			t.Fatalf("%d JSON log events, %d about the replay; want both > 0:\n%s", events, replays, r.stderr)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not drain within 30s of SIGTERM")
	}
}

func waitUp(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("daemon never became healthy at %s", base)
}
