package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/wire"
)

// startDaemon launches runCLI(-serve …) on a free port and returns the
// base URL plus a shutdown func that SIGTERMs the process-wide handler
// and awaits the clean exit.
func startDaemon(t *testing.T, extra ...string) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	done := make(chan int, 1)
	go func() {
		code, _, stderr := runCLI(append([]string{"-serve", addr, "-scale", "tiny", "-seed", "7"}, extra...)...)
		if code != 0 {
			t.Errorf("daemon exit %d, stderr:\n%s", code, stderr)
		}
		done <- code
	}()
	base := "http://" + addr
	waitUp(t, base)
	return base, func() {
		if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatalf("kill: %v", err)
		}
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("daemon did not drain within 30s of SIGTERM")
		}
	}
}

// TestServePprofGating pins the -pprof contract: the profiling surface is
// reachable exactly when asked for and 404s otherwise.
func TestServePprofGating(t *testing.T) {
	base, stop := startDaemon(t)
	resp, err := http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without -pprof: status %d, want 404", resp.StatusCode)
	}
	stop()

	base, stop = startDaemon(t, "-pprof")
	defer stop()
	resp, err = http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index with -pprof: status %d\n%.300s", resp.StatusCode, body)
	}
	// The /v1 API still works behind the outer mux.
	resp, err = http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz behind pprof mux: status %d", resp.StatusCode)
	}
}

// TestServeMetricsHistograms asserts the daemon's scrape carries the grid
// histogram families end to end: drive a workflow over HTTP, advance the
// clock, and require populated _bucket/_sum/_count series. The workflow
// carries a deadline and a budget on this priced daemon, so the status
// must report the contract with settled spend, and the spend counter must
// move.
func TestServeMetricsHistograms(t *testing.T) {
	base, stop := startDaemon(t, "-price", "1")
	defer stop()
	resp, err := http.Post(base+"/v1/workflows", "application/json",
		strings.NewReader(`{"name":"hist","deadline_seconds":172800,"budget":1000000000}`))
	if err != nil {
		t.Fatal(err)
	}
	var sub wire.SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || err != nil {
		t.Fatalf("submit: status %d, decode error %v", resp.StatusCode, err)
	}
	if sub.Deadline <= 0 || sub.Budget <= 0 {
		t.Fatalf("submit response does not echo the contract: %+v", sub)
	}
	// A submission without a contract is still fine on a priced daemon.
	resp, err = http.Post(base+"/v1/workflows", "application/json", strings.NewReader(`{"name":"plain"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("plain submit: status %d", resp.StatusCode)
	}
	resp, err = http.Post(base+"/v1/clock/advance", "application/json", strings.NewReader(`{"by_seconds": 86400}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(fmt.Sprintf("%s/v1/workflows/%d", base, sub.ID))
	if err != nil {
		t.Fatal(err)
	}
	var st wire.WorkflowStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if st.State != "completed" || st.SLA == nil {
		t.Fatalf("status after a day: state %q, sla %+v; want completed with an sla block", st.State, st.SLA)
	}
	if st.SLA.Deadline <= 0 || st.SLA.Spend <= 0 || st.SLA.DeadlineMissed {
		t.Fatalf("sla block %+v: want a deadline, spend > 0 and no miss", *st.SLA)
	}
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	scrape := string(body)
	for _, fam := range []string{
		"p2pgrid_workflow_completion_seconds",
		"p2pgrid_task_queue_wait_seconds",
		"p2pgrid_task_exec_seconds",
		"p2pgrid_task_transfer_seconds",
	} {
		if !strings.Contains(scrape, "# TYPE "+fam+" histogram") ||
			!strings.Contains(scrape, fam+"_bucket{le=\"+Inf\"}") ||
			!strings.Contains(scrape, fam+"_sum ") ||
			!strings.Contains(scrape, fam+"_count ") {
			t.Fatalf("family %s incomplete in scrape:\n%s", fam, scrape)
		}
		if strings.Contains(scrape, fam+"_count 0\n") {
			t.Fatalf("family %s empty after a completed workflow:\n%s", fam, scrape)
		}
	}
	if !strings.Contains(scrape, "\np2pgrid_spend_total ") || strings.Contains(scrape, "\np2pgrid_spend_total 0\n") {
		t.Fatalf("spend counter did not move after a priced completion:\n%s", scrape)
	}
}
