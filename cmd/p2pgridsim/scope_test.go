package main

import (
	"flag"
	"io"
	"regexp"
	"strings"
	"testing"
)

// validValue is a well-formed value for every flag, so a run that rejects
// one of them rejects where it was set, not what it was set to.
var validValue = map[string]string{
	"experiment": "fig3", "scale": "tiny", "seed": "7", "algo": "DSMF",
	"maxlf": "4", "reps": "3", "axes": "algo", "out": "x.json",
	"shard": "0/2", "merge": "a.json", "coordinate": "c", "worker": "w",
	"sleep-per-job": "1ms", "lease-ttl": "5s", "cache": "d", "precision": "0.1",
	"arrival": "poisson:10", "sla": "deadline:2", "price": "1",
	"trace": "sample", "trace-scale": "0.5", "model": "m.json", "synth": "10",
	"cache-gc": "true", "cache-budget": "5", "cache-days": "1",
	"serve": ":0", "pace": "3", "max-inflight": "8", "artifacts": "arts",
	"cpuprofile": "cpu.prof", "memprofile": "mem.prof", "trace-out": "t.json",
	"gantt": "true", "obs": "true", "log-level": "debug", "log-format": "json",
	"pprof": "true",
}

// scopeContext is one context of the scope table: the invocation that
// selects it and every flag it reads.
type scopeContext struct {
	args  []string
	reads string
}

// scopeContexts lists every experiment, all, every mode and every sweep
// mode.
func scopeContexts() []scopeContext {
	var ctxs []scopeContext
	var all []string
	for _, e := range experimentTable {
		ctxs = append(ctxs, scopeContext{[]string{"-experiment", e.name}, e.reads})
		if e.inAll {
			all = append(all, e.reads)
		}
	}
	ctxs = append(ctxs, scopeContext{[]string{"-experiment", "all"}, strings.Join(all, " ")})
	for _, m := range modes {
		ctxs = append(ctxs, scopeContext{[]string{"-" + m.flag + "=" + validValue[m.flag]}, m.reads})
	}
	for _, m := range sweepModes {
		ctxs = append(ctxs, scopeContext{[]string{"-experiment", "sweep", "-" + m.flag + "=" + validValue[m.flag]}, m.reads})
	}
	return ctxs
}

// TestScopeTableIsExhaustive passes, one at a time, every flag to every
// context of the scope table. A flag the context does not read must exit
// 2 from cliMain before any work starts: named on stderr, nothing on
// stdout and no "done in" trailer. A flag it reads must pass the scope
// check.
func TestScopeTableIsExhaustive(t *testing.T) {
	var o options
	declared := map[string]bool{}
	o.flags(io.Discard).VisitAll(func(f *flag.Flag) { declared[f.Name] = true })
	for _, ctx := range scopeContexts() {
		for _, f := range strings.Fields(ctx.reads) {
			if !declared[f] {
				t.Errorf("%v: the table lists -%s, which is not a flag", ctx.args, f)
			}
		}
		for f := range declared {
			value, ok := validValue[f]
			if !ok {
				t.Fatalf("no valid value for -%s", f)
			}
			if f == "experiment" && ctx.args[0] == "-experiment" {
				value = ctx.args[1]
			}
			args := append(append([]string{}, ctx.args...), "-"+f+"="+value)
			if reads(ctx.reads, f) {
				var o options
				fs := o.flags(io.Discard)
				if err := fs.Parse(args); err != nil {
					t.Fatalf("%v: %v", args, err)
				}
				if _, err := checkScopes(fs); err != nil {
					t.Errorf("%v: the table says the context reads -%s, but the scope check rejects it: %v", args, f, err)
				}
				continue
			}
			code, stdout, stderr := runCLI(args...)
			named := regexp.MustCompile(`(^|[^a-z-])-` + regexp.QuoteMeta(f) + `([^a-z-]|$)`)
			if code != 2 || !named.MatchString(stderr) || stdout != "" || strings.Contains(stderr, "done in") {
				t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 naming -%s before any work", args, code, stdout, stderr, f)
			}
		}
	}
}

// TestHelpNamesWhereFlagsApply checks the -h text generated from the
// scope table: -reps names exactly the experiments that read it.
func TestHelpNamesWhereFlagsApply(t *testing.T) {
	code, _, stderr := runCLI("-h")
	if code != 2 {
		t.Fatalf("-h exit %d, want 2", code)
	}
	want := "seed replications (error bars need > 1); applies to -experiment sweep, fig4-6, fcfs, fig7-8, fig9-10, fig11, arrival, sla, fig12-14 and reschedule (default 1)"
	if !strings.Contains(stderr, want) {
		t.Fatalf("-reps help does not read %q:\n%s", want, stderr)
	}
}
