package main

import (
	"crypto/sha256"
	"encoding/hex"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strings"
	"testing"
)

// experimentDigests pins the SHA-256 of every experiment's stdout at
// -scale tiny -seed 2010. A refactor that moves any printed number, label
// or column changes a digest; regenerate one only after an intentional
// change to that experiment's output, and say why in the change.
var experimentDigests = map[string]string{
	"table1":      "5e7d2cad31d0337e7caac32e5b53cf737a894493f867bbfff031bee750a95245",
	"fig3":        "eb569acfe783e1e5105f73442da18c9176c2b3ce460a273fcbf31dfdfc8406a6",
	"fig4-6":      "97ba07e8b8fac6b0f0726cc5ab37203e50246ad503ff4a3a66fc23ec133f6aee",
	"fcfs":        "2226c5f156c694a1009e4cc730034d47a95cd3c707e8a6020a954b2f55e5a37e",
	"fig7-8":      "87fa1ee04f6ec7498038f4eb375af63c58539c73bf9f3c60cb49dc84adef2fbe",
	"fig9-10":     "669eb73032bb9d0a1fe6da7cedb54357ece5c20866b1a8e123faa6aa14236355",
	"fig11":       "001b6e55fc78ec463478668157ca5703c23b7e422afe4d70ce3d49ddf3fc5dc6",
	"fig12-14":    "1abb74785bb9fb5af73e1a8e2f70b966edb26487c6b56062c73cd6c93a9b0749",
	"reschedule":  "53074b7b458aa85b9617d03b79b8ad46acce99f3556760fcbfdbb633ec2062de",
	"oracle":      "83cbb32d736cf4c8c3846695bcb21c5a58fad9761a1b2b9ef3c9c42d31e0417b",
	"planners":    "fc010f011786116ae09fa574bbd0eb3b4b8487a56fc7fa99756153a05e71c861",
	"churn-model": "35cab7f4e1efc87ad1ad1fcf887d387271631e3293a18802bfbf13018431c064",
	"families":    "f56c92cc73e267099f79888861646ab9b3bdee323aa8e11e836f693e1cff68b4",
	"report":      "1773747f74e6e800d6f1d642f84913d5e6dbee20b38eda04f12094357930ebf2",
	"arrival":     "5baf795f91e08b77c408ebec9f02d65007116ed84050a1d0e97ac590905fb48b",
	"sla":         "3ef5290331f5472e7929998715643146174b19aaabe3c85f1820004ab5105f34",
	"single":      "cf858c2fc27fd4a0d4a1d86de81431db6e358d8e3a9b74ec66a76aaedf20af55",
}

// TestExperimentOutputs runs every experiment of the dispatch table except
// sweep (whose JSON the sweep tests pin) through cliMain and compares its
// stdout byte for byte, via the pinned digest.
func TestExperimentOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at tiny scale")
	}
	for name := range experimentDigests {
		if lookupExperiment(name) == nil {
			t.Errorf("digest pinned for %q, which is not in the experiment table", name)
		}
	}
	for _, e := range experimentTable {
		if e.name == "sweep" {
			continue
		}
		want, ok := experimentDigests[e.name]
		if !ok {
			t.Errorf("experiment %q has no pinned digest", e.name)
			continue
		}
		t.Run(e.name, func(t *testing.T) {
			t.Parallel()
			code, stdout, stderr := runCLI("-experiment", e.name, "-scale", "tiny", "-seed", "2010")
			if code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr)
			}
			sum := sha256.Sum256([]byte(stdout))
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("stdout digest %s, want %s; output:\n%s", got, want, stdout)
			}
		})
	}
}

// TestShardCountInvariantOutput checks end to end that the event-engine
// shard count is a pure execution detail: a single run prints the same
// stdout at -shards 1, 2 and 4, and a -shards 4 sweep writes the serial
// sweep's JSON byte for byte.
func TestShardCountInvariantOutput(t *testing.T) {
	var serial string
	for _, shards := range []string{"1", "2", "4"} {
		code, stdout, stderr := runCLI("-experiment", "single", "-scale", "tiny", "-shards", shards)
		if code != 0 {
			t.Fatalf("-shards %s: exit %d, stderr:\n%s", shards, code, stderr)
		}
		if shards == "1" {
			serial = stdout
		} else if stdout != serial {
			t.Errorf("-shards %s single-run output differs from serial:\n%s\nvs\n%s", shards, stdout, serial)
		}
	}
	sweep := []string{"-experiment", "sweep", "-scale", "tiny", "-reps", "2"}
	code, serialJSON, stderr := runCLI(sweep...)
	if code != 0 {
		t.Fatalf("serial sweep: exit %d, stderr:\n%s", code, stderr)
	}
	code, shardedJSON, stderr := runCLI(append(sweep, "-shards", "4")...)
	if code != 0 {
		t.Fatalf("-shards 4 sweep: exit %d, stderr:\n%s", code, stderr)
	}
	if shardedJSON != serialJSON {
		t.Fatal("-shards 4 sweep JSON differs from the serial sweep's")
	}
}

// TestDocsNameEveryExperiment keeps the package doc's experiment list and
// the README's in step with the dispatch table, in both directions.
func TestDocsNameEveryExperiment(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	doc := f.Doc.Text()
	start := strings.Index(doc, "Experiments:\n")
	end := strings.Index(doc, "\nWorkloads need not arrive")
	if start < 0 || end < start {
		t.Fatal("package doc has no experiment list")
	}
	checkNames(t, "package doc", regexp.MustCompile(`(?m)^\t([a-z0-9-]+) `).FindAllStringSubmatch(doc[start:end], -1))

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	para := regexp.MustCompile("(?s)\nExperiments: .*?\n\n").Find(readme)
	if para == nil {
		t.Fatal("README has no experiment list")
	}
	checkNames(t, "README", regexp.MustCompile("`([a-z0-9-]+)`").FindAllStringSubmatch(string(para), -1))
}

// checkNames compares a document's listed experiment names with the
// dispatch table.
func checkNames(t *testing.T, where string, matches [][]string) {
	t.Helper()
	listed := map[string]bool{}
	for _, m := range matches {
		listed[m[1]] = true
		if m[1] != "all" && lookupExperiment(m[1]) == nil {
			t.Errorf("%s lists %q, which is not in the experiment table", where, m[1])
		}
	}
	for _, e := range experimentTable {
		if !listed[e.name] {
			t.Errorf("%s does not list experiment %q", where, e.name)
		}
	}
}
