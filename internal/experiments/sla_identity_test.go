package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/economy"
)

// pinSpec is the reference sweep of the byte-identity tests: two load
// factors, two algorithms, two replications at TinyScale. The pinned
// constants below were captured on the commit immediately preceding the
// economic layer — if any of them moves, the absent SLA axis has leaked
// into the serialized spec, the sweep artifact or the warm-start cache
// identity, breaking every pre-economy artifact and cache on disk.
func pinSpec() SweepSpec {
	return SweepSpec{
		Name:        "pin",
		Scales:      []Scale{TinyScale},
		LoadFactors: []int{1, 2},
		Algorithms:  []string{"DSMF", "DHEFT"},
		Reps:        2,
		Seed:        2010,
	}
}

const (
	// SpecHash of pinSpec before the SLA axis existed.
	pinSpecHash = "4d72a315fbfdb24be246f98e9d41a13a699e5c820cb642ea1488c63b987f9d44"
	// sha256 of the pinSpec sweep's JSON() before the SLA axis existed.
	pinJSONSHA = "335bac19194041f4d6bbc0270fdd770f35d03bdca68462b6ddea48b850392d24"
	// Canonical JSON of pinSpec's first scenario before the SLA axis
	// existed: the exact bytes cellKeyFor hashes into every warm-start
	// cache key, so this string pins cache identity.
	pinScenarioJSON = `{"ScaleIndex":0,"Scale":{"Name":"tiny","Nodes":60,"LoadFactor":1,"HorizonHours":8,"SnapshotHours":1},"LoadFactor":1,"Churn":0,"CCR":{"Label":"","LoadMI":{"Min":0,"Max":0},"DataMb":{"Min":0,"Max":0}},"Arrival":{"spec":{}},"ChurnLayout":false}`
)

// TestSLAAxisAbsentSpecIdentity pins the spec-level identities: hash,
// scenario bytes, and the invisibility of the absent axis in the canonical
// encoding.
func TestSLAAxisAbsentSpecIdentity(t *testing.T) {
	spec := pinSpec()
	if h := spec.SpecHash(); h != pinSpecHash {
		t.Errorf("SpecHash moved:\n got  %s\n want %s", h, pinSpecHash)
	}
	sc := spec.Scenarios()[0]
	data, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != pinScenarioJSON {
		t.Errorf("scenario JSON (the cell-cache key input) moved:\n got  %s\n want %s", data, pinScenarioJSON)
	}
	specData, err := json.Marshal(spec.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(specData), "SLA") {
		t.Errorf("absent SLA axis leaked into the canonical spec encoding: %s", specData)
	}
}

// TestSLADefaultCaseCollapses pins the normalization rule: a single
// all-default SLA case is the absent axis, sharing one SpecHash (and so
// one cache identity) with the nil slice.
func TestSLADefaultCaseCollapses(t *testing.T) {
	with := pinSpec()
	with.SLAs = []SLACase{{}}
	if h := with.SpecHash(); h != pinSpecHash {
		t.Errorf("single default SLA case did not collapse: hash %s, want %s", h, pinSpecHash)
	}
	if scens := with.Scenarios(); scens[0].SLA != nil {
		t.Errorf("single default SLA case materialized a scenario pointer")
	}
}

// TestSLAAxisAbsentArtifactIdentity runs the reference sweep end to end
// and pins the artifact bytes: with no SLA axis the sweep JSON must be
// byte-identical to the pre-economy commit.
func TestSLAAxisAbsentArtifactIdentity(t *testing.T) {
	res, err := RunSweepStream(pinSpec(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != pinJSONSHA {
		t.Errorf("sweep JSON moved: sha256 %s, want %s", got, pinJSONSHA)
	}
}

// TestSLASweepLadder runs a short deadline ladder and checks the figure's
// two contracts on the DBC side: the miss rate never rises as deadlines
// loosen, and every cell carries economic aggregates.
func TestSLASweepLadder(t *testing.T) {
	var cases []SLACase
	for _, f := range []float64{2, 8, 32} {
		spec := economy.SLASpec{Kind: economy.KindDeadline, DeadlineFactor: f}
		cases = append(cases, SLACase{Label: spec.String(), SLA: spec, Price: DefaultPrice})
	}
	algos := []string{"DSMF", "DBC-cost"}
	res, err := RunSweepStream(SweepSpec{
		Name:       "sla-ladder",
		Scales:     []Scale{TinyScale},
		Algorithms: algos,
		Seed:       2010,
		SLAs:       cases,
	}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != len(cases)*len(algos) {
		t.Fatalf("cells %d, want %d", len(res.Cells), len(cases)*len(algos))
	}
	prev := 2.0
	for ci := range cases {
		c := res.Cells[ci*len(algos)+1] // DBC-cost column
		if c.Algo != "DBC-cost" {
			t.Fatalf("cell order: got algo %s", c.Algo)
		}
		sla := c.Agg.SLA
		if sla == nil {
			t.Fatalf("cell %s has no SLA aggregate", c.Scenario.Label())
		}
		miss := sla.DeadlineMissRate.Mean
		if miss > prev {
			t.Errorf("miss rate rose as deadline loosened: %s -> %.3f (prev %.3f)",
				cases[ci].Label, miss, prev)
		}
		prev = miss
		if sla.SpendPerWorkflow.Mean <= 0 {
			t.Errorf("cell %s: spend per workflow %.3f, want > 0",
				c.Scenario.Label(), sla.SpendPerWorkflow.Mean)
		}
	}
}
