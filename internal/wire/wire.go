// Package wire is the single source of truth for every versioned JSON
// envelope the simulator reads or writes: the sweep result artifact, the
// distributed-sweep shard partials, the warm-start cell cache entries, the
// work-stealing directory metadata, and the service-mode HTTP api/v1
// request/response types (api.go). Each envelope carries an explicit
// schema-version string so readers can reject artifacts from a different
// format generation with a precise error instead of misparsing them.
//
// The envelopes here are pure data: producers fill them, consumers check
// the schema tag with Expect and then validate content (spec hashes, job-ID
// sets) at their own layer. Field order is part of the contract — the
// artifacts are byte-compared across machines and shard counts — so fields
// must never be reordered within a version.
//
// Envelopes that embed the caller's spec type (shards, work metadata) are
// generic over it: the spec lives in internal/experiments, which imports
// this package, so the concrete instantiation happens at the call site and
// the dependency arrow keeps pointing one way.
package wire

import (
	"encoding/json"
	"fmt"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// Schema-version constants for every envelope in the repository. Bump a
// version only with a migration story: old readers must keep rejecting new
// artifacts loudly.
const (
	// SweepV1 is the completed-sweep artifact (Sweep).
	SweepV1 = "p2pgridsim/sweep/v1"
	// ShardV1 is the mergeable distributed-sweep partial (Shard).
	ShardV1 = "p2pgridsim/shard/v1"
	// CellCacheV1 is one warm-start cell cache entry (CellCache).
	CellCacheV1 = "p2pgridsim/cellcache/v1"
	// SweepWorkV1 is the sweep metadata inside a work directory (SweepWork).
	SweepWorkV1 = "p2pgridsim/sweepwork/v1"
	// WorkDirV1 is the work-stealing directory envelope (WorkDir).
	WorkDirV1 = "p2pgridsim/workdir/v1"
	// APIV1 is the service-mode HTTP API generation (api.go types and the
	// /v1/ URL prefix).
	APIV1 = "p2pgridsim/api/v1"
	// ModelV1 is the fitted workload-model artifact (Model, model.go):
	// the output of `wfgen -fit`, consumed by `-model` everywhere.
	ModelV1 = "p2pgridsim/model/v1"
)

// Expect checks a decoded envelope's schema tag against the expected
// version, with the uniform error text every reader reports.
func Expect(got, want string) error {
	if got != want {
		return fmt.Errorf("wire: schema %q, want %q", got, want)
	}
	return nil
}

// Sweep is the machine-readable artifact of a completed sweep. Every cell
// is fully aggregated (mean / stddev / 95% CI per metric); Seeds records
// the exact replication seeds so any cell can be re-run standalone.
type Sweep struct {
	Schema     string      `json:"schema"`
	Name       string      `json:"name,omitempty"`
	Seed       int64       `json:"seed"`
	Reps       int         `json:"reps"`
	Algorithms []string    `json:"algorithms"`
	Cells      []SweepCell `json:"cells"`
}

// SweepCell is one (scenario, algorithm) aggregate inside a Sweep.
type SweepCell struct {
	Scenario   string  `json:"scenario"`
	Scale      string  `json:"scale"`
	Nodes      int     `json:"nodes"`
	LoadFactor int     `json:"load_factor"`
	Churn      float64 `json:"churn"`
	CCR        string  `json:"ccr,omitempty"`
	Arrival    string  `json:"arrival,omitempty"`
	SLA        string  `json:"sla,omitempty"`
	Algo       string  `json:"algo"`
	// Reps is the cell's own replication count when it differs from the
	// sweep's top-level reps — the ragged output of per-cell adaptive
	// stopping. Omitted (0) on uniform sweeps, so every pre-adaptive
	// artifact and golden stays byte-identical.
	Reps      int                  `json:"reps,omitempty"`
	Seeds     []int64              `json:"seeds"`
	Aggregate metrics.RunAggregate `json:"aggregate"`
	// Obs is the cell's merged virtual-time distribution block, present
	// only when the sweep ran with observability on. Appended after every
	// pre-observability field with omitempty, so artifacts produced with
	// observability off stay byte-identical to older binaries' output.
	Obs *obs.Summary `json:"obs,omitempty"`
}

// Shard is a mergeable partial sweep result: the per-replication stats of
// one contiguous job-ID window [lo,hi), carrying the full spec (hash-verified on decode) so a
// merge can prove all shards ran the identical sweep. S is the producer's
// spec type.
type Shard[S any] struct {
	Schema string             `json:"schema"`
	Hash   string             `json:"spec_hash"`
	Lo     int                `json:"lo"`
	Hi     int                `json:"hi"`
	Jobs   int                `json:"jobs"`
	Spec   S                  `json:"spec"`
	Stats  []metrics.RunStats `json:"stats"`
}

// CellCache is one warm-start cache entry: the per-replication records of a
// single sweep cell, keyed externally by spec hash + cell identity.
type CellCache struct {
	Schema string             `json:"schema"`
	Stats  []metrics.RunStats `json:"stats"`
}

// SweepWork is the caller metadata recorded in a work directory: the spec
// every worker must reproduce bit-identically, plus its hash as a fast
// mismatch check. S is the producer's spec type.
type SweepWork[S any] struct {
	Schema string `json:"schema"`
	Hash   string `json:"spec_hash"`
	Spec   S      `json:"spec"`
}

// WorkDir is the work-stealing directory envelope (workdir.json): the unit
// count and lease TTL every participant must agree on, plus the owning
// subsystem's opaque metadata document.
type WorkDir struct {
	Schema          string          `json:"schema"`
	Units           int             `json:"units"`
	LeaseTTLSeconds float64         `json:"lease_ttl_seconds"`
	Meta            json.RawMessage `json:"meta,omitempty"`
}
