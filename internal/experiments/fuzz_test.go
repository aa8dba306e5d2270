package experiments

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// FuzzDecodeShard feeds arbitrary bytes to DecodeShard and merges whatever
// decodes. The harness re-stamps the recorded hash from the decoded spec
// first, so inputs get past the hash check to the spec bounds, the
// coverage checks and the merge. Nothing may panic or stall on a spec
// beyond the bounds, and only a shard that covers its whole job matrix
// may merge. The seed corpus under
// testdata/fuzz/FuzzDecodeShard holds a contiguous shard, a shard with an
// ids list (not part of the schema, so it fails on its window), a
// huge-reps shard and an axis-product shard.
func FuzzDecodeShard(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var doc shardJSON
		if json.Unmarshal(data, &doc) == nil {
			doc.Hash = doc.Spec.SpecHash()
			stamped, err := json.Marshal(doc)
			if err != nil {
				t.Fatalf("re-encode a decoded shard: %v", err)
			}
			data = stamped
		}
		part, err := DecodeShard(data)
		if err != nil {
			return
		}
		res, err := MergeShards(part)
		if err != nil {
			return
		}
		if part.NumCovered() != part.Jobs || len(res.Cells)*res.Spec.Reps != part.Jobs {
			t.Fatalf("merged a shard covering %d of %d jobs into %d cells x %d reps",
				part.NumCovered(), part.Jobs, len(res.Cells), res.Spec.Reps)
		}
		_, _ = res.JSON() // non-finite aggregates fail here with an error, never a panic
	})
}

// corpusShard reads one FuzzDecodeShard seed file back into its bytes.
func corpusShard(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDecodeShard", name))
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
	if !ok || !strings.HasSuffix(lit, ")") {
		t.Fatalf("%s: not a one-value fuzz corpus file", name)
	}
	data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return []byte(data)
}

// TestSpecBoundsFailBeforeExpansion pins the two spec bounds. A shard file
// claiming more replications than adaptiveRepCeiling, or axes whose
// product exceeds maxSweepJobs, fails to decode with the named error and
// allocates nothing in proportion to its claim; a spec exactly at the job
// bound still validates, and the bounded contiguous corpus shard still
// decodes.
func TestSpecBoundsFailBeforeExpansion(t *testing.T) {
	for _, tc := range []struct {
		file string
		want error
	}{{"huge-reps", ErrTooManyReps}, {"axis-product", ErrTooManyJobs}} {
		data := corpusShard(t, tc.file)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeShard(data)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: decode error %v, want %v", tc.file, err, tc.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: decoding allocated %d bytes", tc.file, grew)
		}
	}
	if _, err := DecodeShard(corpusShard(t, "contiguous")); err != nil {
		t.Errorf("contiguous: %v", err)
	}
	// Shards cover contiguous windows only: the ids field of an ID-set
	// shard is not part of the schema, and its window [1,4) does not match
	// its two records.
	if _, err := DecodeShard(corpusShard(t, "id-set")); err == nil || !strings.Contains(err.Error(), "shard window [1,4) holds 2 stats") {
		t.Errorf("id-set: decode error %v, want the window/record mismatch", err)
	}

	over := microSpec(nil, adaptiveRepCeiling+1, 7)
	if _, err := newSweepPlan(over); !errors.Is(err, ErrTooManyReps) {
		t.Errorf("reps above the ceiling: %v, want %v", err, ErrTooManyReps)
	}
	atBound := microSpec(nil, 1, 7) // 8 algorithms
	for i := 0; i < 1024; i++ {
		atBound.LoadFactors = append(atBound.LoadFactors, i+1)
	}
	atBound.ChurnFactors = make([]float64, maxSweepJobs/8/1024)
	if n, err := atBound.NumJobs(); err != nil || n != maxSweepJobs {
		t.Errorf("spec at the bound: %d jobs, %v; want %d, nil", n, err, maxSweepJobs)
	}
	atBound.Reps = 2
	if _, err := atBound.NumJobs(); !errors.Is(err, ErrTooManyJobs) {
		t.Errorf("spec over the bound: %v, want %v", err, ErrTooManyJobs)
	}
}
