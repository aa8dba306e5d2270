package executor

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestLocalExecutesAllJobs(t *testing.T) {
	ids := []int{4, 7, 0, 2, 9}
	var mu sync.Mutex
	seen := map[int]int{}
	err := Local{Workers: 3}.Execute(ids, func(id int) error {
		mu.Lock()
		defer mu.Unlock()
		seen[id]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(ids) {
		t.Fatalf("ran %d distinct jobs, want %d", len(seen), len(ids))
	}
	for _, id := range ids {
		if seen[id] != 1 {
			t.Errorf("job %d ran %d times", id, seen[id])
		}
	}
}

func TestLocalRunsEverythingDespiteFailure(t *testing.T) {
	boom := errors.New("boom")
	var mu sync.Mutex
	ran := 0
	err := Local{Workers: 2}.Execute([]int{0, 1, 2, 3}, func(id int) error {
		mu.Lock()
		ran++
		mu.Unlock()
		if id == 1 {
			return fmt.Errorf("job %d: %w", id, boom)
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error %v, want the job failure", err)
	}
	if ran != 4 {
		t.Fatalf("ran %d jobs, want all 4 (no abort mid-batch)", ran)
	}
}

func TestLocalZeroWorkersDefaults(t *testing.T) {
	if err := (Local{}).Execute([]int{1}, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestShardRangePartitions pins the sharding contract: for any (total, n)
// the n ranges are contiguous, non-overlapping, cover exactly [0,total),
// and differ in size by at most one job.
func TestShardRangePartitions(t *testing.T) {
	for _, total := range []int{0, 1, 2, 5, 7, 12, 100, 101} {
		for _, n := range []int{1, 2, 3, 4, 7, 13} {
			next, minSz, maxSz := 0, total+1, -1
			for i := 0; i < n; i++ {
				lo, hi := ShardRange(total, i, n)
				if lo != next {
					t.Fatalf("total=%d n=%d shard %d: lo=%d, want %d (contiguous)", total, n, i, lo, next)
				}
				if hi < lo {
					t.Fatalf("total=%d n=%d shard %d: inverted range [%d,%d)", total, n, i, lo, hi)
				}
				if sz := hi - lo; sz < minSz {
					minSz = sz
				}
				if sz := hi - lo; sz > maxSz {
					maxSz = sz
				}
				next = hi
			}
			if next != total {
				t.Fatalf("total=%d n=%d: union ends at %d", total, n, next)
			}
			if maxSz-minSz > 1 {
				t.Fatalf("total=%d n=%d: shard sizes spread %d..%d", total, n, minSz, maxSz)
			}
		}
	}
}

func TestDiskCacheRoundTrip(t *testing.T) {
	d := Disk{Dir: t.TempDir()}
	key := "0123456789abcdef"
	if _, ok := d.Get(key); ok {
		t.Fatal("hit on empty cache")
	}
	if err := d.Put(key, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	data, ok := d.Get(key)
	if !ok || string(data) != "payload" {
		t.Fatalf("got (%q, %v)", data, ok)
	}
	// Replacement (a longer entry) wins.
	if err := d.Put(key, []byte("payload-v2")); err != nil {
		t.Fatal(err)
	}
	if data, _ := d.Get(key); string(data) != "payload-v2" {
		t.Fatalf("replacement lost: %q", data)
	}
}

func TestDiskCacheRejectsUnsafeKeys(t *testing.T) {
	d := Disk{Dir: t.TempDir()}
	for _, key := range []string{"", "short", "../../../../etc/passwd", "ABCDEF0123456789", "0123/4567/89abcdef"} {
		if err := d.Put(key, []byte("x")); err == nil {
			t.Errorf("Put accepted unsafe key %q", key)
		}
		if _, ok := d.Get(key); ok {
			t.Errorf("Get hit on unsafe key %q", key)
		}
	}
}

func TestMemoryCache(t *testing.T) {
	m := NewMemory()
	if _, ok := m.Get("aabbccdd"); ok {
		t.Fatal("hit on empty cache")
	}
	if err := m.Put("aabbccdd", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if data, ok := m.Get("aabbccdd"); !ok || string(data) != "v" {
		t.Fatalf("got (%q, %v)", data, ok)
	}
}
