package gossip

import (
	"math/rand"
	"reflect"
	"testing"
)

// evictReference is the per-victim min-scan evict: repeatedly mark the
// stalest eligible record (strict <, so ties fall to the lowest index),
// then compact. The equivalence test pins the layered selection to this
// exact victim choice — the cache contents feed RPM pricing, so a
// different (even equally stale) victim set would shift downstream
// scheduling decisions.
func evictReference(to, capacity int, out []StateRecord) []StateRecord {
	for over := len(out) - capacity; over > 0; over-- {
		victim := -1
		var victimTS float64
		for i := range out {
			if out[i].Node == to || out[i].TTL < 0 {
				continue
			}
			if victim < 0 || out[i].Timestamp < victimTS {
				victim, victimTS = i, out[i].Timestamp
			}
		}
		if victim < 0 {
			break
		}
		out[victim].TTL = -1
	}
	dst := []StateRecord{}
	for i := range out {
		if out[i].TTL >= 0 {
			dst = append(dst, out[i])
		}
	}
	return dst
}

func TestEvictMatchesReference(t *testing.T) {
	const nodes = 256
	const now = 3600.0
	rng := rand.New(rand.NewSource(99))
	// Each family draws one trial's merged length, capacity, owner and
	// record timestamps. Origins are sorted and spaced by two, so an even
	// owner is among the merged records half the time (its record is never
	// evicted).
	families := []struct {
		name  string
		draw  func() (n, capacity, to int)
		stamp func() float64
	}{
		// Coarse timestamps force plenty of ties.
		{"coarse", func() (int, int, int) {
			return 1 + rng.Intn(24), 1 + rng.Intn(12), rng.Intn(64)
		}, func() float64 { return float64(rng.Intn(5)) }},
		// Continuous timestamps: every layer holds one record, the
		// O(len*over) worst case.
		{"continuous", func() (int, int, int) {
			return 1 + rng.Intn(40), 1 + rng.Intn(20), rng.Intn(80)
		}, func() float64 { return rng.Float64() * now }},
		// The protocol's shape: records minted on the 300 s cycle grid no
		// older than the 1200 s expiry, merged views up to 2*(cap+1) long.
		{"protocol", func() (int, int, int) {
			capacity := 4 + rng.Intn(30)
			return 1 + rng.Intn(2*(capacity+1)), capacity, rng.Intn(4 * (capacity + 1))
		}, func() float64 { return now - 300*float64(rng.Intn(5)) }},
	}
	for _, f := range families {
		for trial := 0; trial < 5000; trial++ {
			n, capacity, to := f.draw()
			merged := make([]StateRecord, n)
			for i := range merged {
				merged[i] = StateRecord{
					Node:      i * 2,
					Timestamp: f.stamp(),
					TTL:       rng.Intn(4),
					Capacity:  float64(1 + rng.Intn(16)),
				}
			}
			checkEvict(t, f.name, trial, to, capacity, merged)
		}
	}
	// The owner's record is the only ineligible one and over equals the
	// eligible count: every other record goes.
	for trial := 0; trial < 2000; trial++ {
		n := 2 + rng.Intn(40)
		merged := make([]StateRecord, n)
		for i := range merged {
			merged[i] = StateRecord{Node: i, Timestamp: now - 300*float64(rng.Intn(5)), TTL: rng.Intn(4)}
		}
		to := rng.Intn(n)
		checkEvict(t, "owner-only", trial, to, 1, merged)
	}
}

// checkEvict runs evict on a copy of merged and compares the installed
// cache with evictReference's.
func checkEvict(t *testing.T, family string, trial, to, capacity int, merged []StateRecord) {
	t.Helper()
	want := evictReference(to, capacity, append([]StateRecord(nil), merged...))
	nodes := max(to+1, 2*len(merged))
	p := &Protocol{
		cfg:     Config{CacheCapacity: capacity},
		cache:   make([][]StateRecord, nodes),
		version: make([]uint32, nodes),
	}
	p.evict(to, append([]StateRecord(nil), merged...))
	got := append([]StateRecord{}, p.cache[to]...)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s trial %d (to %d, cap %d):\ngot  %+v\nwant %+v", family, trial, to, capacity, got, want)
	}
	if p.version[to] != 1 {
		t.Fatalf("%s trial %d: version %d, want 1", family, trial, p.version[to])
	}
}
