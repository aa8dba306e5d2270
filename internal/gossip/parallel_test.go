package gossip

import (
	"testing"

	"repro/internal/sim"
)

// runCycles drives a fresh protocol with the given worker count for the
// given number of cycles over a churning fakeGrid and returns the protocol
// for state comparison. The grid mutation schedule is a pure function of
// the cycle index, so every worker count sees identical inputs.
func runCycles(t *testing.T, n, workers, cycles int, seed int64) *Protocol {
	t.Helper()
	engine := sim.NewEngine()
	grid := newFakeGrid(n, seed)
	p, err := New(engine, Config{N: n, Seed: seed, Workers: workers, EpochCycles: 3}, grid)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	p.Start(0)
	for c := 0; c < cycles; c++ {
		// Deterministic churn and load drift between cycles: kill and
		// revive a few nodes, wiggle loads, so dead-target skips and
		// expiry paths are exercised identically in both modes.
		grid.alive[(c*7)%n] = false
		grid.alive[(c*13+5)%n] = false
		if c > 0 {
			grid.alive[((c-1)*7)%n] = true
		}
		for i := range grid.loads {
			grid.loads[i] = float64((i*31 + c*17) % 97)
		}
		engine.RunUntil(float64(c) * p.cfg.CycleSeconds)
		checkCacheInvariants(t, p, c)
	}
	return p
}

// checkCacheInvariants asserts that every cache is strictly decreasing by
// key - eviction order, no duplicate origins - holds at most CacheCapacity
// records plus the owner's own, mints at least 1, and that its fwd and
// ownMint bookkeeping matches a recount.
func checkCacheInvariants(t *testing.T, p *Protocol, cycle int) {
	t.Helper()
	for i, recs := range p.cache {
		if len(recs) > p.cfg.CacheCapacity+1 {
			t.Fatalf("workers=%d cycle %d: node %d holds %d records, capacity %d+1",
				p.cfg.Workers, cycle, i, len(recs), p.cfg.CacheCapacity)
		}
		for j := range recs {
			if recs[j].mint() == 0 {
				t.Fatalf("workers=%d cycle %d: node %d record %d has mint 0: %+v",
					p.cfg.Workers, cycle, i, j, recs[j])
			}
			if j > 0 && recs[j-1].key <= recs[j].key {
				t.Fatalf("workers=%d cycle %d: node %d cache not in eviction order at %d: %+v then %+v",
					p.cfg.Workers, cycle, i, j, recs[j-1], recs[j])
			}
		}
		if fwd, ownMint := recount(i, recs); p.fwd[i] != fwd || p.ownMint[i] != ownMint {
			t.Fatalf("workers=%d cycle %d: node %d fwd %d ownMint %d, recomputed %d %d",
				p.cfg.Workers, cycle, i, p.fwd[i], p.ownMint[i], fwd, ownMint)
		}
	}
}

// TestParallelCycleBitIdentical pins the executor's core guarantee: any
// worker count yields byte-identical caches, estimates and traffic
// counters to the serial loop.
func TestParallelCycleBitIdentical(t *testing.T) {
	const n, cycles, seed = 120, 8, 42
	serial := runCycles(t, n, 1, cycles, seed)
	for _, workers := range []int{2, 4} {
		par := runCycles(t, n, workers, cycles, seed)
		if par.MessagesSent != serial.MessagesSent || par.BytesSent != serial.BytesSent {
			t.Fatalf("workers=%d traffic (%d msgs, %d bytes) != serial (%d msgs, %d bytes)",
				workers, par.MessagesSent, par.BytesSent, serial.MessagesSent, serial.BytesSent)
		}
		for i := 0; i < n; i++ {
			if len(par.cache[i]) != len(serial.cache[i]) {
				t.Fatalf("workers=%d node %d cache size %d != serial %d",
					workers, i, len(par.cache[i]), len(serial.cache[i]))
			}
			for j := range par.cache[i] {
				if par.cache[i][j] != serial.cache[i][j] {
					t.Fatalf("workers=%d node %d record %d: %+v != serial %+v",
						workers, i, j, par.cache[i][j], serial.cache[i][j])
				}
			}
			if par.estCap[i] != serial.estCap[i] || par.estBW[i] != serial.estBW[i] {
				t.Fatalf("workers=%d node %d estimates (%v, %v) != serial (%v, %v)",
					workers, i, par.estCap[i], par.estBW[i], serial.estCap[i], serial.estBW[i])
			}
			if par.reportCap[i] != serial.reportCap[i] || par.reportBW[i] != serial.reportBW[i] {
				t.Fatalf("workers=%d node %d reported averages differ from serial", workers, i)
			}
		}
	}
}

// TestParallelCycleWorkerCountExceedsNodes exercises the degenerate case
// where the worker count exceeds the population (some workers own no ops).
func TestParallelCycleWorkerCountExceedsNodes(t *testing.T) {
	serial := runCycles(t, 6, 1, 4, 7)
	par := runCycles(t, 6, 16, 4, 7)
	if par.MessagesSent != serial.MessagesSent || par.BytesSent != serial.BytesSent {
		t.Fatalf("traffic mismatch: parallel (%d, %d) vs serial (%d, %d)",
			par.MessagesSent, par.BytesSent, serial.MessagesSent, serial.BytesSent)
	}
	for i := range serial.cache {
		for j := range serial.cache[i] {
			if par.cache[i][j] != serial.cache[i][j] {
				t.Fatalf("node %d record %d differs", i, j)
			}
		}
	}
}
