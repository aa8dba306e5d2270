package gossip

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/stats"
)

// fakeGrid is a controllable LocalState.
type fakeGrid struct {
	caps  []float64
	loads []float64
	alive []bool
	bwObs []float64
}

func newFakeGrid(n int, seed int64) *fakeGrid {
	rng := stats.NewRand(seed, 1)
	g := &fakeGrid{
		caps:  make([]float64, n),
		loads: make([]float64, n),
		alive: make([]bool, n),
		bwObs: make([]float64, n),
	}
	mips := []float64{1, 2, 4, 8, 16}
	for i := 0; i < n; i++ {
		g.caps[i] = mips[rng.Intn(len(mips))]
		g.alive[i] = true
		g.bwObs[i] = 0.1 + rng.Float64()*9.9
	}
	return g
}

func (g *fakeGrid) Snapshot(node int) NodeState {
	return NodeState{
		Capacity:        g.caps[node],
		TotalLoadMI:     g.loads[node],
		Alive:           g.alive[node],
		AvgBandwidthObs: g.bwObs[node],
	}
}

func (g *fakeGrid) trueAvgCap() float64 {
	var sum float64
	n := 0
	for i, c := range g.caps {
		if g.alive[i] {
			sum += c
			n++
		}
	}
	return sum / float64(n)
}

func startProtocol(t testing.TB, n int, seed int64) (*sim.Engine, *fakeGrid, *Protocol) {
	t.Helper()
	engine := sim.NewEngine()
	grid := newFakeGrid(n, seed)
	p, err := New(engine, Config{N: n, Seed: seed}, grid)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	p.Start(0)
	return engine, grid, p
}

func TestNewValidatesInputs(t *testing.T) {
	engine := sim.NewEngine()
	if _, err := New(engine, Config{N: 0}, newFakeGrid(1, 1)); err == nil {
		t.Fatal("expected error for N=0")
	}
	if _, err := New(engine, Config{N: 5}, nil); err == nil {
		t.Fatal("expected error for nil LocalState")
	}
	// Each of these would panic or run with empty or overfull caches; New
	// rejects it with an ErrConfig naming the field.
	for _, tc := range []struct {
		field string
		cfg   Config
	}{
		{"CacheCapacity", Config{CacheCapacity: -5}},
		{"CacheCapacity", Config{CacheCapacity: -1}},
		{"FanOut", Config{FanOut: -2}},
		{"CycleSeconds", Config{CycleSeconds: -300}},
		{"CycleSeconds", Config{CycleSeconds: math.NaN()}},
		{"CycleSeconds", Config{CycleSeconds: math.Inf(1)}},
		{"TTL", Config{TTL: -1}},
		{"TTL", Config{TTL: 256}},
		{"ExpiryCycles", Config{ExpiryCycles: -1}},
		{"ExpiryCycles", Config{ExpiryCycles: math.NaN()}},
		{"EpochCycles", Config{EpochCycles: -3}},
		{"N", Config{N: 1<<24 + 1}},
	} {
		cfg := tc.cfg
		if cfg.N == 0 {
			cfg.N = 5
		}
		_, err := New(engine, cfg, newFakeGrid(5, 1))
		if !errors.Is(err, ErrConfig) || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("New(%+v) = %v, want an ErrConfig naming %s", tc.cfg, err, tc.field)
		}
	}
	// The key limits themselves are fine.
	if _, err := New(engine, Config{N: 5, TTL: 255}, newFakeGrid(5, 1)); err != nil {
		t.Fatalf("TTL 255: %v", err)
	}
}

func TestDefaultsMatchPaper(t *testing.T) {
	engine := sim.NewEngine()
	p, err := New(engine, Config{N: 1000}, newFakeGrid(1000, 1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := p.Config()
	if cfg.CycleSeconds != 300 {
		t.Errorf("cycle = %v, want 300 s", cfg.CycleSeconds)
	}
	if cfg.TTL != 4 {
		t.Errorf("TTL = %d, want 4", cfg.TTL)
	}
	if cfg.FanOut != 10 { // log2(1000) = 10
		t.Errorf("fan-out = %d, want 10", cfg.FanOut)
	}
}

func TestRSSGrowsAndStaysBounded(t *testing.T) {
	engine, _, p := startProtocol(t, 200, 7)
	engine.RunUntil(10 * 300)
	cap := p.Config().CacheCapacity
	var sizes []float64
	for i := 0; i < 200; i++ {
		sz := p.RSSSize(i)
		if sz > cap {
			t.Fatalf("node %d RSS size %d exceeds capacity %d", i, sz, cap)
		}
		sizes = append(sizes, float64(sz))
	}
	if mean := stats.Mean(sizes); mean < float64(cap)/2 {
		t.Fatalf("mean RSS size %v suspiciously small after 10 cycles (cap %d)", mean, cap)
	}
}

func TestRSSExcludesSelfAndIsSorted(t *testing.T) {
	engine, _, p := startProtocol(t, 50, 3)
	engine.RunUntil(5 * 300)
	for i := 0; i < 50; i++ {
		rss := p.AppendRSS(i, nil)
		prev := -1
		for _, rec := range rss {
			if rec.Node == i {
				t.Fatalf("node %d's RSS contains itself", i)
			}
			if rec.Node <= prev {
				t.Fatalf("RSS not sorted: %d after %d", rec.Node, prev)
			}
			prev = rec.Node
		}
	}
}

func TestRecordsCarryCurrentState(t *testing.T) {
	engine, grid, p := startProtocol(t, 30, 11)
	grid.loads[5] = 12345
	engine.RunUntil(4 * 300)
	found := 0
	for i := 0; i < 30; i++ {
		for _, rec := range p.AppendRSS(i, nil) {
			if rec.Node == 5 {
				found++
				if rec.TotalLoadMI != 12345 {
					t.Fatalf("record for node 5 carries load %v, want 12345", rec.TotalLoadMI)
				}
				if rec.Capacity != grid.caps[5] {
					t.Fatalf("record capacity %v, want %v", rec.Capacity, grid.caps[5])
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("no node learned about node 5 after 4 cycles")
	}
}

func TestDeadNodeRecordsExpire(t *testing.T) {
	engine, grid, p := startProtocol(t, 40, 13)
	engine.RunUntil(5 * 300)
	grid.alive[7] = false
	// After the expiry window plus slack, nobody should list node 7.
	expiry := p.Config().ExpiryCycles * p.Config().CycleSeconds
	engine.RunUntil(5*300 + expiry + 2*300)
	for i := 0; i < 40; i++ {
		for _, rec := range p.AppendRSS(i, nil) {
			if rec.Node == 7 {
				t.Fatalf("node %d still lists dead node 7 after expiry", i)
			}
		}
	}
}

func TestDeadNodesDoNotGossip(t *testing.T) {
	engine, grid, p := startProtocol(t, 30, 17)
	grid.alive[3] = false
	engine.RunUntil(6 * 300)
	for i := 0; i < 30; i++ {
		for _, rec := range p.AppendRSS(i, nil) {
			if rec.Node == 3 {
				t.Fatalf("never-alive node 3 appeared in node %d's RSS", i)
			}
		}
	}
	if p.RSSSize(3) != 0 {
		// Dead node may have received nothing; but it also must not have
		// fresh records since it never merged - other nodes may have pushed
		// to it before it died... here it was dead from cycle 1, and pushes
		// skip dead targets.
		t.Fatalf("dead node 3 accumulated %d records", p.RSSSize(3))
	}
}

func TestAggregationConvergesToTrueAverages(t *testing.T) {
	engine, grid, p := startProtocol(t, 150, 23)
	// Run long enough for at least one full epoch to converge and publish.
	engine.RunUntil(20 * 300)
	trueCap := grid.trueAvgCap()
	trueBW := stats.Mean(grid.bwObs)
	var capErrs, bwErrs []float64
	for i := 0; i < 150; i++ {
		c, b := p.Averages(i)
		capErrs = append(capErrs, math.Abs(c-trueCap)/trueCap)
		bwErrs = append(bwErrs, math.Abs(b-trueBW)/trueBW)
	}
	if m := stats.Mean(capErrs); m > 0.05 {
		t.Fatalf("mean capacity estimate error %.3f > 5%%", m)
	}
	if m := stats.Mean(bwErrs); m > 0.05 {
		t.Fatalf("mean bandwidth estimate error %.3f > 5%%", m)
	}
}

func TestAggregationSurvivesChurn(t *testing.T) {
	engine, grid, p := startProtocol(t, 100, 29)
	engine.RunUntil(10 * 300)
	// Kill a quarter of the nodes; estimates should re-converge to the new
	// population average after a couple of epochs.
	for i := 0; i < 25; i++ {
		grid.alive[i] = false
	}
	engine.RunUntil(10*300 + 3*8*300)
	trueCap := grid.trueAvgCap()
	var errs []float64
	for i := 25; i < 100; i++ {
		c, _ := p.Averages(i)
		errs = append(errs, math.Abs(c-trueCap)/trueCap)
	}
	if m := stats.Mean(errs); m > 0.15 {
		t.Fatalf("post-churn capacity error %.3f > 15%%", m)
	}
}

func TestAddLoadHint(t *testing.T) {
	engine, _, p := startProtocol(t, 20, 31)
	engine.RunUntil(4 * 300)
	var target int = -1
	for _, rec := range p.AppendRSS(0, nil) {
		target = rec.Node
		break
	}
	if target < 0 {
		t.Fatal("node 0 knows nobody after 4 cycles")
	}
	before := float64(-1)
	for _, rec := range p.AppendRSS(0, nil) {
		if rec.Node == target {
			before = rec.TotalLoadMI
		}
	}
	p.AddLoadHint(0, target, 500)
	for _, rec := range p.AppendRSS(0, nil) {
		if rec.Node == target {
			if rec.TotalLoadMI != before+500 {
				t.Fatalf("hint not applied: %v, want %v", rec.TotalLoadMI, before+500)
			}
		}
	}
	// Hinting an unknown node is a no-op, not a crash.
	p.AddLoadHint(0, 19999, 1)
}

func TestIdleKnownCountsOnlyIdle(t *testing.T) {
	engine, grid, p := startProtocol(t, 40, 37)
	for i := 20; i < 40; i++ {
		grid.loads[i] = 1000 // busy
	}
	engine.RunUntil(5 * 300)
	for i := 0; i < 5; i++ {
		idle := p.IdleKnown(i)
		total := p.RSSSize(i)
		if idle > total {
			t.Fatalf("idle %d > total %d", idle, total)
		}
		for _, rec := range p.AppendRSS(i, nil) {
			if rec.Node >= 20 && rec.TotalLoadMI == 0 {
				t.Fatalf("busy node %d advertised as idle", rec.Node)
			}
		}
	}
}

func TestMessageCountScalesWithFanOut(t *testing.T) {
	engineA := sim.NewEngine()
	gridA := newFakeGrid(64, 5)
	pA, _ := New(engineA, Config{N: 64, FanOut: 2, Seed: 5}, gridA)
	pA.Start(0)
	engineA.RunUntil(10 * 300)

	engineB := sim.NewEngine()
	gridB := newFakeGrid(64, 5)
	pB, _ := New(engineB, Config{N: 64, FanOut: 8, Seed: 5}, gridB)
	pB.Start(0)
	engineB.RunUntil(10 * 300)

	if pB.MessagesSent <= pA.MessagesSent {
		t.Fatalf("fan-out 8 sent %d msgs, fan-out 2 sent %d", pB.MessagesSent, pA.MessagesSent)
	}
}

func TestDeterminism(t *testing.T) {
	collect := func() []int {
		engine, _, p := startProtocol(t, 60, 99)
		engine.RunUntil(6 * 300)
		out := make([]int, 60)
		for i := range out {
			out[i] = p.RSSSize(i)
		}
		return out
	}
	a, b := collect(), collect()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at node %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// Property: cache capacity is never exceeded and records never outlive the
// expiry window, for arbitrary seeds and sizes.
func TestQuickCacheInvariants(t *testing.T) {
	f := func(seed int64) bool {
		n := 20 + int(uint64(seed)%40)
		engine := sim.NewEngine()
		grid := newFakeGrid(n, seed)
		p, err := New(engine, Config{N: n, Seed: seed}, grid)
		if err != nil {
			return false
		}
		p.Start(0)
		engine.RunUntil(8 * 300)
		now := engine.Now()
		expiry := p.Config().ExpiryCycles * p.Config().CycleSeconds
		for i := 0; i < n; i++ {
			if p.RSSSize(i) > p.Config().CacheCapacity {
				return false
			}
			for _, rec := range p.AppendRSS(i, nil) {
				if now-rec.Timestamp > expiry {
					return false
				}
				if rec.TTL < 0 || rec.TTL > p.Config().TTL {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestSteadyStateCycleAllocations backs the claim that the gossip cycle is
// allocation-free in steady state: once the caches have filled, a serial
// cycle allocates at most the one object the engine's ticker costs.
func TestSteadyStateCycleAllocations(t *testing.T) {
	engine, _, p := startProtocol(t, 500, 1)
	cycle := 10
	engine.RunUntil(float64(cycle) * p.cfg.CycleSeconds)
	allocs := testing.AllocsPerRun(20, func() {
		cycle++
		engine.RunUntil(float64(cycle) * p.cfg.CycleSeconds)
	})
	if allocs > 1 {
		t.Fatalf("steady-state cycle: %v allocs, want <= 1", allocs)
	}
}

func BenchmarkGossipCycle500(b *testing.B) {
	engine := sim.NewEngine()
	grid := newFakeGrid(500, 1)
	p, err := New(engine, Config{N: 500, Seed: 1}, grid)
	if err != nil {
		b.Fatal(err)
	}
	p.Start(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.RunUntil(float64(i+1) * 300)
	}
}

func TestTrafficAccountingMatchesPaperModel(t *testing.T) {
	engine, _, p := startProtocol(t, 100, 47)
	engine.RunUntil(10 * 300)
	if p.BytesSent == 0 {
		t.Fatal("no traffic accounted")
	}
	// Paper model: per cycle, each node pushes its cache (~|RSS| records of
	// 100 bytes) to log2(n) neighbors. With n=100 (fan-out 7, cache cap 21)
	// the per-node-per-cycle traffic must stay in the low tens of KB.
	cycles := 10.0
	perNodeCycle := float64(p.BytesSent) / (100 * cycles)
	if perNodeCycle > 20000 {
		t.Fatalf("per-node per-cycle traffic %.0f bytes: unreasonably high", perNodeCycle)
	}
	if perNodeCycle < 100 {
		t.Fatalf("per-node per-cycle traffic %.0f bytes: unreasonably low", perNodeCycle)
	}
	if MessageBytes != 100 {
		t.Fatalf("message cost %d bytes, paper says about 100", MessageBytes)
	}
}
