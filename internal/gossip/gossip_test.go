package gossip

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
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

// protoState is everything a cycle leaves behind that two schedules of
// the same pushes must agree on: every cache with its fwd and ownMint
// bookkeeping and key bounds, the aggregation estimates and reports, and
// the traffic counters. Version counters are left out: they count merges,
// which batching changes.
type protoState struct {
	Cache               [][]record
	Fwd                 []int32
	OwnMint             []uint32
	Newest              []uint64
	EstCap, EstBW       []float64
	ReportCap, ReportBW []float64
	Messages, Bytes     uint64
}

// snapshot copies p's protoState.
func snapshot(p *Protocol) protoState {
	s := protoState{
		Fwd: slices.Clone(p.fwd), OwnMint: slices.Clone(p.ownMint), Newest: slices.Clone(p.newest),
		EstCap: slices.Clone(p.estCap), EstBW: slices.Clone(p.estBW),
		ReportCap: slices.Clone(p.reportCap), ReportBW: slices.Clone(p.reportBW),
		Messages: p.MessagesSent, Bytes: p.BytesSent,
	}
	for _, c := range p.cache {
		s.Cache = append(s.Cache, slices.Clone(c))
	}
	return s
}

// runCycles drives a fresh protocol for the given number of cycles over a
// churning fakeGrid, checks the cache invariants after each cycle and
// returns the protocol's state after each. The churn and load schedule is
// a pure function of the cycle index, so every run sees the same inputs.
// cycle runs each gossip cycle in place of the protocol's own, or nil for
// the protocol's own.
func runCycles(t *testing.T, n, cycles int, seed int64, cycle func(p *Protocol, now float64)) []protoState {
	t.Helper()
	engine := sim.NewEngine()
	grid := newFakeGrid(n, seed)
	p, err := New(engine, Config{N: n, Seed: seed, EpochCycles: 3}, grid)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if cycle == nil {
		p.Start(0)
	} else {
		engine.Every(0, p.cfg.CycleSeconds, func(now float64) { cycle(p, now) })
	}
	var states []protoState
	for c := 0; c < cycles; c++ {
		// Deterministic churn and load drift between cycles: kill and
		// revive a few nodes, wiggle loads, so dead-target skips and
		// expiry paths are exercised.
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
		states = append(states, snapshot(p))
	}
	return states
}

// checkCacheInvariants asserts that every cache is strictly decreasing by
// key - eviction order, no duplicate origins - holds at most CacheCapacity
// records plus the owner's own, mints at least 1, and that its fwd and
// ownMint bookkeeping matches a recount.
func checkCacheInvariants(t *testing.T, p *Protocol, cycle int) {
	t.Helper()
	for i, recs := range p.cache {
		if len(recs) > p.cfg.CacheCapacity+1 {
			t.Fatalf("cycle %d: node %d holds %d records, capacity %d+1",
				cycle, i, len(recs), p.cfg.CacheCapacity)
		}
		for j := range recs {
			if recs[j].mint() == 0 {
				t.Fatalf("cycle %d: node %d record %d has mint 0: %+v", cycle, i, j, recs[j])
			}
			if j > 0 && recs[j-1].key <= recs[j].key {
				t.Fatalf("cycle %d: node %d cache not in eviction order at %d: %+v then %+v",
					cycle, i, j, recs[j-1], recs[j])
			}
		}
		if fwd, ownMint := recount(i, recs); p.fwd[i] != fwd || p.ownMint[i] != ownMint {
			t.Fatalf("cycle %d: node %d fwd %d ownMint %d, recomputed %d %d",
				cycle, i, p.fwd[i], p.ownMint[i], fwd, ownMint)
		}
	}
}

// perPushCycle returns the gossip cycle with every push delivered the
// moment it is made, by push(p, to, from, live, now), which returns the
// bytes the push carried. It draws in the cycle's order - per alive node,
// its fan-out targets, then its aggregation partner - so it must leave
// every cache, estimate and counter as the cycle's per-receiver batches
// do.
func perPushCycle(push func(p *Protocol, to, from int, live uint64, now float64) uint64) func(*Protocol, float64) {
	return func(p *Protocol, now float64) {
		p.cycleCount++
		if p.cycleCount%p.cfg.EpochCycles == 1 || p.cfg.EpochCycles == 1 {
			for i := 0; i < p.cfg.N; i++ {
				s := p.local.Snapshot(i)
				if !s.Alive {
					continue
				}
				p.reportCap[i], p.reportBW[i] = p.estCap[i], p.estBW[i]
				p.estCap[i], p.estBW[i] = p.capacity[i], s.AvgBandwidthObs
			}
		}
		mint := p.mint(now)
		live := p.liveKey(now)
		for i := 0; i < p.cfg.N; i++ {
			s := p.local.Snapshot(i)
			if !s.Alive {
				continue
			}
			p.mergeOwn(i, record{key: packKey(mint, i, p.cfg.TTL), load: s.TotalLoadMI})
			for _, t := range stats.SampleWithoutInto(p.rng, p.cfg.N, p.cfg.FanOut, i, p.sampleBuf) {
				if !p.local.Snapshot(t).Alive {
					continue
				}
				p.MessagesSent++
				p.BytesSent += push(p, t, i, live, now)
			}
			partner := stats.SampleWithoutInto(p.rng, p.cfg.N, 1, i, p.sampleBuf)
			if len(partner) == 1 && p.local.Snapshot(partner[0]).Alive {
				j := partner[0]
				avgC := (p.estCap[i] + p.estCap[j]) / 2
				avgB := (p.estBW[i] + p.estBW[j]) / 2
				p.estCap[i], p.estCap[j] = avgC, avgC
				p.estBW[i], p.estBW[j] = avgB, avgB
				p.MessagesSent++
				p.BytesSent += 2 * MessageBytes
			}
		}
	}
}

// deliverOne delivers one push through deliver with a single sender.
func deliverOne(p *Protocol, to, from int, live uint64, _ float64) uint64 {
	bytes := uint64(p.fwd[from]) * MessageBytes
	p.deliver([]int32{int32(to), int32(from)}, live)
	return bytes
}

// referencePush delivers one push through pushReference, the origin-order
// oracle, on the unpacked caches, and packs the result back in eviction
// order with a recounted fwd and ownMint. The traffic is the oracle's.
func referencePush(p *Protocol, to, from int, _ uint64, now float64) uint64 {
	unpack := func(node int) []StateRecord {
		var recs []StateRecord
		for _, r := range p.cache[node] {
			recs = append(recs, p.stateRecord(r))
		}
		sortOrigin(recs)
		return recs
	}
	recs, bytes := pushReference(unpack(from), unpack(to), to, p.cfg.CacheCapacity, now, p.expirySeconds())
	c := p.cache[to][:0]
	for _, r := range recs {
		mint := 1 + slices.Index(p.mints[1:], r.Timestamp)
		c = append(c, record{key: packKey(uint32(mint), r.Node, r.TTL), load: r.TotalLoadMI})
	}
	sortEviction(c)
	p.cache[to] = c
	p.fwd[to], p.ownMint[to] = recount(to, c)
	p.version[to]++
	return bytes
}

// TestCycleMatchesPerPushReference pins per-receiver batching: a cycle
// that delivers every push the moment it is made, through deliver with one
// sender or through the origin-order pushReference, leaves every cache,
// its bookkeeping, the estimates, the reports and the traffic counters
// bit for bit as the batched cycle does, after every cycle of a churning
// run.
func TestCycleMatchesPerPushReference(t *testing.T) {
	for _, tc := range []struct {
		n, cycles int
		seed      int64
	}{{120, 8, 42}, {6, 8, 7}} {
		batched := runCycles(t, tc.n, tc.cycles, tc.seed, nil)
		for _, ref := range []struct {
			name string
			push func(*Protocol, int, int, uint64, float64) uint64
		}{{"deliver", deliverOne}, {"pushReference", referencePush}} {
			got := runCycles(t, tc.n, tc.cycles, tc.seed, perPushCycle(ref.push))
			for c := range batched {
				if !reflect.DeepEqual(got[c], batched[c]) {
					t.Fatalf("n=%d cycle %d: per-push %s state differs from the batched cycle's:\n%s",
						tc.n, c, ref.name, stateDiff(got[c], batched[c]))
				}
			}
		}
	}
}

// stateDiff names the first field, and for per-node fields the first node,
// where two states differ.
func stateDiff(a, b protoState) string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for f := 0; f < va.NumField(); f++ {
		fa, fb := va.Field(f), vb.Field(f)
		if reflect.DeepEqual(fa.Interface(), fb.Interface()) {
			continue
		}
		name := va.Type().Field(f).Name
		if fa.Kind() != reflect.Slice {
			return fmt.Sprintf("%s: %v, want %v", name, fa.Interface(), fb.Interface())
		}
		for i := 0; i < fa.Len(); i++ {
			if !reflect.DeepEqual(fa.Index(i).Interface(), fb.Index(i).Interface()) {
				return fmt.Sprintf("%s[%d]: %+v, want %+v", name, i, fa.Index(i).Interface(), fb.Index(i).Interface())
			}
		}
	}
	return "no difference"
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

// BenchmarkGossipCycle times one serial cycle at the grid sizes of the
// sweep-churn (60 nodes), daemon-soak (150) and paper-batch (1000) bench
// workloads, after ten cycles have filled the caches.
func BenchmarkGossipCycle(b *testing.B) {
	for _, n := range []int{60, 150, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			engine, _, p := startProtocol(b, n, 1)
			engine.RunUntil(10 * p.cfg.CycleSeconds)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				engine.RunUntil(float64(i+11) * p.cfg.CycleSeconds)
			}
		})
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
