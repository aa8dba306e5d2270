package grid

import (
	"math"
	"testing"

	"repro/internal/dag"
	"repro/internal/sim"
)

// twoTaskChain builds x -> y with enough data that transfers take a while.
func twoTaskChain(t testing.TB) *dag.Workflow {
	t.Helper()
	b := dag.NewBuilder("chain2")
	x := b.AddTask("x", 2000, 20)
	y := b.AddTask("y", 2000, 20)
	b.AddEdge(x, y, 500)
	w, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestDispatchRefusesDeadTarget(t *testing.T) {
	engine, g := newTestGrid(t, 4, 61)
	wf, err := g.Submit(0, twoTaskChain(t))
	if err != nil {
		t.Fatal(err)
	}
	_ = engine
	tx := wf.Tasks[0]
	g.Nodes[2].Alive = false
	if g.Dispatch(tx, 2, 1, 1) {
		t.Fatal("dispatch to dead node must be refused")
	}
	if tx.State != TaskSchedulePoint {
		t.Fatalf("refused dispatch left task in state %v", tx.State)
	}
	if g.Dispatch(tx, -1, 1, 1) || g.Dispatch(tx, 99, 1, 1) {
		t.Fatal("dispatch out of range must be refused")
	}
	if !g.Dispatch(tx, 1, 1, 1) {
		t.Fatal("dispatch to alive node must succeed")
	}
	if tx.State != TaskDispatched {
		t.Fatalf("task state %v after successful dispatch", tx.State)
	}
}

func TestHandBackReturnsQueuedTasksOnDeparture(t *testing.T) {
	engine, g := newTestGrid(t, 4, 67)
	wf, err := g.Submit(0, twoTaskChain(t))
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	// Dispatch x manually to node 1 at t=0 and immediately fail the node
	// before any transfer completes: x is queued (not running) so it must
	// be handed back, not failed.
	tx := wf.Tasks[0]
	if !g.Dispatch(tx, 1, 1, 1) {
		t.Fatal("dispatch failed")
	}
	g.failNode(&g.Nodes[1], 0)
	if tx.State != TaskSchedulePoint {
		t.Fatalf("queued task state %v after departure, want schedule-point (handed back)", tx.State)
	}
	if g.HandedBack != 1 {
		t.Fatalf("HandedBack = %d", g.HandedBack)
	}
	if wf.State != WorkflowActive {
		t.Fatalf("workflow state %v: hand-back must not fail it", wf.State)
	}
	// The workflow must still complete via re-dispatch.
	engine.RunUntil(48 * 3600)
	if wf.State != WorkflowCompleted {
		t.Fatalf("workflow state %v after hand-back recovery", wf.State)
	}
}

func TestRunningTaskLossFailsWorkflow(t *testing.T) {
	engine, g := newTestGrid(t, 4, 71)
	wf, err := g.Submit(0, twoTaskChain(t))
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	// Let the first task start running somewhere, then kill that node.
	var killed bool
	engine.Every(100, 100, func(now float64) {
		if killed {
			return
		}
		for i := range g.Nodes {
			if g.Nodes[i].Running != nil {
				g.failNode(&g.Nodes[i], now)
				killed = true
				return
			}
		}
	})
	engine.RunUntil(48 * 3600)
	if !killed {
		t.Fatal("no task ever ran")
	}
	if wf.State != WorkflowFailed {
		t.Fatalf("workflow state %v after losing a running task, want failed", wf.State)
	}
}

func TestHarshChurnKillsQueuedTasks(t *testing.T) {
	engine := sim.NewEngine()
	g, err := New(engine, Config{Nodes: 4, Seed: 73, HarshChurn: true}, testAlgo())
	if err != nil {
		t.Fatal(err)
	}
	wf, err := g.Submit(0, twoTaskChain(t))
	if err != nil {
		t.Fatal(err)
	}
	tx := wf.Tasks[0]
	if !g.Dispatch(tx, 1, 1, 1) {
		t.Fatal("dispatch failed")
	}
	g.failNode(&g.Nodes[1], 0)
	if tx.State != TaskFailed {
		t.Fatalf("harsh churn left queued task in state %v, want failed", tx.State)
	}
	if wf.State != WorkflowFailed {
		t.Fatalf("workflow state %v", wf.State)
	}
	if g.HandedBack != 0 {
		t.Fatal("harsh churn must not hand back")
	}
}

func TestDurableOutputFallbackToHome(t *testing.T) {
	engine, g := newTestGrid(t, 4, 79)
	wf, err := g.Submit(0, twoTaskChain(t))
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	// Run until x is done somewhere, then kill its node before y's data
	// transfer can source from it. Under the graceful model, y pulls the
	// durable copy from the home node and the workflow still completes.
	tx, ty := wf.Tasks[0], wf.Tasks[1]
	var killedAt float64 = -1
	engine.Every(50, 50, func(now float64) {
		if killedAt < 0 && tx.State == TaskDone && tx.Node != 0 {
			g.failNode(&g.Nodes[tx.Node], now)
			killedAt = now
		}
	})
	engine.RunUntil(72 * 3600)
	if killedAt < 0 {
		t.Skip("x ran on the home node; no fallback to exercise at this seed")
	}
	if wf.State != WorkflowCompleted {
		t.Fatalf("workflow state %v: durable home copy should have saved it", wf.State)
	}
	if ty.State != TaskDone {
		t.Fatalf("task y state %v", ty.State)
	}
}

func TestChurnSmearedWithinInterval(t *testing.T) {
	engine, g := newTestGrid(t, 40, 83)
	if err := g.StartChurn(ChurnConfig{DynamicFactor: 0.2, StableCount: 20, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	g.Start()
	// Observe aliveness at a point strictly inside an interval: churn
	// events must not all fire at interval boundaries.
	deaths := 0
	engine.Every(450, 900, func(now float64) {
		alive := g.AliveCount()
		if alive < 40 {
			deaths++
		}
	})
	engine.RunUntil(10 * 900)
	if deaths == 0 {
		t.Fatal("no mid-interval churn observed: events not smeared")
	}
}

// spreadPhase1 dispatches round-robin over home + RSS so that churnable
// nodes actually receive work (the greedy test scheduler is home-sticky for
// serial chains, which would hide churn entirely).
type spreadPhase1 struct{ next int }

func (*spreadPhase1) Name() string { return "test-spread" }

func (s *spreadPhase1) Schedule(g *Grid, home *Node, now float64) {
	for _, wf := range g.ActiveWorkflows(home.ID) {
		for _, t := range g.SchedulePoints(wf) {
			rss := g.Gossip.AppendRSS(home.ID, nil)
			targets := []int{home.ID}
			for _, rec := range rss {
				targets = append(targets, rec.Node)
			}
			for range targets {
				pick := targets[s.next%len(targets)]
				s.next++
				if g.Dispatch(t, pick, 1, 1) {
					g.AddLoadHint(home.ID, pick, t.Task().Load)
					break
				}
			}
		}
	}
}

func TestChurnThroughputMonotoneAcrossDF(t *testing.T) {
	// Aggregate completions across several seeds; higher dynamic factors
	// must not complete more workflows (allowing plateau equality).
	// Long-running tasks (about 1-8 simulated hours each) make running-task
	// loss likely, the dominant churn failure mode.
	heavy := func() *dag.Workflow {
		b := dag.NewBuilder("heavy")
		prev := b.AddTask("h0", 30000, 20)
		for i := 1; i < 4; i++ {
			cur := b.AddTask("h", 30000, 20)
			b.AddEdge(prev, cur, 200)
			prev = cur
		}
		w, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	complete := func(df float64) int {
		total := 0
		for seed := int64(0); seed < 3; seed++ {
			engine := sim.NewEngine()
			algo := Algorithm{Label: "spread", Phase1: &spreadPhase1{}, Phase2: fcfsPhase2{}}
			g, err := New(engine, Config{Nodes: 40, Seed: 100 + seed}, algo)
			if err != nil {
				t.Fatal(err)
			}
			for home := 0; home < 20; home++ {
				if _, err := g.Submit(home, heavy()); err != nil {
					t.Fatal(err)
				}
			}
			if err := g.StartChurn(ChurnConfig{DynamicFactor: df, StableCount: 20, Seed: seed}); err != nil {
				t.Fatal(err)
			}
			g.Start()
			engine.RunUntil(12 * 3600)
			total += g.CompletedCount
		}
		return total
	}
	c0, c2, c4 := complete(0), complete(0.2), complete(0.4)
	if !(c0 >= c2 && c2 >= c4) {
		t.Fatalf("throughput not monotone in df: %d, %d, %d", c0, c2, c4)
	}
	if c0 == c4 {
		t.Fatalf("churn had no effect at all: %d == %d", c0, c4)
	}
}

// TestTotalLoadMatchesReadySetThroughChurn pins the l_i bookkeeping
// invariant: at every instant a node's advertised TotalLoadMI equals the
// summed load of its ready-set tasks (the running task included), through
// dispatches, completions, hand-backs, running-task loss, revival and
// rescheduling alike. It would have caught the old unconditional
// sub-epsilon clamp, which zeroed genuinely tiny residual loads while
// tasks were still dispatched.
func TestTotalLoadMatchesReadySetThroughChurn(t *testing.T) {
	chain := func() *dag.Workflow {
		b := dag.NewBuilder("inv")
		prev := b.AddTask("t0", 5000, 20)
		for i := 1; i < 4; i++ {
			cur := b.AddTask("t", 5000, 20)
			b.AddEdge(prev, cur, 100)
			prev = cur
		}
		w, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	for _, cfg := range []Config{
		{Nodes: 40, Seed: 123, RescheduleFailed: true},
		{Nodes: 40, Seed: 123, HarshChurn: true},
	} {
		engine := sim.NewEngine()
		algo := Algorithm{Label: "spread", Phase1: &spreadPhase1{}, Phase2: fcfsPhase2{}}
		g, err := New(engine, cfg, algo)
		if err != nil {
			t.Fatal(err)
		}
		for home := 0; home < 20; home++ {
			if _, err := g.Submit(home, chain()); err != nil {
				t.Fatal(err)
			}
		}
		if err := g.StartChurn(ChurnConfig{DynamicFactor: 0.3, StableCount: 20, Seed: 5}); err != nil {
			t.Fatal(err)
		}
		g.Start()
		check := func(now float64) {
			for i := range g.Nodes {
				nd := &g.Nodes[i]
				var sum float64
				for _, ti := range nd.ReadySet {
					sum += ti.Task().Load
				}
				if diff := math.Abs(sum - nd.TotalLoadMI); diff > 1e-6*(1+sum) {
					t.Fatalf("harsh=%v t=%.0f node %d: TotalLoadMI %v but ready-set sums to %v",
						cfg.HarshChurn, now, i, nd.TotalLoadMI, sum)
				}
				if len(nd.ReadySet) == 0 && nd.TotalLoadMI != 0 {
					t.Fatalf("harsh=%v t=%.0f node %d: empty ready set advertises load %v",
						cfg.HarshChurn, now, i, nd.TotalLoadMI)
				}
			}
		}
		engine.Every(150, 150, func(now float64) { check(now) })
		engine.RunUntil(12 * 3600)
		check(engine.Now())
	}
}

func TestReviveResetsNodeState(t *testing.T) {
	_, g := newTestGrid(t, 4, 89)
	wf, err := g.Submit(0, twoTaskChain(t))
	if err != nil {
		t.Fatal(err)
	}
	if !g.Dispatch(wf.Tasks[0], 1, 1, 1) {
		t.Fatal("dispatch failed")
	}
	inc := g.Nodes[1].Incarnation
	g.failNode(&g.Nodes[1], 0)
	g.reviveNode(&g.Nodes[1], 10)
	nd := g.Nodes[1]
	if !nd.Alive || nd.Incarnation != inc+2 {
		t.Fatalf("revive state wrong: alive=%v inc=%d want %d", nd.Alive, nd.Incarnation, inc+2)
	}
	if nd.TotalLoadMI != 0 || len(nd.ReadySet) != 0 || nd.Running != nil {
		t.Fatal("revived node kept stale work")
	}
}

func TestMaxReschedulesBoundsRetries(t *testing.T) {
	engine := sim.NewEngine()
	g, err := New(engine, Config{
		Nodes: 4, Seed: 97, RescheduleFailed: true, MaxReschedules: 2,
	}, testAlgo())
	if err != nil {
		t.Fatal(err)
	}
	wf, err := g.Submit(0, twoTaskChain(t))
	if err != nil {
		t.Fatal(err)
	}
	tx := wf.Tasks[0]
	// Fail the task three times by dispatch + node kill + revive cycles.
	for i := 0; i < 3; i++ {
		if tx.State != TaskSchedulePoint {
			t.Fatalf("round %d: task state %v", i, tx.State)
		}
		if !g.Dispatch(tx, 1, 1, 1) {
			t.Fatalf("round %d: dispatch refused", i)
		}
		// Force it to running state so the kill is fatal, not a hand-back.
		tx.State = TaskRunning
		g.Nodes[1].Running = tx
		g.failNode(&g.Nodes[1], float64(i))
		g.reviveNode(&g.Nodes[1], float64(i)+0.5)
	}
	if wf.State != WorkflowFailed {
		t.Fatalf("workflow state %v after exceeding retry bound, want failed", wf.State)
	}
	if tx.reschedules != 2 {
		t.Fatalf("task rescheduled %d times, want exactly 2", tx.reschedules)
	}
}

func TestRecordAgeGrowsWithStaleness(t *testing.T) {
	engine, g := newTestGrid(t, 20, 99)
	g.Start()
	engine.RunUntil(4 * 300)
	// The freshest record node 0 holds, so it outlives the frozen interval.
	origin, age0 := -1, 0.0
	for _, rec := range g.Gossip.AppendRSS(0, nil) {
		age, ok := g.Gossip.RecordAge(0, rec.Node)
		if !ok || age < 0 {
			t.Fatalf("record about %d: age %v ok=%v", rec.Node, age, ok)
		}
		if origin < 0 || age < age0 {
			origin, age0 = rec.Node, age
		}
	}
	if origin < 0 {
		t.Fatal("node 0 knows nobody after 4 cycles")
	}
	// Freeze gossip by killing everyone else: no fresher record about
	// origin can reach node 0, so the age grows by exactly the frozen
	// interval while the record stays fresh enough to count.
	for i := 1; i < 20; i++ {
		g.Nodes[i].Alive = false
	}
	engine.RunUntil(4*300 + 600)
	if age1, ok := g.Gossip.RecordAge(0, origin); !ok || age1 != age0+600 {
		t.Fatalf("record age about %d: %v -> %v (ok=%v), want %v", origin, age0, age1, ok, age0+600)
	}
}

// TestRSSViewCarriesOriginStateUnderChurn pins what a gossip record can
// tell a scheduler through churn, revival and rescheduling: its capacity
// is always its origin's node capacity, and its timestamp one of the
// gossip cycle's instants no older than the expiry window.
func TestRSSViewCarriesOriginStateUnderChurn(t *testing.T) {
	engine := sim.NewEngine()
	algo := Algorithm{Label: "spread", Phase1: &spreadPhase1{}, Phase2: fcfsPhase2{}}
	g, err := New(engine, Config{Nodes: 40, Seed: 321, RescheduleFailed: true}, algo)
	if err != nil {
		t.Fatal(err)
	}
	for home := 0; home < 20; home++ {
		if _, err := g.Submit(home, twoTaskChain(t)); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.StartChurn(ChurnConfig{DynamicFactor: 0.3, StableCount: 10, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	g.Start()
	gc := g.Gossip.Config()
	expiry := gc.ExpiryCycles * gc.CycleSeconds
	seen := 0
	check := func(now float64) {
		for i := range g.Nodes {
			for _, rec := range g.RSSView(i) {
				seen++
				if want := g.Nodes[rec.Node].Capacity; rec.Capacity != want {
					t.Fatalf("t=%.0f node %d: record of %d carries capacity %v, node has %v",
						now, i, rec.Node, rec.Capacity, want)
				}
				if math.Mod(rec.Timestamp, gc.CycleSeconds) != 0 || rec.Timestamp > now || now-rec.Timestamp > expiry {
					t.Fatalf("t=%.0f node %d: record of %d minted at %v, not a live cycle instant",
						now, i, rec.Node, rec.Timestamp)
				}
			}
		}
	}
	engine.Every(450, 450, func(now float64) { check(now) })
	engine.RunUntil(12 * 3600)
	if seen == 0 {
		t.Fatal("no node ever held a record")
	}
}
