package dag

import (
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestGenerateRespectsTableIRanges(t *testing.T) {
	rng := stats.NewRand(1, 10)
	cfg := DefaultGenConfig()
	for trial := 0; trial < 200; trial++ {
		w, err := Generate("g", cfg, rng)
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		real := 0
		for id := 0; id < w.Len(); id++ {
			task := w.Task(TaskID(id))
			if task.Virtual {
				continue
			}
			real++
			if !cfg.LoadMI.Contains(task.Load) {
				t.Fatalf("load %v outside Table I range", task.Load)
			}
			if !cfg.ImageMb.Contains(task.ImageMb) {
				t.Fatalf("image %v outside Table I range", task.ImageMb)
			}
			// Fan-out constraint: count only edges to real tasks (virtual
			// exit wiring is a normalization artifact).
			out := 0
			for _, e := range w.Successors(TaskID(id)) {
				if !w.Task(e.To).Virtual {
					out++
				}
				if e.DataMb != 0 && !cfg.DataMb.Contains(e.DataMb) {
					t.Fatalf("edge data %v outside range", e.DataMb)
				}
			}
			if out > int(cfg.FanOut.Max) {
				t.Fatalf("fan-out %d exceeds max %v", out, cfg.FanOut.Max)
			}
		}
		if real < int(cfg.Tasks.Min) || real > int(cfg.Tasks.Max) {
			t.Fatalf("real task count %d outside [%v,%v]", real, cfg.Tasks.Min, cfg.Tasks.Max)
		}
	}
}

func TestGenerateDeterministicPerSeed(t *testing.T) {
	w1, err := Generate("d", DefaultGenConfig(), stats.NewRand(5, 1))
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Generate("d", DefaultGenConfig(), stats.NewRand(5, 1))
	if err != nil {
		t.Fatal(err)
	}
	if w1.Len() != w2.Len() || w1.Edges() != w2.Edges() {
		t.Fatal("same seed produced structurally different workflows")
	}
	for id := 0; id < w1.Len(); id++ {
		if w1.Task(TaskID(id)).Load != w2.Task(TaskID(id)).Load {
			t.Fatal("same seed produced different loads")
		}
	}
}

// Property: every generated workflow is a valid DAG where all real tasks are
// reachable from the entry and reach the exit.
func TestQuickGeneratedWorkflowsWellFormed(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRand(seed, 4)
		w, err := Generate("q", DefaultGenConfig(), rng)
		if err != nil {
			return false
		}
		// Reachability from entry.
		fromEntry := make([]bool, w.Len())
		var dfs func(TaskID)
		dfs = func(u TaskID) {
			if fromEntry[u] {
				return
			}
			fromEntry[u] = true
			for _, e := range w.Successors(u) {
				dfs(e.To)
			}
		}
		dfs(w.Entry())
		// Reverse reachability from exit.
		toExit := make([]bool, w.Len())
		var rdfs func(TaskID)
		rdfs = func(u TaskID) {
			if toExit[u] {
				return
			}
			toExit[u] = true
			for _, e := range w.Predecessors(u) {
				rdfs(e.From)
			}
		}
		rdfs(w.Exit())
		for id := 0; id < w.Len(); id++ {
			if !fromEntry[id] || !toExit[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestGenerateAllocationsDoNotGrowWithTasks pins the flat build: every
// slice is sized from the task count and all task names share one string,
// so a 30-task workflow costs as many allocations as a 2-task one.
func TestGenerateAllocationsDoNotGrowWithTasks(t *testing.T) {
	allocs := func(n float64) float64 {
		cfg := DefaultGenConfig()
		cfg.Tasks = stats.Range{Min: n, Max: n}
		rng := stats.NewRand(1, 7)
		return testing.AllocsPerRun(200, func() {
			if _, err := Generate("wf-123-4", cfg, rng); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(2), allocs(30); small != large {
		t.Fatalf("Generate allocates %v times at 2 tasks and %v at 30, want equal", small, large)
	}
}

func BenchmarkGenerateWorkflow(b *testing.B) {
	rng := stats.NewRand(1, 5)
	cfg := DefaultGenConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate("bench", cfg, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRPM30Tasks(b *testing.B) {
	rng := stats.NewRand(2, 6)
	cfg := DefaultGenConfig()
	cfg.Tasks = stats.Range{Min: 30, Max: 30}
	w, err := Generate("bench", cfg, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RPM(w, est1)
	}
}
