package dag

import (
	"fmt"
	"math/rand"

	"repro/internal/stats"
)

// GenConfig parameterizes the random workflow generator following Table I:
// 2-30 tasks per workflow, per-task fan-out degree 1-5, computing amount
// 100-10000 MI, task image 10-100 Mb, dependent data 100-10000 Mb (the
// per-experiment data range varies, e.g. 10-1000 Mb for the CCR ~ 0.16
// setting of Figs. 4-6).
type GenConfig struct {
	Tasks   stats.Range // number of real tasks, sampled as integer
	FanOut  stats.Range // out-degree per task, sampled as integer, clamped
	LoadMI  stats.Range // computational amount per task
	ImageMb stats.Range // task image size
	DataMb  stats.Range // dependent data per edge
}

// DefaultGenConfig returns Table I's headline setting with the Fig. 4 data
// range (10-1000 Mb) that yields CCR about 0.16.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		Tasks:   stats.Range{Min: 2, Max: 30},
		FanOut:  stats.Range{Min: 1, Max: 5},
		LoadMI:  stats.Range{Min: 100, Max: 10000},
		ImageMb: stats.Range{Min: 10, Max: 100},
		DataMb:  stats.Range{Min: 10, Max: 1000},
	}
}

// Generate builds a random workflow. The construction orders tasks 0..n-1,
// draws each non-final task's fan-out in [FanOut.Min, FanOut.Max] and wires
// it to that many distinct later tasks, guaranteeing acyclicity by rank and
// at least one successor per non-final task. Tasks left without precedents
// form multiple entries which Build() normalizes with a virtual entry, as
// the paper prescribes. The expected structure spans chains (n=2) to bushy
// fan-out-5 graphs (n=30).
func Generate(name string, cfg GenConfig, rng *rand.Rand) (*Workflow, error) {
	n := stats.SampleInt(rng, int(cfg.Tasks.Min), int(cfg.Tasks.Max))
	if n < 1 {
		return nil, fmt.Errorf("dag: generator needs at least 1 task, got %d", n)
	}
	b := NewBuilder(name)
	for i := 0; i < n; i++ {
		b.AddTask(fmt.Sprintf("%s/t%d", name, i),
			cfg.LoadMI.Sample(rng), cfg.ImageMb.Sample(rng))
	}
	hasPred := make([]bool, n)
	for i := 0; i < n-1; i++ {
		remaining := n - 1 - i // tasks strictly after i
		fan := stats.SampleInt(rng, int(cfg.FanOut.Min), int(cfg.FanOut.Max))
		if fan < 1 {
			fan = 1
		}
		if fan > remaining {
			fan = remaining
		}
		// Choose fan distinct successors among later tasks; bias the first
		// successor toward i+1 so long chains stay plausible.
		chosen := stats.SampleWithout(rng, remaining, fan, -1)
		for _, off := range chosen {
			to := i + 1 + off
			b.AddEdge(TaskID(i), TaskID(to), cfg.DataMb.Sample(rng))
			hasPred[to] = true
		}
	}
	// Any task (beyond 0) that ended up with no precedent stays a secondary
	// entry; normalization will bind it to the virtual entry. Nothing to do.
	_ = hasPred
	return b.Build()
}
