package dag

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

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
// form multiple entries which the construction normalizes with a virtual
// entry, as the paper prescribes. The expected structure spans chains (n=2)
// to bushy fan-out-5 graphs (n=30). Every slice is sized from the first
// draw, the task count, and task i is named "<name>/t<i>".
func Generate(name string, cfg GenConfig, rng *rand.Rand) (*Workflow, error) {
	n := stats.SampleInt(rng, int(cfg.Tasks.Min), int(cfg.Tasks.Max))
	if n < 1 {
		return nil, fmt.Errorf("dag: generator needs at least 1 task, got %d", n)
	}
	tasks := make([]Task, n, n+2) // room for the virtual entry and exit
	nameTasks(tasks, name)
	for i := range tasks {
		tasks[i].ID = TaskID(i)
		tasks[i].Load = cfg.LoadMI.Sample(rng)
		tasks[i].ImageMb = cfg.ImageMb.Sample(rng)
	}
	maxFan := max(1, int(cfg.FanOut.Min), int(cfg.FanOut.Max))
	room := 0
	for remaining := 1; remaining < n; remaining++ {
		room += min(maxFan, remaining)
	}
	edges := make([]Edge, 0, room)
	var sample [48]int // SampleWithoutInto's scratch for a fan-out up to 16
	for i := 0; i < n-1; i++ {
		remaining := n - 1 - i // tasks strictly after i
		fan := stats.SampleInt(rng, int(cfg.FanOut.Min), int(cfg.FanOut.Max))
		if fan < 1 {
			fan = 1
		}
		if fan > remaining {
			fan = remaining
		}
		// Choose fan distinct successors among later tasks. Tasks left
		// without a precedent become extra entries, which the construction
		// binds to a virtual entry.
		for _, off := range stats.SampleWithoutInto(rng, remaining, fan, -1, sample[:0]) {
			edges = append(edges, Edge{From: TaskID(i), To: TaskID(i + 1 + off), DataMb: cfg.DataMb.Sample(rng)})
		}
	}
	return build(name, tasks, edges)
}

// nameTasks names task i "<name>/t<i>". Every name is a slice of one
// string, so a workflow's task names cost one allocation.
func nameTasks(tasks []Task, name string) {
	size := 0
	for i := range tasks {
		size += len(name) + 2 + decimalLen(i)
	}
	var b strings.Builder
	b.Grow(size)
	var digits [20]byte
	for i := range tasks {
		b.WriteString(name)
		b.WriteString("/t")
		b.Write(strconv.AppendInt(digits[:0], int64(i), 10))
	}
	all := b.String()
	for i := range tasks {
		end := len(name) + 2 + decimalLen(i)
		tasks[i].Name, all = all[:end], all[end:]
	}
}

// decimalLen returns the number of decimal digits of i >= 0.
func decimalLen(i int) int {
	d := 1
	for ; i >= 10; i /= 10 {
		d++
	}
	return d
}
