package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"strconv"
	"testing"

	"repro/internal/dag"
	"repro/internal/stats"
	"repro/internal/workload/traces"
)

// generatedWorkflowsDigest pins every generated workflow bit for bit: the
// Table I, heavy-data and degenerate generator settings at three seeds, a
// trace replay (which rescales loads through ScaleLoads) and every
// structured family at scales 2-6. Any change to the draw order, the edge
// layout, normalization, topological order or the JSON encoding moves it.
const generatedWorkflowsDigest = "7a3717280fd00ad5b89b976be6729a902b0cb198617315ae11441dc9c57e1fb2"

func TestGeneratedWorkflowsDigest(t *testing.T) {
	h := sha256.New()
	gens := []dag.GenConfig{
		dag.DefaultGenConfig(),
		CCRScenario(stats.Range{Min: 10, Max: 1000}, stats.Range{Min: 100, Max: 10000}),
		{
			Tasks:   stats.Range{Min: 1, Max: 60},
			FanOut:  stats.Range{Min: 0, Max: 12},
			LoadMI:  stats.Range{Min: 0, Max: 100},
			ImageMb: stats.Range{Min: 0, Max: 10},
			DataMb:  stats.Range{Min: 0, Max: 50},
		},
	}
	n := 0
	for _, seed := range []int64{2010, 7, 1} {
		for _, gen := range gens {
			subs, err := Generate(Config{Nodes: 20, LoadFactor: 3, Gen: gen, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range subs {
				hashSubmission(t, h, s)
				n++
			}
		}
	}
	subs, err := Generate(Config{Nodes: 5, Gen: dag.DefaultGenConfig(), Seed: 2010, Trace: []traces.Job{
		{ID: 1, Submit: 0, Runtime: 100, Procs: 1},
		{ID: 2, Submit: 10, Runtime: 3600, Procs: 4},
		{ID: 3, Submit: 10, Runtime: 50, Procs: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range subs {
		hashSubmission(t, h, s)
		n++
	}
	rng := stats.NewRand(2010, 0x21)
	for _, family := range dag.Families() {
		for scale := 2; scale <= 6; scale++ {
			w, err := dag.FamilyByName(family, family+"-"+strconv.Itoa(scale), scale, dag.DefaultWeights(rng))
			if err != nil {
				t.Fatal(err)
			}
			hashWorkflow(t, h, w)
			n++
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	if got != generatedWorkflowsDigest {
		t.Fatalf("digest of %d generated workflows = %s, want %s", n, got, generatedWorkflowsDigest)
	}
}

func hashSubmission(t *testing.T, h hash.Hash, s Submission) {
	putInt(h, s.Home)
	putFloat(h, s.SubmitAt)
	hashWorkflow(t, h, s.Workflow)
}

func hashWorkflow(t *testing.T, h hash.Hash, w *dag.Workflow) {
	t.Helper()
	putString(h, w.Name)
	putInt(h, w.Len())
	for id := 0; id < w.Len(); id++ {
		task := w.Task(dag.TaskID(id))
		putInt(h, int(task.ID))
		putString(h, task.Name)
		putFloat(h, task.Load)
		putFloat(h, task.ImageMb)
		if task.Virtual {
			putInt(h, 1)
		} else {
			putInt(h, 0)
		}
		for _, list := range [][]dag.Edge{w.Successors(task.ID), w.Predecessors(task.ID)} {
			putInt(h, len(list))
			for _, e := range list {
				putInt(h, int(e.From))
				putInt(h, int(e.To))
				putFloat(h, e.DataMb)
			}
		}
	}
	topo := w.TopoOrder()
	putInt(h, len(topo))
	for _, id := range topo {
		putInt(h, int(id))
	}
	putInt(h, int(w.Entry()))
	putInt(h, int(w.Exit()))
	putInt(h, w.Edges())
	js, err := w.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	putString(h, string(js))
}

func putInt(h hash.Hash, v int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}

func putFloat(h hash.Hash, v float64) { putInt(h, int(math.Float64bits(v))) }

func putString(h hash.Hash, s string) {
	putInt(h, len(s))
	h.Write([]byte(s))
}
