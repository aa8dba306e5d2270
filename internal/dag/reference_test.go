package dag

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refWorkflow and refBuilder are the map-based construction the flat one
// replaced, kept as the reference it must match: per-task adjacency slices,
// a map for duplicate edges, normalization appending to those slices, and a
// FIFO Kahn order.
type refWorkflow struct {
	Name  string
	tasks []Task
	succ  [][]Edge
	pred  [][]Edge
	entry TaskID
	exit  TaskID
	topo  []TaskID
}

type refBuilder struct {
	name  string
	tasks []Task
	edges []Edge
}

func (b *refBuilder) AddTask(name string, loadMI, imageMb float64) TaskID {
	id := TaskID(len(b.tasks))
	b.tasks = append(b.tasks, Task{ID: id, Name: name, Load: loadMI, ImageMb: imageMb})
	return id
}

func (b *refBuilder) AddEdge(from, to TaskID, dataMb float64) {
	b.edges = append(b.edges, Edge{From: from, To: to, DataMb: dataMb})
}

func (b *refBuilder) Build() (*refWorkflow, error) {
	n := len(b.tasks)
	if n == 0 {
		return nil, fmt.Errorf("dag: workflow %q has no tasks", b.name)
	}
	for _, t := range b.tasks {
		if t.Load < 0 {
			return nil, fmt.Errorf("dag: task %q has negative load %v", t.Name, t.Load)
		}
		if t.ImageMb < 0 {
			return nil, fmt.Errorf("dag: task %q has negative image size %v", t.Name, t.ImageMb)
		}
	}
	w := &refWorkflow{
		Name:  b.name,
		tasks: append([]Task(nil), b.tasks...),
		succ:  make([][]Edge, n),
		pred:  make([][]Edge, n),
	}
	seen := make(map[[2]TaskID]bool, len(b.edges))
	for _, e := range b.edges {
		if e.From < 0 || int(e.From) >= n || e.To < 0 || int(e.To) >= n {
			return nil, fmt.Errorf("dag: edge %d->%d out of range in %q", e.From, e.To, b.name)
		}
		if e.From == e.To {
			return nil, fmt.Errorf("dag: self-loop on task %d in %q", e.From, b.name)
		}
		if e.DataMb < 0 {
			return nil, fmt.Errorf("dag: negative data size on edge %d->%d", e.From, e.To)
		}
		key := [2]TaskID{e.From, e.To}
		if seen[key] {
			return nil, fmt.Errorf("dag: duplicate edge %d->%d in %q", e.From, e.To, b.name)
		}
		seen[key] = true
		w.succ[e.From] = append(w.succ[e.From], e)
		w.pred[e.To] = append(w.pred[e.To], e)
	}
	if err := w.normalize(); err != nil {
		return nil, err
	}
	topo, err := w.topoSort()
	if err != nil {
		return nil, err
	}
	w.topo = topo
	return w, nil
}

func (w *refWorkflow) normalize() error {
	var entries, exits []TaskID
	for _, t := range w.tasks {
		if len(w.pred[t.ID]) == 0 {
			entries = append(entries, t.ID)
		}
		if len(w.succ[t.ID]) == 0 {
			exits = append(exits, t.ID)
		}
	}
	if len(entries) == 0 {
		return fmt.Errorf("dag: workflow %q has no entry task (cycle)", w.Name)
	}
	if len(exits) == 0 {
		return fmt.Errorf("dag: workflow %q has no exit task (cycle)", w.Name)
	}
	if len(entries) == 1 {
		w.entry = entries[0]
	} else {
		id := w.addVirtual("entry*")
		for _, e := range entries {
			edge := Edge{From: id, To: e, DataMb: 0}
			w.succ[id] = append(w.succ[id], edge)
			w.pred[e] = append(w.pred[e], edge)
		}
		w.entry = id
	}
	if len(exits) == 1 {
		w.exit = exits[0]
	} else {
		id := w.addVirtual("exit*")
		for _, e := range exits {
			edge := Edge{From: e, To: id, DataMb: 0}
			w.succ[e] = append(w.succ[e], edge)
			w.pred[id] = append(w.pred[id], edge)
		}
		w.exit = id
	}
	return nil
}

func (w *refWorkflow) addVirtual(name string) TaskID {
	id := TaskID(len(w.tasks))
	w.tasks = append(w.tasks, Task{ID: id, Name: name, Virtual: true})
	w.succ = append(w.succ, nil)
	w.pred = append(w.pred, nil)
	return id
}

func (w *refWorkflow) topoSort() ([]TaskID, error) {
	n := len(w.tasks)
	indeg := make([]int, n)
	for _, es := range w.succ {
		for _, e := range es {
			indeg[e.To]++
		}
	}
	queue := make([]TaskID, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, TaskID(i))
		}
	}
	order := make([]TaskID, 0, n)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, e := range w.succ[u] {
			indeg[e.To]--
			if indeg[e.To] == 0 {
				queue = append(queue, e.To)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("dag: workflow %q contains a cycle", w.Name)
	}
	return order, nil
}

// MarshalJSON is the map-indexed encoding the flat layout replaced.
func (w *refWorkflow) MarshalJSON() ([]byte, error) {
	jw := jsonWorkflow{Name: w.Name}
	index := make(map[TaskID]int, len(w.tasks))
	for _, t := range w.tasks {
		if t.Virtual {
			continue
		}
		index[t.ID] = len(jw.Tasks)
		jw.Tasks = append(jw.Tasks, jsonTask{Name: t.Name, LoadMI: t.Load, ImageMb: t.ImageMb})
	}
	for _, es := range w.succ {
		for _, e := range es {
			fi, fok := index[e.From]
			ti, tok := index[e.To]
			if !fok || !tok {
				continue
			}
			jw.Edges = append(jw.Edges, jsonEdge{From: fi, To: ti, DataMb: e.DataMb})
		}
	}
	return json.Marshal(jw)
}

// refUnmarshal is UnmarshalWorkflow over the reference builder.
func refUnmarshal(data []byte) (*refWorkflow, error) {
	var jw jsonWorkflow
	if err := json.Unmarshal(data, &jw); err != nil {
		return nil, fmt.Errorf("dag: decode workflow: %w", err)
	}
	if len(jw.Tasks) == 0 {
		return nil, fmt.Errorf("dag: workflow %q has no tasks", jw.Name)
	}
	b := &refBuilder{name: jw.Name}
	ids := make([]TaskID, len(jw.Tasks))
	for i, t := range jw.Tasks {
		ids[i] = b.AddTask(t.Name, t.LoadMI, t.ImageMb)
	}
	for _, e := range jw.Edges {
		if e.From < 0 || e.From >= len(ids) || e.To < 0 || e.To >= len(ids) {
			return nil, fmt.Errorf("dag: edge %d->%d out of range", e.From, e.To)
		}
		b.AddEdge(ids[e.From], ids[e.To], e.DataMb)
	}
	return b.Build()
}

// matchReference fails t unless got and gotErr equal the reference's
// result: the same error text, or the same tasks, adjacency in order,
// topological order, entry, exit and JSON bytes.
func matchReference(t *testing.T, got *Workflow, gotErr error, want *refWorkflow, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("error = %v, reference %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if got.Name != want.Name || !slices.Equal(got.tasks, want.tasks) {
		t.Fatalf("tasks = %q %+v, reference %q %+v", got.Name, got.tasks, want.Name, want.tasks)
	}
	for id := range want.tasks {
		if s := got.Successors(TaskID(id)); !slices.Equal(s, want.succ[id]) {
			t.Fatalf("Successors(%d) = %v, reference %v", id, s, want.succ[id])
		}
		if p := got.Predecessors(TaskID(id)); !slices.Equal(p, want.pred[id]) {
			t.Fatalf("Predecessors(%d) = %v, reference %v", id, p, want.pred[id])
		}
	}
	if !slices.Equal(got.TopoOrder(), want.topo) || got.Entry() != want.entry || got.Exit() != want.exit {
		t.Fatalf("topo %v entry %d exit %d, reference %v %d %d",
			got.TopoOrder(), got.Entry(), got.Exit(), want.topo, want.entry, want.exit)
	}
	gj, err := got.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	wj, err := want.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gj, wj) {
		t.Fatalf("JSON = %s, reference %s", gj, wj)
	}
}

// FuzzUnmarshalWorkflow feeds the /v1 submit body's workflow decoder and
// checks it against the reference construction: the same accept/reject
// decision with the same error text, several faults in one input included,
// and on accept the same workflow.
func FuzzUnmarshalWorkflow(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gotErr := UnmarshalWorkflow(data)
		want, wantErr := refUnmarshal(data)
		matchReference(t, got, gotErr, want, wantErr)
	})
}

// TestBuildMatchesReferenceOnRandomGraphs drives both constructions with
// random task and edge lists that hit every fault, alone and several at
// once, and every normalization case: several entries, several exits,
// isolated tasks, single tasks and cycles.
func TestBuildMatchesReferenceOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20000; trial++ {
		n := rng.Intn(9)
		b, ref := NewBuilder("r"), &refBuilder{name: "r"}
		for i := 0; i < n; i++ {
			load, image := float64(rng.Intn(50)), float64(rng.Intn(9))
			switch rng.Intn(200) {
			case 0:
				load = -1
			case 1:
				image = -2
			case 2:
				image = math.Copysign(0, -1) // not negative: accepted
			}
			name := fmt.Sprintf("t%d", i)
			b.AddTask(name, load, image)
			ref.AddTask(name, load, image)
		}
		// Mostly forward edges between distinct tasks keep most graphs
		// acyclic; a few point backwards, onto themselves or out of range.
		for e := rng.Intn(2*n + 1); e > 0; e-- {
			from, to := TaskID(rng.Intn(n)), TaskID(rng.Intn(n))
			if from > to && rng.Intn(10) != 0 {
				from, to = to, from
			}
			if from == to && rng.Intn(10) != 0 {
				continue
			}
			switch rng.Intn(100) {
			case 0:
				to = TaskID(n)
			case 1:
				from = -1
			}
			data := float64(rng.Intn(20))
			if rng.Intn(100) == 0 {
				data = -data - 1
			}
			b.AddEdge(from, to, data)
			ref.AddEdge(from, to, data)
		}
		got, gotErr := b.Build()
		want, wantErr := ref.Build()
		matchReference(t, got, gotErr, want, wantErr)
	}
}
