// Package dag models scientific workflows as directed acyclic graphs, the
// paper's Section II. Vertices are tasks weighted by computational load
// (million instructions); edges carry the dependent data (Mb) a successor
// must collect before it can run. The package provides construction and
// validation, the paper's normalization to a unique zero-cost entry and exit
// task, topological analysis, the rest-path-makespan (RPM) recursion of
// Eq. 7, the critical-path expected finish time of Eq. 1, and a random
// workflow generator following Table I.
package dag

import (
	"fmt"
	"math"
)

// TaskID indexes a task inside one workflow.
type TaskID int

// Task is a workflow vertex.
type Task struct {
	ID      TaskID
	Name    string
	Load    float64 // computational amount in MI (million instructions)
	ImageMb float64 // task image shipped from home node to the resource node
	Virtual bool    // zero-cost entry/exit added by normalization
}

// Edge is a data dependency: To cannot start before From's output
// (DataMb megabits) has been transmitted to To's execution node.
type Edge struct {
	From, To TaskID
	DataMb   float64
}

// Workflow is an immutable DAG with a unique entry and exit task. Build one
// with a Builder (or the generator); the constructor validates acyclicity
// and normalizes multiple entries/exits with virtual zero-cost tasks exactly
// as Section II.A prescribes. Nothing writes a Workflow after it is built
// (ScaleLoads returns a copy), so one may be shared freely.
//
// The layout is flat: succ holds every edge grouped by From and pred every
// edge grouped by To, each group in insertion order with its normalization
// edge last, and task t's groups are succ[succOff[t]:succOff[t+1]] and
// pred[predOff[t]:predOff[t+1]]. Successors and Predecessors return those
// groups with their capacity capped at their length, so an append to one
// copies instead of overwriting the next task's edges.
type Workflow struct {
	Name             string
	tasks            []Task
	succ, pred       []Edge
	succOff, predOff []int32
	entry            TaskID
	exit             TaskID
	topo             []TaskID // cached topological order
}

// Len returns the number of tasks (including virtual ones).
func (w *Workflow) Len() int { return len(w.tasks) }

// Task returns the task with the given id.
func (w *Workflow) Task(id TaskID) Task { return w.tasks[id] }

// Entry returns the unique entry task id.
func (w *Workflow) Entry() TaskID { return w.entry }

// Exit returns the unique exit task id.
func (w *Workflow) Exit() TaskID { return w.exit }

// Successors returns the outgoing edges of t. The slice must not be mutated.
func (w *Workflow) Successors(t TaskID) []Edge {
	off := w.succOff[t : t+2]
	return w.succ[off[0]:off[1]:off[1]]
}

// Predecessors returns the incoming edges of t. The slice must not be
// mutated.
func (w *Workflow) Predecessors(t TaskID) []Edge {
	off := w.predOff[t : t+2]
	return w.pred[off[0]:off[1]:off[1]]
}

// TopoOrder returns a topological order (entry first, exit last).
func (w *Workflow) TopoOrder() []TaskID { return w.topo }

// Edges returns the total number of edges, the theta(f) of the paper's
// complexity analysis.
func (w *Workflow) Edges() int { return len(w.succ) }

// TotalLoad returns the sum of task loads in MI.
func (w *Workflow) TotalLoad() float64 {
	var sum float64
	for _, t := range w.tasks {
		sum += t.Load
	}
	return sum
}

// ScaleLoads returns a copy of w with every real task's computational load
// multiplied by factor (virtual normalization tasks stay zero-cost and the
// edge data volumes are untouched). It is the trace-replay shaping rule's
// workhorse: a generated Table I DAG is rescaled so its total load matches
// a trace job's recorded work. Virtual tasks are re-derived by the
// construction, which appends them after the real tasks exactly as the
// original one did, so real task IDs are preserved.
func (w *Workflow) ScaleLoads(factor float64) (*Workflow, error) {
	if factor <= 0 || math.IsNaN(factor) || math.IsInf(factor, 0) {
		return nil, fmt.Errorf("dag: load scale factor %v out of range", factor)
	}
	tasks := make([]Task, 0, len(w.tasks))
	for _, t := range w.tasks {
		if !t.Virtual {
			t.Load *= factor
			tasks = append(tasks, t)
		}
	}
	edges := make([]Edge, 0, len(w.succ))
	for _, e := range w.succ {
		if !w.tasks[e.From].Virtual && !w.tasks[e.To].Virtual {
			edges = append(edges, e)
		}
	}
	return build(w.Name, tasks, edges)
}

// Builder accumulates tasks and edges and validates them into a Workflow.
type Builder struct {
	name  string
	tasks []Task
	edges []Edge
}

// NewBuilder starts a workflow definition.
func NewBuilder(name string) *Builder { return &Builder{name: name} }

// AddTask appends a task and returns its id. Negative loads are rejected at
// Build time.
func (b *Builder) AddTask(name string, loadMI, imageMb float64) TaskID {
	id := TaskID(len(b.tasks))
	b.tasks = append(b.tasks, Task{ID: id, Name: name, Load: loadMI, ImageMb: imageMb})
	return id
}

// AddEdge declares that to depends on from with the given data volume.
func (b *Builder) AddEdge(from, to TaskID, dataMb float64) {
	b.edges = append(b.edges, Edge{From: from, To: to, DataMb: dataMb})
}

// Build validates the graph and returns the normalized workflow.
func (b *Builder) Build() (*Workflow, error) {
	return build(b.name, append(make([]Task, 0, len(b.tasks)+2), b.tasks...), b.edges)
}

// build is the one workflow construction, behind Builder.Build, Generate,
// ScaleLoads and UnmarshalWorkflow. It validates tasks, then edges in
// insertion order, and lays out the normalized graph: when several tasks
// have no precedent (no successor) it appends a zero-cost virtual "entry*"
// ("exit*") task whose edges reach them in ID order, the entry before the
// exit ("another newly added zero-cost task which connects all the original
// entry tasks can serve as the unique entry"). The topological order is
// Kahn's with a FIFO queue. build takes ownership of tasks and appends the
// virtual tasks to it, so room for two more saves a copy; edges is only
// read.
func build(name string, tasks []Task, edges []Edge) (*Workflow, error) {
	n := len(tasks)
	if n == 0 {
		return nil, fmt.Errorf("dag: workflow %q has no tasks", name)
	}
	for _, t := range tasks {
		if t.Load < 0 {
			return nil, fmt.Errorf("dag: task %q has negative load %v", t.Name, t.Load)
		}
		if t.ImageMb < 0 {
			return nil, fmt.Errorf("dag: task %q has negative image size %v", t.Name, t.ImageMb)
		}
	}
	for i, e := range edges {
		if err := edgeFault(name, e, n); err != nil {
			// A duplicate among the edges before it is reported first.
			if d := firstDuplicate(edges[:i], n); d >= 0 {
				return nil, duplicateError(name, edges[d])
			}
			return nil, err
		}
	}

	// Degrees of the real graph fix the normalization. The scratch holds
	// them, then the fill cursors, the duplicate stamps and Kahn's
	// in-degrees in turn; Table I sizes fit it on the stack.
	var stack [128]int32
	var scratch []int32
	if need := 2 * (n + 2); need <= len(stack) {
		scratch = stack[:need]
	} else {
		scratch = make([]int32, need)
	}
	outDeg, inDeg := scratch[:n+2], scratch[n+2:]
	for _, e := range edges {
		outDeg[e.From]++
		inDeg[e.To]++
	}
	entries, exits := 0, 0
	w := &Workflow{Name: name}
	for t := 0; t < n; t++ {
		if inDeg[t] == 0 {
			entries++
			w.entry = TaskID(t)
		}
		if outDeg[t] == 0 {
			exits++
			w.exit = TaskID(t)
		}
	}
	if entries > 1 {
		w.entry = TaskID(len(tasks))
		tasks = append(tasks, Task{ID: w.entry, Name: "entry*", Virtual: true})
	}
	if exits > 1 {
		w.exit = TaskID(len(tasks))
		tasks = append(tasks, Task{ID: w.exit, Name: "exit*", Virtual: true})
	}
	size := len(tasks)
	w.tasks = tasks

	// Group sizes: a normalization edge ends the successor group of every
	// original exit and the predecessor group of every original entry.
	off := make([]int32, 2*(size+1))
	w.succOff, w.predOff = off[:size+1], off[size+1:]
	m := int32(len(edges))
	for t := 0; t < n; t++ {
		w.succOff[t+1] = outDeg[t]
		w.predOff[t+1] = inDeg[t]
		if exits > 1 && outDeg[t] == 0 {
			w.succOff[t+1] = 1
			m++
		}
		if entries > 1 && inDeg[t] == 0 {
			w.predOff[t+1] = 1
			m++
		}
	}
	if entries > 1 {
		w.succOff[w.entry+1] = int32(entries)
	}
	if exits > 1 {
		w.predOff[w.exit+1] = int32(exits)
	}
	for t := 0; t < size; t++ {
		w.succOff[t+1] += w.succOff[t]
		w.predOff[t+1] += w.predOff[t]
	}

	es := make([]Edge, 2*int(m))
	w.succ, w.pred = es[:m:m], es[m:]
	// An original entry has no other precedent and an original exit no
	// other successor, so their normalization edges have fixed slots.
	nextEntry, nextExit := w.succOff[w.entry], w.predOff[w.exit]
	for t := 0; t < n; t++ {
		if entries > 1 && inDeg[t] == 0 {
			e := Edge{From: w.entry, To: TaskID(t)}
			w.succ[nextEntry], w.pred[w.predOff[t]] = e, e
			nextEntry++
		}
		if exits > 1 && outDeg[t] == 0 {
			e := Edge{From: TaskID(t), To: w.exit}
			w.succ[w.succOff[t]], w.pred[nextExit] = e, e
			nextExit++
		}
	}
	succAt, predAt := outDeg, inDeg
	copy(succAt, w.succOff[:n])
	copy(predAt, w.predOff[:n])
	for _, e := range edges {
		w.succ[succAt[e.From]] = e
		succAt[e.From]++
		w.pred[predAt[e.To]] = e
		predAt[e.To]++
	}

	stamp := scratch[:size]
	clear(stamp)
	for t := 0; t < n; t++ {
		for _, e := range w.succ[w.succOff[t]:w.succOff[t+1]] {
			if stamp[e.To] == int32(t)+1 {
				return nil, duplicateError(name, edges[firstDuplicate(edges, n)])
			}
			stamp[e.To] = int32(t) + 1
		}
	}
	if entries == 0 {
		return nil, fmt.Errorf("dag: workflow %q has no entry task (cycle)", name)
	}
	if exits == 0 {
		return nil, fmt.Errorf("dag: workflow %q has no exit task (cycle)", name)
	}

	indeg := scratch[:size]
	w.topo = make([]TaskID, 0, size)
	for t := 0; t < size; t++ {
		indeg[t] = w.predOff[t+1] - w.predOff[t]
		if indeg[t] == 0 {
			w.topo = append(w.topo, TaskID(t))
		}
	}
	// topo doubles as the FIFO queue: the order is the sequence of pushes.
	for head := 0; head < len(w.topo); head++ {
		for _, e := range w.Successors(w.topo[head]) {
			if indeg[e.To]--; indeg[e.To] == 0 {
				w.topo = append(w.topo, e.To)
			}
		}
	}
	if len(w.topo) != size {
		return nil, fmt.Errorf("dag: workflow %q contains a cycle", name)
	}
	return w, nil
}

// edgeFault checks one edge on its own, in the order the construction
// reports faults: endpoints, self-loop, data size.
func edgeFault(name string, e Edge, n int) error {
	switch {
	case e.From < 0 || int(e.From) >= n || e.To < 0 || int(e.To) >= n:
		return fmt.Errorf("dag: edge %d->%d out of range in %q", e.From, e.To, name)
	case e.From == e.To:
		return fmt.Errorf("dag: self-loop on task %d in %q", e.From, name)
	case e.DataMb < 0:
		return fmt.Errorf("dag: negative data size on edge %d->%d", e.From, e.To)
	}
	return nil
}

func duplicateError(name string, e Edge) error {
	return fmt.Errorf("dag: duplicate edge %d->%d in %q", e.From, e.To, name)
}

// firstDuplicate returns the index of the first edge that repeats an
// earlier edge's endpoints, or -1, as a check in insertion order would find
// it. Every endpoint must lie in [0, n). Only the error path calls it.
func firstDuplicate(edges []Edge, n int) int {
	start := make([]int32, n+1)
	for _, e := range edges {
		start[e.From+1]++
	}
	for t := 0; t < n; t++ {
		start[t+1] += start[t]
	}
	// byFrom lists edge indices grouped by From, in insertion order.
	byFrom := make([]int32, len(edges))
	at := make([]int32, n)
	copy(at, start)
	for i, e := range edges {
		byFrom[at[e.From]] = int32(i)
		at[e.From]++
	}
	stamp := at
	clear(stamp)
	first := -1
	for t := 0; t < n; t++ {
		for _, i := range byFrom[start[t]:start[t+1]] {
			to := edges[i].To
			if stamp[to] == int32(t)+1 && (first < 0 || int(i) < first) {
				first = int(i)
			}
			stamp[to] = int32(t) + 1
		}
	}
	return first
}
