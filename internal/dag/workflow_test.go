package dag

import (
	"slices"
	"strings"
	"testing"
)

// diamond builds entry->a,b->exit with unit loads and data.
func diamond(t *testing.T) *Workflow {
	t.Helper()
	b := NewBuilder("diamond")
	entry := b.AddTask("entry", 10, 1)
	a := b.AddTask("a", 20, 1)
	c := b.AddTask("b", 30, 1)
	exit := b.AddTask("exit", 40, 1)
	b.AddEdge(entry, a, 5)
	b.AddEdge(entry, c, 6)
	b.AddEdge(a, exit, 7)
	b.AddEdge(c, exit, 8)
	w, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return w
}

func TestBuildSimpleDiamond(t *testing.T) {
	w := diamond(t)
	if w.Len() != 4 {
		t.Fatalf("Len = %d, want 4 (no virtual tasks needed)", w.Len())
	}
	if w.Entry() != 0 || w.Exit() != 3 {
		t.Fatalf("entry/exit = %d/%d, want 0/3", w.Entry(), w.Exit())
	}
	if w.Edges() != 4 {
		t.Fatalf("Edges = %d, want 4", w.Edges())
	}
	if got := w.TotalLoad(); got != 100 {
		t.Fatalf("TotalLoad = %v, want 100", got)
	}
}

func TestBuildRejectsEmpty(t *testing.T) {
	if _, err := NewBuilder("e").Build(); err == nil {
		t.Fatal("expected error for empty workflow")
	}
}

func TestBuildRejectsCycle(t *testing.T) {
	b := NewBuilder("cycle")
	x := b.AddTask("x", 1, 1)
	y := b.AddTask("y", 1, 1)
	z := b.AddTask("z", 1, 1)
	b.AddEdge(x, y, 1)
	b.AddEdge(y, z, 1)
	b.AddEdge(z, x, 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("expected cycle error")
	}
}

func TestBuildRejectsSelfLoop(t *testing.T) {
	b := NewBuilder("self")
	x := b.AddTask("x", 1, 1)
	b.AddEdge(x, x, 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("expected self-loop error")
	}
}

func TestBuildRejectsDuplicateEdge(t *testing.T) {
	b := NewBuilder("dup")
	x := b.AddTask("x", 1, 1)
	y := b.AddTask("y", 1, 1)
	b.AddEdge(x, y, 1)
	b.AddEdge(x, y, 2)
	if _, err := b.Build(); err == nil {
		t.Fatal("expected duplicate edge error")
	}
}

func TestBuildRejectsBadValues(t *testing.T) {
	cases := []func(*Builder){
		func(b *Builder) { b.AddTask("neg", -1, 1) },
		func(b *Builder) { b.AddTask("negimg", 1, -1) },
		func(b *Builder) {
			x := b.AddTask("x", 1, 1)
			y := b.AddTask("y", 1, 1)
			b.AddEdge(x, y, -3)
		},
		func(b *Builder) {
			x := b.AddTask("x", 1, 1)
			b.AddEdge(x, TaskID(99), 1)
		},
	}
	for i, mutate := range cases {
		b := NewBuilder("bad")
		mutate(b)
		if _, err := b.Build(); err == nil {
			t.Errorf("case %d: expected build error", i)
		}
	}
}

func TestNormalizationAddsVirtualEntryAndExit(t *testing.T) {
	b := NewBuilder("multi")
	// Two independent chains: two entries, two exits.
	a1 := b.AddTask("a1", 10, 1)
	a2 := b.AddTask("a2", 10, 1)
	b1 := b.AddTask("b1", 10, 1)
	b2 := b.AddTask("b2", 10, 1)
	b.AddEdge(a1, a2, 1)
	b.AddEdge(b1, b2, 1)
	w, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if w.Len() != 6 {
		t.Fatalf("Len = %d, want 6 (4 real + virtual entry/exit)", w.Len())
	}
	entry, exit := w.Task(w.Entry()), w.Task(w.Exit())
	if !entry.Virtual || !exit.Virtual {
		t.Fatal("entry/exit should be virtual after normalization")
	}
	if entry.Load != 0 || exit.Load != 0 {
		t.Fatal("virtual tasks must have zero cost")
	}
	if len(w.Successors(w.Entry())) != 2 {
		t.Fatalf("virtual entry has %d successors, want 2", len(w.Successors(w.Entry())))
	}
	if len(w.Predecessors(w.Exit())) != 2 {
		t.Fatalf("virtual exit has %d predecessors, want 2", len(w.Predecessors(w.Exit())))
	}
	for _, e := range w.Successors(w.Entry()) {
		if e.DataMb != 0 {
			t.Fatal("virtual entry edges must carry no data")
		}
	}
}

func TestSingleTaskWorkflow(t *testing.T) {
	b := NewBuilder("one")
	b.AddTask("only", 100, 10)
	w, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if w.Entry() != w.Exit() {
		t.Fatal("single task must be both entry and exit")
	}
	if w.Len() != 1 {
		t.Fatalf("Len = %d, want 1", w.Len())
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	w := diamond(t)
	pos := make(map[TaskID]int)
	for i, id := range w.TopoOrder() {
		pos[id] = i
	}
	for id := TaskID(0); int(id) < w.Len(); id++ {
		for _, e := range w.Successors(id) {
			if pos[e.From] >= pos[e.To] {
				t.Fatalf("topo order violates edge %d->%d", e.From, e.To)
			}
		}
	}
	if w.TopoOrder()[0] != w.Entry() {
		t.Fatal("entry must come first in topo order")
	}
	if w.TopoOrder()[w.Len()-1] != w.Exit() {
		t.Fatal("exit must come last in topo order")
	}
}

func TestDOTContainsTasksAndEdges(t *testing.T) {
	w := diamond(t)
	dot := w.DOT()
	for _, frag := range []string{"digraph", "t0 -> t1", "t2 -> t3", "10 MI"} {
		if !strings.Contains(dot, frag) {
			t.Errorf("DOT output missing %q:\n%s", frag, dot)
		}
	}
}

func TestScaleLoadsPreservesStructure(t *testing.T) {
	w := diamond(t)
	scaled, err := w.ScaleLoads(2.5)
	if err != nil {
		t.Fatal(err)
	}
	if scaled.Len() != w.Len() || scaled.Edges() != w.Edges() {
		t.Fatalf("structure changed: %d tasks/%d edges vs %d/%d",
			scaled.Len(), scaled.Edges(), w.Len(), w.Edges())
	}
	if got := scaled.TotalLoad(); got != 250 {
		t.Fatalf("TotalLoad = %v, want 250", got)
	}
	for id := TaskID(0); int(id) < w.Len(); id++ {
		if scaled.Task(id).Load != w.Task(id).Load*2.5 {
			t.Fatalf("task %d load %v, want %v", id, scaled.Task(id).Load, w.Task(id).Load*2.5)
		}
		if scaled.Task(id).ImageMb != w.Task(id).ImageMb {
			t.Fatalf("task %d image size changed", id)
		}
	}
	for id := TaskID(0); int(id) < w.Len(); id++ {
		se, we := scaled.Successors(id), w.Successors(id)
		if len(se) != len(we) {
			t.Fatalf("task %d successor count changed", id)
		}
		for i := range se {
			if se[i] != we[i] {
				t.Fatalf("task %d edge %d changed: %+v vs %+v", id, i, se[i], we[i])
			}
		}
	}
	for _, bad := range []float64{0, -1} {
		if _, err := w.ScaleLoads(bad); err == nil {
			t.Errorf("factor %v accepted", bad)
		}
	}
}

// TestScaleLoadsRederivesVirtualTasks checks the multi-entry case: the
// virtual entry added by normalization is rebuilt, real task IDs are
// preserved, and virtual tasks stay zero-cost.
func TestScaleLoadsRederivesVirtualTasks(t *testing.T) {
	b := NewBuilder("multi")
	a := b.AddTask("a", 10, 1)
	c := b.AddTask("b", 20, 1)
	exit := b.AddTask("exit", 30, 1)
	b.AddEdge(a, exit, 5)
	b.AddEdge(c, exit, 6)
	w, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 4 {
		t.Fatalf("expected a virtual entry, Len = %d", w.Len())
	}
	scaled, err := w.ScaleLoads(3)
	if err != nil {
		t.Fatal(err)
	}
	if scaled.Len() != w.Len() || scaled.Entry() != w.Entry() || scaled.Exit() != w.Exit() {
		t.Fatalf("normalization diverged: %d tasks entry=%d exit=%d vs %d/%d/%d",
			scaled.Len(), scaled.Entry(), scaled.Exit(), w.Len(), w.Entry(), w.Exit())
	}
	if got := scaled.TotalLoad(); got != 180 {
		t.Fatalf("TotalLoad = %v, want 180", got)
	}
	if !scaled.Task(scaled.Entry()).Virtual || scaled.Task(scaled.Entry()).Load != 0 {
		t.Fatal("virtual entry must stay zero-cost")
	}
}

// TestAdjacencyAppendDoesNotAlias pins the capped adjacency slices: every
// task's edges share two arrays, so an append to one task's list must copy
// rather than overwrite the next task's edges.
func TestAdjacencyAppendDoesNotAlias(t *testing.T) {
	b := NewBuilder("alias")
	for i := 0; i < 5; i++ {
		b.AddTask("t", 1, 1)
	}
	for _, e := range [][2]TaskID{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {1, 4}} {
		b.AddEdge(e[0], e[1], 1)
	}
	w, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	snapshot := func() (succ, pred [][]Edge) {
		for id := 0; id < w.Len(); id++ {
			succ = append(succ, append([]Edge(nil), w.Successors(TaskID(id))...))
			pred = append(pred, append([]Edge(nil), w.Predecessors(TaskID(id))...))
		}
		return succ, pred
	}
	wantSucc, wantPred := snapshot()
	junk := Edge{From: 99, To: 99, DataMb: -1}
	for id := 0; id < w.Len(); id++ {
		_ = append(w.Successors(TaskID(id)), junk)
		_ = append(w.Predecessors(TaskID(id)), junk)
	}
	gotSucc, gotPred := snapshot()
	for id := range wantSucc {
		if !slices.Equal(gotSucc[id], wantSucc[id]) || !slices.Equal(gotPred[id], wantPred[id]) {
			t.Fatalf("task %d: appends elsewhere changed its edges to %v / %v, want %v / %v",
				id, gotSucc[id], gotPred[id], wantSucc[id], wantPred[id])
		}
	}
}
