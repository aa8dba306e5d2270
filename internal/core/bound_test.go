package core

import (
	"math"
	"testing"

	"repro/internal/dag"
	"repro/internal/grid"
	"repro/internal/sim"
)

// boundBytes hands out a fuzz input one byte at a time, then zeros.
type boundBytes []byte

func (f *boundBytes) next() int {
	if len(*f) == 0 {
		return 0
	}
	b := (*f)[0]
	*f = (*f)[1:]
	return int(b)
}

// pickOf returns tab[b mod len(tab)].
func pickOf(tab []float64, b int) float64 { return tab[b%len(tab)] }

var (
	nan, inf = math.NaN(), math.Inf(1)
	// The value tables a fuzz byte picks from. Repeated entries and round
	// numbers make FT ties common; loads 20000 and 19999.5 put two
	// candidates' FTs within a second of each other.
	boundCapacities = []float64{0, -4, inf, nan, 1, 2, 2, 4, 8, 16, 0.5, 3}
	boundLoads      = []float64{0, 1000, 1000, 5000, 20000, inf, nan, -1e-9, 3000, 1.5e5, 19999.5}
	boundTaskLoads  = []float64{3000, 0, 100, 1e6, inf, nan, 3000, 40}
	boundImages     = []float64{40, 0, 100, 1e5, nan, inf, 10}
	boundData       = []float64{300, 0, 5, 1e4, nan, inf, 300}
	boundRPMs       = []float64{0, 100, 1e3, 1e4}
	boundDeadlines  = []float64{0, 1, 500, 2000, 1e4, 1e6}
	boundBudgets    = []float64{0, 1, 1e3, 1e4, 1e5, 1e7}
	boundAvgCaps    = []float64{0, 1, 6.2}
)

const boundNodes = 12

// boundGrids are the fuzz target's grids: landmark estimates without
// prices, landmark estimates with a price table full of ties, and the
// oracle's true transfer times with the same prices.
func boundGrids(t testing.TB) []*grid.Grid {
	prices := []float64{1, 2, 2, 3, 1, 5, 2, 1, 4, 3, 3, 1}
	var gs []*grid.Grid
	for i, oracle := range []bool{false, false, true} {
		g, err := grid.New(sim.NewEngine(), grid.Config{Nodes: boundNodes, Seed: 31, UseOracleBandwidth: oracle}, NewDSMF())
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if err := g.SetPrices(prices); err != nil {
				t.Fatal(err)
			}
		}
		gs = append(gs, g)
	}
	return gs
}

// boundTask builds a task with 1-3 executed precedents from in, as the
// fuzz target describes, and returns it with its ranking.
func boundTask(t *testing.T, in *boundBytes) RankedTask {
	home, shape := in.next()%boundNodes, in.next()
	preds := 1 + shape%3
	b := dag.NewBuilder("bound")
	x := b.AddTask("x", pickOf(boundTaskLoads, shape/3), pickOf(boundImages, in.next()))
	nodes := make([]int, preds)
	for i := range nodes {
		p := b.AddTask("p", 100, 10)
		b.AddEdge(p, x, pickOf(boundData, in.next()))
		// A precedent left unexecuted (-1) ships its data from home.
		nodes[i] = in.next()%(boundNodes+1) - 1
	}
	w, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	wf := &grid.WorkflowInstance{W: w, Home: home, State: grid.WorkflowActive}
	wf.SLA = grid.SLA{Deadline: pickOf(boundDeadlines, in.next()), Budget: pickOf(boundBudgets, in.next())}
	wf.Tasks = make([]*grid.TaskInstance, w.Len())
	for i := range wf.Tasks {
		wf.Tasks[i] = &grid.TaskInstance{WF: wf, ID: dag.TaskID(i), State: grid.TaskDone, Node: -1}
	}
	for i, e := range w.Predecessors(x) {
		wf.Tasks[e.From].Node = nodes[i]
	}
	wf.Tasks[x].State = grid.TaskSchedulePoint
	return RankedTask{Task: wf.Tasks[x], RPM: pickOf(boundRPMs, shape/24)}
}

// FuzzPhase1Bound pins every phase-1 planner's bounded search to the full
// search over hand-built candidate sets. The first byte picks the grid
// (boundGrids) and the average capacity DBC prices the downstream path
// with. The task bytes follow (boundTask): its home; its precedent count
// (1-3), load and RPM; its image size; per precedent, its data size and
// the node that ran it; then its workflow's deadline and budget. Each
// following three-byte group adds a candidate: its node, capacity and
// advertised load, from tables that hold zero, negative, infinite and NaN
// capacities, +Inf and NaN loads and many ties. It requires
//   - BestNode's (idx, ft) to equal referenceBestNode's bit for bit, with
//     idx the lowest index of the least FT;
//   - DBCPhase1.pick to make ReferenceDBCPhase1.pick's choice in all three
//     modes;
//   - a matrix row's lazy rescan to give computeRow's (BestIdx, BestFT,
//     SecondFT), first on the fresh candidates, then after each of three
//     placements on the row's best candidate, as MatrixPhase1 makes them.
//
// The seed corpus is in testdata/fuzz/FuzzPhase1Bound.
func FuzzPhase1Bound(f *testing.F) {
	gs := boundGrids(f)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	f.Fuzz(func(t *testing.T, data []byte) {
		in := boundBytes(data)
		sel := in.next()
		g, avgCap := gs[sel%len(gs)], pickOf(boundAvgCaps, sel/len(gs))
		rt := boundTask(t, &in)
		var cands []Candidate
		for len(in) > 0 && len(cands) < 16 {
			cands = append(cands, Candidate{
				Node:         in.next() % boundNodes,
				CapacityMIPS: pickOf(boundCapacities, in.next()),
				TotalLoadMI:  pickOf(boundLoads, in.next()),
			})
		}

		idx, ft := BestNode(g, rt.Task, cands)
		wantIdx, wantFT := referenceBestNode(g, rt.Task, cands)
		if idx != wantIdx || !same(ft, wantFT) {
			t.Fatalf("BestNode = (%d, %v), full search (%d, %v) over %+v", idx, ft, wantIdx, wantFT, cands)
		}
		for j := range cands {
			v := FinishTime(g, rt.Task, cands[j])
			if v < ft || (j < idx && v == ft) {
				t.Fatalf("BestNode = (%d, %v), but candidate %d has FT %v", idx, ft, j, v)
			}
		}

		for _, mode := range []DBCMode{DBCCost, DBCTime, DBCCostTime} {
			s := &DBCPhase1{Mode: mode}
			ref := &ReferenceDBCPhase1{Mode: mode}
			gotIdx, gotOK := s.pick(g, rt, cands, 0, avgCap)
			refIdx, refOK := ref.pick(g, rt, cands, 0, avgCap)
			if gotIdx != refIdx || gotOK != refOK {
				t.Fatalf("DBC mode %d picks (%d, %v), full search (%d, %v) over %+v", mode, gotIdx, gotOK, refIdx, refOK, cands)
			}
		}

		terms := make([]ftTerms, len(cands))
		row := newRow(rt, cands, terms)
		delay := make([]float64, len(cands))
		for i, c := range cands {
			delay[i] = queueDelay(c)
		}
		load := rt.Task.Task().Load
		for placement := 0; ; placement++ {
			row.rescan(g, cands, delay)
			want := computeRow(g, rt, cands)
			if row.BestIdx != want.BestIdx || !same(row.BestFT, want.BestFT) || !same(row.SecondFT, want.SecondFT) {
				t.Fatalf("placement %d: rescan (%d, %v, %v), computeRow (%d, %v, %v) over %+v", placement,
					row.BestIdx, row.BestFT, row.SecondFT, want.BestIdx, want.BestFT, want.SecondFT, cands)
			}
			if placement == 3 || row.BestIdx < 0 {
				break
			}
			cands[row.BestIdx].TotalLoadMI += load
			delay[row.BestIdx] = queueDelay(cands[row.BestIdx])
		}
	})
}
