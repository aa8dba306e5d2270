// Tracing: record the full runtime event stream of a small DSMF grid and
// render the per-node execution Gantt chart plus the event log of one
// workflow - the debugging workflow a scheduler developer actually uses.
//
//	go run ./examples/tracing
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	engine := sim.NewEngine()
	buf := trace.NewBuffer(1 << 16)
	g, err := grid.New(engine, grid.Config{Nodes: 8, Seed: 5, Tap: grid.TraceTap{Buf: buf}}, core.NewDSMF())
	if err != nil {
		log.Fatal(err)
	}
	weights := dag.DefaultWeights(stats.NewRand(5, 1))
	for home := 0; home < 4; home++ {
		w, err := dag.ForkJoin(fmt.Sprintf("fj-%d", home), 3, 2, weights)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := g.Submit(home, w); err != nil {
			log.Fatal(err)
		}
	}
	g.Start()
	engine.RunUntil(12 * 3600)

	fmt.Printf("completed %d workflows; %d events recorded (%d dropped)\n\n",
		g.CompletedCount, buf.Len(), buf.Dropped)

	counts := buf.CountByKind()
	fmt.Println("event counts:")
	for k := trace.KindSubmit; k <= trace.KindNodeUp; k++ {
		if counts[k] > 0 {
			fmt.Printf("  %-15s %d\n", k, counts[k])
		}
	}

	fmt.Println("\nper-node execution gantt (first 6 hours):")
	fmt.Print(buf.Gantt(0, 6*3600, 72))

	fmt.Println("\nevent log of workflow fj-0:")
	for _, e := range buf.Filter(func(e trace.Event) bool { return e.Workflow == "fj-0" }) {
		fmt.Println(e)
	}
}
