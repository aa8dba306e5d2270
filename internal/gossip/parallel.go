package gossip

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// This file parallelizes one gossip cycle without changing a single bit of
// its outcome. The serial cycle is a sequence of per-node operations -
// "merge own record at i" and "push i's cache to t" - whose only shared
// state is the per-node caches: operation k conflicts with operation m iff
// they touch a common node. The executor therefore replays the EXACT
// serial operation sequence as a dependency graph: every operation carries
// its per-endpoint sequence numbers, a per-node progress counter advances
// as operations at that node complete, and an operation runs once both its
// endpoints' counters reach it. Workers own disjoint operation
// subsequences (by origin node) and spin briefly when an operation still
// waits on a foreign endpoint; since the globally earliest unexecuted
// operation is always runnable, the schedule is deadlock-free, and because
// per-node operation order equals the serial order, every cache ends the
// cycle byte-identical to the serial loop.
//
// Random draws (fan-out targets, aggregation partners) happen up front on
// one goroutine in the serial draw order, and the aggregation exchanges -
// which touch only the estimate arrays, disjoint from every push - replay
// serially after the pushes, preserving their serial inter-exchange order.

// cycleOp is one operation of a cycle's serial schedule. to == from means
// "merge node's own record"; otherwise it is a push from -> to. seqFrom
// and seqTo are the operation's positions in the per-node operation
// sequences of its endpoints (seqTo is unused for merges).
type cycleOp struct {
	from, to       int32
	seqFrom, seqTo int32
}

// parallelCycle is the reusable executor state.
type parallelCycle struct {
	ops      []cycleOp
	ownLoads []float64      // own record's load per node, indexed by node id
	aggPairs []int32        // flattened (i, j) aggregation exchanges
	opCount  []int32        // per-node op counter used while building
	progress []atomic.Int32 // per-node executed-op counter

	scratch []pushScratch // per-worker push scratch
}

// newParallelCycle sizes the op list and the aggregation pairs for a cycle
// in which every node is alive: one merge and FanOut pushes, and one
// exchange, per node.
func newParallelCycle(n, workers, fanOut, stride int) *parallelCycle {
	pc := &parallelCycle{
		ops:      make([]cycleOp, 0, n*(fanOut+1)),
		ownLoads: make([]float64, n),
		aggPairs: make([]int32, 0, 2*n),
		opCount:  make([]int32, n),
		progress: make([]atomic.Int32, n),
		scratch:  make([]pushScratch, workers),
	}
	for i := range pc.scratch {
		pc.scratch[i] = newPushScratch(n, stride)
	}
	return pc
}

// cycleParallel runs one gossip round with cfg.Workers goroutines,
// bit-identical to the serial loop in cycle. The epoch restart already ran
// and the cycle's mint is in the table.
func (p *Protocol) cycleParallel(mint uint32, live uint64) {
	workers := p.cfg.Workers
	if p.par == nil || len(p.par.scratch) != workers {
		p.par = newParallelCycle(p.cfg.N, workers, p.cfg.FanOut, p.cfg.CacheCapacity+2)
	}
	pc := p.par

	// Stage A (serial): snapshot liveness, draw every random choice in the
	// serial order (targets then partner, per alive node) and record the
	// cycle's operation schedule with per-endpoint sequence numbers.
	pc.ops = pc.ops[:0]
	pc.aggPairs = pc.aggPairs[:0]
	for i := range pc.opCount {
		pc.opCount[i] = 0
		pc.progress[i].Store(0)
	}
	for i := 0; i < p.cfg.N; i++ {
		s := p.local.Snapshot(i)
		if !s.Alive {
			continue
		}
		pc.ownLoads[i] = s.TotalLoadMI
		seq := pc.opCount[i]
		pc.opCount[i]++
		pc.ops = append(pc.ops, cycleOp{from: int32(i), to: int32(i), seqFrom: seq})
		targets := stats.SampleWithoutInto(p.rng, p.cfg.N, p.cfg.FanOut, i, p.sampleBuf)
		for _, t := range targets {
			if !p.local.Snapshot(t).Alive {
				continue
			}
			sf := pc.opCount[i]
			pc.opCount[i]++
			st := pc.opCount[t]
			pc.opCount[t]++
			pc.ops = append(pc.ops, cycleOp{from: int32(i), to: int32(t), seqFrom: sf, seqTo: st})
		}
		partner := stats.SampleWithoutInto(p.rng, p.cfg.N, 1, i, p.sampleBuf)
		if len(partner) == 1 && p.local.Snapshot(partner[0]).Alive {
			pc.aggPairs = append(pc.aggPairs, int32(i), int32(partner[0]))
		}
	}

	// Stage B (parallel): execute the schedule. Worker w owns the ops
	// whose origin node is congruent to w; it walks them in schedule order
	// and waits for foreign endpoints to catch up. A node's merge and its
	// pushes are consecutive in the schedule and owned by one worker, so
	// the forward list that worker builds after the merge serves the
	// pushes that follow. Progress counters are written only by the worker
	// executing that node's current op and read with acquire semantics, so
	// cache mutations are properly published.
	var msgs, bytes uint64
	if len(pc.ops) > 0 {
		var wg sync.WaitGroup
		var msgsTotal, bytesTotal atomic.Uint64
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				scratch := &pc.scratch[w]
				var m, b uint64
				for k := range pc.ops {
					op := &pc.ops[k]
					if int(op.from)%workers != w {
						continue
					}
					for pc.progress[op.from].Load() != op.seqFrom {
						runtime.Gosched()
					}
					if op.to == op.from {
						i := int(op.from)
						p.mergeOwn(i, record{key: packKey(mint, i, p.cfg.TTL), load: pc.ownLoads[i]})
						p.loadForward(i, live, scratch)
						pc.progress[op.from].Store(op.seqFrom + 1)
						continue
					}
					for pc.progress[op.to].Load() != op.seqTo {
						runtime.Gosched()
					}
					b += p.pushInto(int(op.from), int(op.to), live, scratch)
					m++
					pc.progress[op.from].Store(op.seqFrom + 1)
					pc.progress[op.to].Store(op.seqTo + 1)
				}
				msgsTotal.Add(m)
				bytesTotal.Add(b)
			}(w)
		}
		wg.Wait()
		msgs, bytes = msgsTotal.Load(), bytesTotal.Load()
	}
	p.MessagesSent += msgs
	p.BytesSent += bytes

	// Stage C (serial): the aggregation exchanges, in serial order. They
	// read and write only the estimate arrays, which no push touches, so
	// running them after the pushes leaves every value exactly as the
	// interleaved serial loop would.
	for k := 0; k+1 < len(pc.aggPairs); k += 2 {
		i, j := pc.aggPairs[k], pc.aggPairs[k+1]
		avgC := (p.estCap[i] + p.estCap[j]) / 2
		avgB := (p.estBW[i] + p.estBW[j]) / 2
		p.estCap[i], p.estCap[j] = avgC, avgC
		p.estBW[i], p.estBW[j] = avgB, avgB
		p.MessagesSent++
		p.BytesSent += 2 * MessageBytes // push and pull
	}
}
