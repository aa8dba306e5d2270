// Package sim implements the deterministic discrete-event simulation engine
// that replaces PeerSim in the paper's evaluation. Simulated time is a
// float64 in seconds. Events with equal timestamps fire in scheduling order
// (a monotone sequence number breaks ties), which makes every run with the
// same seed bit-for-bit reproducible.
//
// Engine is a serial event loop: one queue, one goroutine, one clock. Its
// shard count (NewSharded) schedules nothing in parallel; the grid passes it
// to the gossip protocol, which replays each cycle on that many workers
// with bit-identical results (see gossip.Config.Workers).
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// Event is a callback scheduled to run at a simulated instant. Handlers may
// schedule further events; they must not block.
type Event func(now float64)

type queuedEvent struct {
	at    float64
	seq   uint64
	gen   uint64 // bumped every time the struct is recycled off the free list
	fire  Event
	index int // heap index, maintained by eventQueue
	dead  bool
}

// Handle identifies a scheduled event so it can be cancelled. The zero
// Handle is invalid. The generation snapshot keeps a Handle safe to retain
// past its event's lifetime even though the engine recycles queuedEvent
// allocations: a stale Handle simply stops matching.
type Handle struct {
	qe  *queuedEvent
	gen uint64
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op. It reports whether the event was live.
func (h Handle) Cancel() bool {
	if h.qe == nil || h.qe.gen != h.gen || h.qe.dead {
		return false
	}
	h.qe.dead = true
	return true
}

// Live reports whether the event is still pending.
func (h Handle) Live() bool {
	return h.qe != nil && h.qe.gen == h.gen && !h.qe.dead && h.qe.index >= 0
}

type eventQueue []*queuedEvent

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	qe := x.(*queuedEvent)
	qe.index = len(*q)
	*q = append(*q, qe)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	qe := old[n-1]
	old[n-1] = nil
	qe.index = -1
	*q = old[:n-1]
	return qe
}

// Engine is a single-threaded event loop. It is intentionally not safe for
// concurrent use: determinism is the point. Run many engines in parallel (one
// per goroutine) to exploit multicore machines; see internal/experiments.
type Engine struct {
	now     float64
	seq     uint64
	queue   eventQueue
	free    []*queuedEvent // drained events awaiting reuse by At
	stopped bool
	shards  int // reported by Shards; sets the gossip cycle's workers
	// Processed counts fired (non-cancelled) events, for tests and tracing.
	Processed uint64
}

// NewEngine returns an engine positioned at time zero, with one shard.
func NewEngine() *Engine { return &Engine{shards: 1} }

// NewSharded returns an engine positioned at time zero whose Shards reports
// k clamped to [1, numNodes]. Every event still runs on the one serial loop.
func NewSharded(k, numNodes int) *Engine {
	return &Engine{shards: max(1, min(k, numNodes))}
}

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Pending returns the number of queued events (including cancelled ones not
// yet popped).
func (e *Engine) Pending() int { return len(e.queue) }

// At schedules fn to run at absolute time t. Scheduling in the past (or at
// the exact current time) fires at the current time, preserving causal order
// behind events already queued for that instant.
func (e *Engine) At(t float64, fn Event) Handle {
	if fn == nil {
		panic("sim: nil event")
	}
	if math.IsNaN(t) {
		panic("sim: NaN event time")
	}
	if t < e.now {
		t = e.now
	}
	var qe *queuedEvent
	if n := len(e.free); n > 0 {
		qe = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		qe.at, qe.seq, qe.fire, qe.dead = t, e.seq, fn, false
	} else {
		qe = &queuedEvent{at: t, seq: e.seq, fire: fn}
	}
	e.seq++
	heap.Push(&e.queue, qe)
	return Handle{qe, qe.gen}
}

// release returns a popped event to the free list. Bumping the generation
// invalidates every outstanding Handle to it before reuse; dropping the
// callback lets the closure (and whatever it captures) be collected.
func (e *Engine) release(qe *queuedEvent) {
	qe.gen++
	qe.fire = nil
	e.free = append(e.free, qe)
}

// After schedules fn to run d seconds from now. Negative delays clamp to 0.
func (e *Engine) After(d float64, fn Event) Handle {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Every schedules fn to run periodically starting at time start with the
// given period, until the engine stops or the returned Ticker is cancelled.
// The callback receives the firing time.
func (e *Engine) Every(start, period float64, fn Event) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive period %v", period))
	}
	t := &Ticker{engine: e, period: period, fn: fn}
	t.handle = e.At(start, t.tick)
	return t
}

// Ticker is a periodic event created by Every.
type Ticker struct {
	engine  *Engine
	period  float64
	fn      Event
	handle  Handle
	stopped bool
}

func (t *Ticker) tick(now float64) {
	if t.stopped {
		return
	}
	t.fn(now)
	if !t.stopped && !t.engine.stopped {
		t.handle = t.engine.At(now+t.period, t.tick)
	}
}

// Stop cancels future firings. Safe to call multiple times.
func (t *Ticker) Stop() {
	t.stopped = true
	t.handle.Cancel()
}

// Stop halts the run loop after the current event returns. Stopping is
// sticky: a stopped engine stays stopped, so a later RunUntil is a no-op
// (it processes no events and leaves the clock untouched). Tests that want
// to continue a stopped engine must build a fresh one; production runs
// treat Stop as the end of the simulation.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// RunUntil processes events in timestamp order until the queue drains, the
// engine is stopped, or the next event would fire after deadline. The clock
// is left at min(deadline, last fired event time); when the queue drains
// early the clock still advances to a finite deadline so that periodic
// metric snapshots see the full horizon. A Stop mid-run leaves the clock at the
// stopping event's time: the horizon was never simulated, so the clock must
// not claim it was.
func (e *Engine) RunUntil(deadline float64) {
	for !e.stopped && len(e.queue) > 0 {
		next := e.queue[0]
		if next.dead {
			heap.Pop(&e.queue)
			e.release(next)
			continue
		}
		if next.at > deadline {
			break
		}
		heap.Pop(&e.queue)
		e.now = next.at
		// Recycle before firing: the handler may schedule new events, and
		// handing it this freshly released struct is fine because release
		// already advanced the generation past every outstanding Handle.
		fire := next.fire
		e.release(next)
		fire(e.now)
		e.Processed++
	}
	if !e.stopped && e.now < deadline && !math.IsInf(deadline, 1) {
		e.now = deadline
	}
}

// Run processes every queued event until the queue drains or Stop is called.
func (e *Engine) Run() { e.RunUntil(math.Inf(1)) }

// NextEventTime returns the timestamp of the earliest live pending event,
// or +Inf when none is queued: the soonest instant at which RunUntil could
// change any state. Long-lived drivers use it to jump over idle gaps.
func (e *Engine) NextEventTime() float64 { return e.nextEventTime() }

// nextEventTime returns the timestamp of the earliest live queued event, or
// +Inf when none is queued. Dead (cancelled) events are popped on the way,
// exactly as RunUntil would pop them.
func (e *Engine) nextEventTime() float64 {
	for len(e.queue) > 0 {
		next := e.queue[0]
		if !next.dead {
			return next.at
		}
		heap.Pop(&e.queue)
		e.release(next)
	}
	return math.Inf(1)
}

// NodeAt is At; node is ignored. It stays for callers of the Host surface
// (see Host).
func (e *Engine) NodeAt(node int, t float64, fn Event) Handle { return e.At(t, fn) }

// NodeAfter is After; node is ignored.
func (e *Engine) NodeAfter(node int, d float64, fn Event) Handle { return e.After(d, fn) }

// DeferFrom calls fn(t) at once; node is ignored.
func (e *Engine) DeferFrom(node int, t float64, fn Event) { fn(t) }

// Shards returns the shard count the engine was built with: the number of
// workers the gossip cycle is spread over (1 from NewEngine).
func (e *Engine) Shards() int { return e.shards }
