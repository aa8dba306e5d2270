// Package trace records the runtime events of a grid simulation - task
// dispatches, transfers, executions, failures, churn - into a bounded
// buffer, and renders them as text timelines or per-node ASCII Gantt
// charts. It also names the event kinds the grid reports. Tracing is
// opt-in (grid.TraceTap, one tap on the grid) and costs nothing when
// disabled.
package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Kind classifies an event.
type Kind int

// Event kinds, in rough lifecycle order.
const (
	KindSubmit Kind = iota
	KindDispatch
	KindReady
	KindExecStart
	KindExecEnd
	KindTaskFailed
	KindHandBack
	KindWorkflowDone
	KindWorkflowFailed
	KindNodeDown
	KindNodeUp
	// KindCandidates carries a constrained (DBC) scheduler's phase-1
	// candidate count. It is a statistic, not a lifecycle event, so
	// grid.TraceTap leaves it out of the ring.
	KindCandidates
)

func (k Kind) String() string {
	switch k {
	case KindSubmit:
		return "submit"
	case KindDispatch:
		return "dispatch"
	case KindReady:
		return "ready"
	case KindExecStart:
		return "exec-start"
	case KindExecEnd:
		return "exec-end"
	case KindTaskFailed:
		return "task-failed"
	case KindHandBack:
		return "hand-back"
	case KindWorkflowDone:
		return "workflow-done"
	case KindWorkflowFailed:
		return "workflow-failed"
	case KindNodeDown:
		return "node-down"
	case KindNodeUp:
		return "node-up"
	case KindCandidates:
		return "candidates"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one recorded occurrence.
type Event struct {
	Time     float64
	Kind     Kind
	Node     int    // resource node involved (-1 when not applicable)
	Workflow string // workflow name ("" for node events)
	Task     string // task name ("" for workflow/node events)
}

// String renders one event as a log line.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10.1fs %-15s", e.Time, e.Kind)
	if e.Node >= 0 {
		fmt.Fprintf(&b, " node=%-4d", e.Node)
	}
	if e.Workflow != "" {
		fmt.Fprintf(&b, " wf=%s", e.Workflow)
	}
	if e.Task != "" {
		fmt.Fprintf(&b, " task=%s", e.Task)
	}
	return b.String()
}

// Buffer is a bounded event recorder: once capacity is reached, the oldest
// events are dropped (ring semantics). The zero value is unusable; call
// NewBuffer.
type Buffer struct {
	events  []Event
	start   int
	count   int
	Dropped uint64
}

// NewBuffer allocates a recorder holding up to capacity events.
func NewBuffer(capacity int) *Buffer {
	if capacity < 1 {
		capacity = 1
	}
	return &Buffer{events: make([]Event, capacity)}
}

// Record appends one event, dropping the oldest when the ring is full.
func (b *Buffer) Record(e Event) {
	if b.count < len(b.events) {
		b.events[(b.start+b.count)%len(b.events)] = e
		b.count++
		return
	}
	b.events[b.start] = e
	b.start = (b.start + 1) % len(b.events)
	b.Dropped++
}

// Len returns the number of retained events.
func (b *Buffer) Len() int { return b.count }

// Events returns the retained events in record order.
func (b *Buffer) Events() []Event {
	out := make([]Event, b.count)
	for i := 0; i < b.count; i++ {
		out[i] = b.events[(b.start+i)%len(b.events)]
	}
	return out
}

// segments returns the retained events in record order as the ring's two
// runs, without copying: the oldest from start to the end of the ring, then
// the rest from its beginning.
func (b *Buffer) segments() [2][]Event {
	end := b.start + b.count
	if end <= len(b.events) {
		return [2][]Event{b.events[b.start:end], nil}
	}
	return [2][]Event{b.events[b.start:], b.events[:end-len(b.events)]}
}

// Filter returns the retained events matching the predicate, in order. It
// allocates only its result.
func (b *Buffer) Filter(keep func(Event) bool) []Event {
	var out []Event
	for _, seg := range b.segments() {
		for _, e := range seg {
			if keep(e) {
				out = append(out, e)
			}
		}
	}
	return out
}

// Gantt renders per-node execution lanes between t0 and t1 using cols
// character cells. Each lane shows '#' where the node was executing a task
// according to paired exec-start/exec-end events. Nodes without any
// execution in the window are omitted.
func (b *Buffer) Gantt(t0, t1 float64, cols int) string {
	if cols < 10 {
		cols = 10
	}
	if t1 <= t0 {
		return ""
	}
	type span struct{ s, e float64 }
	open := map[string]Event{} // task name -> start event
	lanes := map[int][]span{}
	for _, seg := range b.segments() {
		for _, e := range seg {
			switch e.Kind {
			case KindExecStart:
				open[e.Workflow+"/"+e.Task] = e
			case KindExecEnd:
				if st, ok := open[e.Workflow+"/"+e.Task]; ok {
					lanes[e.Node] = append(lanes[e.Node], span{st.Time, e.Time})
					delete(open, e.Workflow+"/"+e.Task)
				}
			}
		}
	}
	// Still-running tasks occupy until t1.
	for _, st := range open {
		lanes[st.Node] = append(lanes[st.Node], span{st.Time, t1})
	}
	nodes := make([]int, 0, len(lanes))
	for n := range lanes {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	var sb strings.Builder
	fmt.Fprintf(&sb, "gantt %.0fs..%.0fs (each cell %.0fs)\n", t0, t1, (t1-t0)/float64(cols))
	for _, n := range nodes {
		row := make([]byte, cols)
		for i := range row {
			row[i] = '.'
		}
		busy := false
		for _, sp := range lanes[n] {
			lo := int((sp.s - t0) / (t1 - t0) * float64(cols))
			hi := int((sp.e - t0) / (t1 - t0) * float64(cols))
			if hi >= cols {
				hi = cols - 1
			}
			for i := lo; i <= hi && i >= 0; i++ {
				if i < cols {
					row[i] = '#'
					busy = true
				}
			}
		}
		if busy {
			fmt.Fprintf(&sb, "node %-4d |%s|\n", n, row)
		}
	}
	return sb.String()
}

// CountByKind tallies retained events per kind.
func (b *Buffer) CountByKind() map[Kind]int {
	out := map[Kind]int{}
	for _, seg := range b.segments() {
		for _, e := range seg {
			out[e.Kind]++
		}
	}
	return out
}
