package trace

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestBufferRecordsInOrder(t *testing.T) {
	b := NewBuffer(10)
	for i := 0; i < 5; i++ {
		b.Record(Event{Time: float64(i), Kind: KindDispatch, Node: i})
	}
	es := b.Events()
	if len(es) != 5 || b.Len() != 5 {
		t.Fatalf("len %d/%d, want 5", len(es), b.Len())
	}
	for i, e := range es {
		if e.Time != float64(i) {
			t.Fatalf("event %d at time %v", i, e.Time)
		}
	}
	if b.Dropped != 0 {
		t.Fatalf("dropped %d, want 0", b.Dropped)
	}
}

func TestBufferRingDropsOldest(t *testing.T) {
	b := NewBuffer(3)
	for i := 0; i < 7; i++ {
		b.Record(Event{Time: float64(i)})
	}
	es := b.Events()
	if len(es) != 3 {
		t.Fatalf("len %d, want 3", len(es))
	}
	want := []float64{4, 5, 6}
	for i := range want {
		if es[i].Time != want[i] {
			t.Fatalf("ring kept %v, want %v", es, want)
		}
	}
	if b.Dropped != 4 {
		t.Fatalf("dropped %d, want 4", b.Dropped)
	}
}

func TestBufferMinimumCapacity(t *testing.T) {
	b := NewBuffer(0)
	b.Record(Event{Time: 1})
	b.Record(Event{Time: 2})
	if b.Len() != 1 || b.Events()[0].Time != 2 {
		t.Fatal("capacity clamp failed")
	}
}

func TestFilter(t *testing.T) {
	b := NewBuffer(10)
	b.Record(Event{Kind: KindDispatch, Node: 1})
	b.Record(Event{Kind: KindExecStart, Node: 2})
	b.Record(Event{Kind: KindDispatch, Node: 3})
	got := b.Filter(func(e Event) bool { return e.Kind == KindDispatch })
	if len(got) != 2 || got[0].Node != 1 || got[1].Node != 3 {
		t.Fatalf("filter returned %v", got)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Time: 12.5, Kind: KindExecStart, Node: 3, Workflow: "wf", Task: "t1"}
	s := e.String()
	for _, frag := range []string{"12.5", "exec-start", "node=3", "wf=wf", "task=t1"} {
		if !strings.Contains(s, frag) {
			t.Errorf("event string %q missing %q", s, frag)
		}
	}
	// Node events omit workflow/task fields.
	n := Event{Time: 1, Kind: KindNodeDown, Node: 7}.String()
	if strings.Contains(n, "wf=") || strings.Contains(n, "task=") {
		t.Errorf("node event string %q has workflow fields", n)
	}
}

func TestKindStringsDistinct(t *testing.T) {
	seen := map[string]bool{}
	for k := KindSubmit; k <= KindCandidates; k++ {
		s := k.String()
		if seen[s] {
			t.Fatalf("duplicate kind string %q", s)
		}
		seen[s] = true
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Fatal("unknown kind string")
	}
}

func TestGanttMarksBusyCells(t *testing.T) {
	b := NewBuffer(16)
	b.Record(Event{Time: 0, Kind: KindExecStart, Node: 1, Workflow: "w", Task: "a"})
	b.Record(Event{Time: 50, Kind: KindExecEnd, Node: 1, Workflow: "w", Task: "a"})
	b.Record(Event{Time: 50, Kind: KindExecStart, Node: 2, Workflow: "w", Task: "b"})
	b.Record(Event{Time: 100, Kind: KindExecEnd, Node: 2, Workflow: "w", Task: "b"})
	g := b.Gantt(0, 100, 20)
	if !strings.Contains(g, "node 1") || !strings.Contains(g, "node 2") {
		t.Fatalf("gantt missing lanes:\n%s", g)
	}
	lines := strings.Split(strings.TrimSpace(g), "\n")
	if len(lines) != 3 { // header + 2 lanes
		t.Fatalf("gantt has %d lines:\n%s", len(lines), g)
	}
	// Node 1 is busy in the first half, node 2 in the second.
	lane1 := lines[1][strings.Index(lines[1], "|")+1:]
	if lane1[0] != '#' || lane1[15] == '#' {
		t.Fatalf("lane 1 occupancy wrong: %q", lane1)
	}
}

func TestGanttStillRunningTask(t *testing.T) {
	b := NewBuffer(4)
	b.Record(Event{Time: 10, Kind: KindExecStart, Node: 0, Workflow: "w", Task: "x"})
	g := b.Gantt(0, 100, 10)
	if !strings.Contains(g, "#") {
		t.Fatalf("unfinished task not drawn:\n%s", g)
	}
	if b.Gantt(100, 100, 10) != "" {
		t.Fatal("degenerate window should render empty")
	}
}

func TestCountByKind(t *testing.T) {
	b := NewBuffer(8)
	b.Record(Event{Kind: KindDispatch})
	b.Record(Event{Kind: KindDispatch})
	b.Record(Event{Kind: KindNodeDown})
	c := b.CountByKind()
	if c[KindDispatch] != 2 || c[KindNodeDown] != 1 {
		t.Fatalf("counts %v", c)
	}
}

// Property: a buffer of capacity c retains exactly min(n, c) events and the
// retained suffix matches the input tail.
func TestQuickRingRetainsSuffix(t *testing.T) {
	f := func(n uint8, c uint8) bool {
		capacity := int(c%32) + 1
		b := NewBuffer(capacity)
		total := int(n % 100)
		for i := 0; i < total; i++ {
			b.Record(Event{Time: float64(i)})
		}
		es := b.Events()
		want := total
		if want > capacity {
			want = capacity
		}
		if len(es) != want {
			return false
		}
		for i, e := range es {
			if e.Time != float64(total-want+i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestFilterAllocatesOnlyItsResult: on a full, wrapped ring where one
// workflow's events sit among many, Filter walks the ring in place and
// allocates no more than its append-grown result.
func TestFilterAllocatesOnlyItsResult(t *testing.T) {
	const capacity = 1 << 14
	b := NewBuffer(capacity)
	for i := 0; i < capacity+capacity/3; i++ {
		wf := "bulk"
		if i%997 == 0 {
			wf = "one"
		}
		b.Record(Event{Time: float64(i), Kind: KindDispatch, Node: i % 7, Workflow: wf})
	}
	keep := func(e Event) bool { return e.Workflow == "one" }
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := b.Filter(keep)
	runtime.ReadMemStats(&after)

	var want []Event
	for _, e := range b.Events() {
		if keep(e) {
			want = append(want, e)
		}
	}
	if len(want) < 2 || !reflect.DeepEqual(got, want) {
		t.Fatalf("Filter kept %d events, want the %d of Events()", len(got), len(want))
	}
	// Appending to a nil slice allocates at most twice the final capacity.
	limit := 2 * uint64(cap(got)) * uint64(unsafe.Sizeof(Event{}))
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > limit {
		t.Fatalf("Filter allocated %d B for a %d-event result (limit %d B); the ring holds %d",
			alloc, len(got), limit, b.Len())
	}
	if n := testing.AllocsPerRun(5, func() { b.Filter(func(Event) bool { return false }) }); n != 0 {
		t.Fatalf("a Filter that keeps nothing made %v allocations", n)
	}
}

// Property: at every wrap position, Filter, CountByKind and Gantt read the
// ring's two runs exactly as they read a copy of Events recorded into a
// ring that never wrapped.
func TestQuickRingWalksMatchEvents(t *testing.T) {
	f := func(n uint8, c uint8) bool {
		capacity := int(c%24) + 1
		b := NewBuffer(capacity)
		total := int(n % 80)
		for i := 0; i < total; i++ {
			kind := KindExecStart
			if i%3 == 1 {
				kind = KindExecEnd
			} else if i%3 == 2 {
				kind = KindDispatch
			}
			b.Record(Event{Time: float64(i), Kind: kind, Node: i % 4, Workflow: "w", Task: string(rune('a' + i/3%5))})
		}
		flat := NewBuffer(capacity)
		for _, e := range b.Events() {
			flat.Record(e)
		}
		odd := func(e Event) bool { return int(e.Time)%2 == 1 }
		return reflect.DeepEqual(b.Filter(odd), flat.Filter(odd)) &&
			reflect.DeepEqual(b.CountByKind(), flat.CountByKind()) &&
			b.Gantt(0, 100, 20) == flat.Gantt(0, 100, 20)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
