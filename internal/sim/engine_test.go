package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventsFireInTimestampOrder(t *testing.T) {
	e := NewEngine()
	var got []float64
	for _, at := range []float64{5, 1, 3, 2, 4} {
		at := at
		e.At(at, func(now float64) { got = append(got, now) })
	}
	e.Run()
	want := []float64{1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEqualTimestampsFireInScheduleOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(7, func(float64) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break violated: position %d got event %d", i, v)
		}
	}
}

func TestAfterClampsNegativeDelay(t *testing.T) {
	e := NewEngine()
	fired := -1.0
	e.At(10, func(now float64) {
		e.After(-5, func(now float64) { fired = now })
	})
	e.Run()
	if fired != 10 {
		t.Fatalf("negative delay fired at %v, want 10", fired)
	}
}

func TestSchedulingInPastClampsToNow(t *testing.T) {
	e := NewEngine()
	fired := -1.0
	e.At(10, func(float64) {
		e.At(3, func(now float64) { fired = now })
	})
	e.Run()
	if fired != 10 {
		t.Fatalf("past event fired at %v, want clamped to 10", fired)
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	e := NewEngine()
	fired := false
	h := e.At(1, func(float64) { fired = true })
	if !h.Live() {
		t.Fatal("handle should be live before run")
	}
	if !h.Cancel() {
		t.Fatal("first cancel should succeed")
	}
	if h.Cancel() {
		t.Fatal("second cancel should be a no-op")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Processed != 0 {
		t.Fatalf("processed %d events, want 0", e.Processed)
	}
}

func TestRunUntilLeavesFutureEventsQueued(t *testing.T) {
	e := NewEngine()
	var fired []float64
	for _, at := range []float64{1, 2, 3, 10, 20} {
		at := at
		e.At(at, func(now float64) { fired = append(fired, now) })
	}
	e.RunUntil(5)
	if len(fired) != 3 {
		t.Fatalf("fired %d events before deadline, want 3", len(fired))
	}
	if e.Now() != 5 {
		t.Fatalf("clock at %v after RunUntil(5), want 5", e.Now())
	}
	e.RunUntil(25)
	if len(fired) != 5 {
		t.Fatalf("fired %d events total, want 5", len(fired))
	}
}

func TestRunUntilAdvancesClockOnEmptyQueue(t *testing.T) {
	e := NewEngine()
	e.RunUntil(123)
	if e.Now() != 123 {
		t.Fatalf("clock %v, want 123", e.Now())
	}
}

func TestStopHaltsLoop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 100; i++ {
		e.At(float64(i), func(float64) {
			count++
			if count == 10 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 10 {
		t.Fatalf("processed %d events after Stop, want 10", count)
	}
}

func TestTickerFiresPeriodically(t *testing.T) {
	e := NewEngine()
	var times []float64
	e.Every(100, 50, func(now float64) { times = append(times, now) })
	e.RunUntil(300)
	want := []float64{100, 150, 200, 250, 300}
	if len(times) != len(want) {
		t.Fatalf("ticker fired %d times (%v), want %d", len(times), times, len(want))
	}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("tick %d at %v, want %v", i, times[i], want[i])
		}
	}
}

func TestTickerStopFromWithinCallback(t *testing.T) {
	e := NewEngine()
	count := 0
	var tk *Ticker
	tk = e.Every(0, 10, func(float64) {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	e.RunUntil(1000)
	if count != 3 {
		t.Fatalf("ticker fired %d times after Stop, want 3", count)
	}
}

func TestTickerStopBeforeFirstFire(t *testing.T) {
	e := NewEngine()
	count := 0
	tk := e.Every(10, 10, func(float64) { count++ })
	tk.Stop()
	e.RunUntil(100)
	if count != 0 {
		t.Fatalf("stopped ticker fired %d times", count)
	}
}

func TestNestedSchedulingSameInstant(t *testing.T) {
	// An event scheduling another event at the same instant must run it
	// after all previously queued events for that instant.
	e := NewEngine()
	var order []string
	e.At(5, func(now float64) {
		order = append(order, "a")
		e.At(5, func(float64) { order = append(order, "c") })
	})
	e.At(5, func(float64) { order = append(order, "b") })
	e.Run()
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestNilEventPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling nil event did not panic")
		}
	}()
	NewEngine().At(0, nil)
}

func TestNaNTimePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling at NaN did not panic")
		}
	}()
	NewEngine().At(math.NaN(), func(float64) {})
}

func TestNonPositivePeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Every with period 0 did not panic")
		}
	}()
	NewEngine().Every(0, 0, func(float64) {})
}

// Property: for any set of event times, firing order equals sorted order.
func TestQuickFiringOrderMatchesSort(t *testing.T) {
	f := func(raw []uint16) bool {
		e := NewEngine()
		times := make([]float64, len(raw))
		var fired []float64
		for i, r := range raw {
			times[i] = float64(r)
			at := times[i]
			e.At(at, func(now float64) { fired = append(fired, now) })
		}
		e.Run()
		sort.Float64s(times)
		if len(fired) != len(times) {
			return false
		}
		for i := range times {
			if fired[i] != times[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaving cancellations never disturbs the order of the
// surviving events.
func TestQuickCancelSubsetPreservesOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		n := 50
		handles := make([]Handle, n)
		times := make([]float64, n)
		var fired []float64
		for i := 0; i < n; i++ {
			times[i] = rng.Float64() * 1000
			at := times[i]
			handles[i] = e.At(at, func(now float64) { fired = append(fired, now) })
		}
		var surviving []float64
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				handles[i].Cancel()
			} else {
				surviving = append(surviving, times[i])
			}
		}
		e.Run()
		sort.Float64s(surviving)
		if len(fired) != len(surviving) {
			return false
		}
		for i := range surviving {
			if fired[i] != surviving[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineScheduleAndRun(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	times := make([]float64, 10000)
	for i := range times {
		times[i] = rng.Float64() * 1e6
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for _, at := range times {
			e.At(at, func(float64) {})
		}
		e.Run()
	}
}

// TestHandleStaysStaleAfterRecycle pins the free-list contract: once an
// event has fired (or been drained as cancelled), its Handle goes
// permanently stale, even if the engine recycles the underlying struct for
// a later event.
func TestHandleStaysStaleAfterRecycle(t *testing.T) {
	e := NewEngine()
	h1 := e.At(1, func(float64) {})
	e.Run()
	if h1.Live() {
		t.Fatal("handle live after its event fired")
	}
	if h1.Cancel() {
		t.Fatal("cancel of a fired event reported success")
	}
	// The next event reuses the drained struct; the stale handle must not
	// alias it.
	fired := false
	h2 := e.At(2, func(float64) { fired = true })
	if h1.Cancel() || h1.Live() {
		t.Fatal("stale handle matched a recycled event")
	}
	e.Run()
	if !fired {
		t.Fatal("recycled event did not fire")
	}
	if h2.Live() {
		t.Fatal("second handle live after firing")
	}
}

// TestCancelledEventsAreRecycled checks that draining cancelled events also
// feeds the free list (no leak of dead entries).
func TestCancelledEventsAreRecycled(t *testing.T) {
	e := NewEngine()
	h := e.At(1, func(float64) {})
	h.Cancel()
	e.Run()
	if e.Processed != 0 {
		t.Fatalf("processed %d, want 0", e.Processed)
	}
	if len(e.free) != 1 {
		t.Fatalf("free list has %d entries, want 1", len(e.free))
	}
}

// TestStopMidRunLeavesClockAtStopTime pins the Stop/RunUntil contract: a
// Stop fired by an event must leave the clock at that event's time, not
// silently advance it to the deadline the run never actually simulated.
func TestStopMidRunLeavesClockAtStopTime(t *testing.T) {
	e := NewEngine()
	e.At(10, func(now float64) { e.Stop() })
	fired := false
	e.At(20, func(now float64) { fired = true })
	e.RunUntil(100)
	if fired {
		t.Fatal("event after Stop fired")
	}
	if got := e.Now(); got != 10 {
		t.Fatalf("clock after Stop mid-run = %v, want 10 (the stopping event's time)", got)
	}
	if !e.Stopped() {
		t.Fatal("Stopped() = false after Stop")
	}
	// Stop is sticky: a later RunUntil is a no-op and moves nothing.
	e.RunUntil(200)
	if got := e.Now(); got != 10 {
		t.Fatalf("clock after RunUntil on stopped engine = %v, want 10", got)
	}
}

func TestStopBeforeRunLeavesClockAtZero(t *testing.T) {
	e := NewEngine()
	e.At(5, func(now float64) {})
	e.Stop()
	e.RunUntil(100)
	if e.Now() != 0 {
		t.Fatalf("clock = %v, want 0", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want the unfired event still queued", e.Pending())
	}
}
