package dag

import "math"

// Estimates carries the system-wide averages used by Eq. 1 and Section III.C
// to price a task's expected execution time (eet) and an edge's expected
// data-aggregation time (ett). In the running system these values come from
// the aggregation gossip protocol; tests and the efficiency baseline use the
// true averages.
type Estimates struct {
	AvgCapacityMIPS float64 // system-wide average node capacity
	AvgBandwidthMbs float64 // system-wide average end-to-end bandwidth
}

// The paper's system-wide averages under the Table I setting: node
// capacities drawn from {1,2,4,8,16} MIPS average 6.2, and the 0.1-10 Mb/s
// bandwidth range averages about 5.05 Mb/s. Shared by the CLI defaults and
// the trace-replay scaling rule.
const (
	PaperAvgCapacityMIPS = 6.2
	PaperAvgBandwidthMbs = 5.05
)

// EET is the expected execution time of a task on an average node.
func (e Estimates) EET(t Task) float64 {
	if t.Load == 0 {
		return 0
	}
	if e.AvgCapacityMIPS <= 0 {
		return math.Inf(1)
	}
	return t.Load / e.AvgCapacityMIPS
}

// ETT is the expected transmission time of an edge's data over an average
// path.
func (e Estimates) ETT(edge Edge) float64 {
	if edge.DataMb == 0 {
		return 0
	}
	if e.AvgBandwidthMbs <= 0 {
		return math.Inf(1)
	}
	return edge.DataMb / e.AvgBandwidthMbs
}

// RPM computes the rest path makespan of every task (Section III.C):
//
//	RPM(exit) = eet(exit)
//	RPM(t)    = eet(t) + max over successors s of (ett(t->s) + RPM(s))
//
// i.e. the longest expected execution time along any path from t to the exit
// task, counting t itself. The returned slice is indexed by TaskID.
func RPM(w *Workflow, est Estimates) []float64 { return RPMInto(w, est, nil) }

// RPMInto is RPM writing into buf's backing array, which is replaced only
// when it holds fewer than w.Len() values. The result aliases buf, so it is
// valid only until the buffer's next use.
func RPMInto(w *Workflow, est Estimates, buf []float64) []float64 {
	rpm := buf[:0]
	if cap(rpm) < w.Len() {
		rpm = make([]float64, w.Len())
	}
	rpm = rpm[:w.Len()]
	topo := w.TopoOrder()
	for i := len(topo) - 1; i >= 0; i-- {
		t := topo[i]
		best := 0.0
		for _, e := range w.Successors(t) {
			if v := est.ETT(e) + rpm[e.To]; v > best {
				best = v
			}
		}
		rpm[t] = est.EET(w.Task(t)) + best
	}
	return rpm
}

// ExpectedFinishTime returns eft(f) of Eq. 1: the sum of eet+ett along the
// critical path from entry to exit, which equals RPM(entry) because the
// entry task has no precedents (its ett is zero).
func ExpectedFinishTime(w *Workflow, est Estimates) float64 {
	return RPM(w, est)[w.Entry()]
}

// CriticalPath returns the critical workflow tasks t* of Eq. 1 in entry-to-
// exit order, together with eft(f). Ties are broken toward the smallest
// TaskID so the result is deterministic.
func CriticalPath(w *Workflow, est Estimates) ([]TaskID, float64) {
	rpm := RPM(w, est)
	path := []TaskID{w.Entry()}
	cur := w.Entry()
	for cur != w.Exit() {
		next := TaskID(-1)
		best := math.Inf(-1)
		for _, e := range w.Successors(cur) {
			if v := est.ETT(e) + rpm[e.To]; v > best {
				best = v
				next = e.To
			}
		}
		if next < 0 {
			break // defensive: exit should terminate every path
		}
		path = append(path, next)
		cur = next
	}
	return path, rpm[w.Entry()]
}

// bruteForceRPM enumerates all paths from t to the exit task recursively.
// It exists for property tests only (exponential time).
func bruteForceRPM(w *Workflow, est Estimates, t TaskID) float64 {
	best := 0.0
	for _, e := range w.Successors(t) {
		if v := est.ETT(e) + bruteForceRPM(w, est, e.To); v > best {
			best = v
		}
	}
	return est.EET(w.Task(t)) + best
}
