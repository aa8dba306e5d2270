package gossip

import (
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/sim"
)

// pushReference is the origin-order push the eviction-order merge
// replaced, kept as the oracle: both caches sorted by origin, one
// sorted-merge with freshness expiry folded in, then evictReference on the
// merged view. It returns the receiver's new cache in origin order and the
// bytes sent.
func pushReference(src, dst []StateRecord, to, capacity int, now, expiry float64) ([]StateRecord, uint64) {
	var out []StateRecord
	var bytes uint64
	si, di := 0, 0
	for si < len(src) || di < len(dst) {
		switch {
		case di == len(dst) || (si < len(src) && src[si].Node < dst[di].Node):
			// New origin arriving with the push.
			rec := src[si]
			si++
			if rec.TTL <= 0 {
				continue
			}
			bytes += MessageBytes
			rec.TTL--
			if now-rec.Timestamp <= expiry {
				out = append(out, rec)
			}
		case si == len(src) || dst[di].Node < src[si].Node:
			// Receiver-only origin: survives unless its record expired.
			rec := dst[di]
			di++
			if now-rec.Timestamp <= expiry {
				out = append(out, rec)
			}
		default:
			// Both sides know this origin: keep the freshest record
			// (higher timestamp, then higher remaining TTL).
			rec, old := src[si], dst[di]
			si++
			di++
			if rec.TTL > 0 {
				bytes += MessageBytes
				rec.TTL--
				if now-rec.Timestamp <= expiry && fresher(rec, old) {
					out = append(out, rec)
					continue
				}
			}
			if now-old.Timestamp <= expiry {
				out = append(out, old)
			}
		}
	}
	return evictReference(to, capacity, out), bytes
}

// evictReference is the per-victim min-scan evict: repeatedly mark the
// stalest eligible record (strict <, so ties fall to the lowest index, the
// lowest origin), then compact. The owner's record is never a victim.
func evictReference(to, capacity int, out []StateRecord) []StateRecord {
	for over := len(out) - capacity; over > 0; over-- {
		victim := -1
		var victimTS float64
		for i := range out {
			if out[i].Node == to || out[i].TTL < 0 {
				continue
			}
			if victim < 0 || out[i].Timestamp < victimTS {
				victim, victimTS = i, out[i].Timestamp
			}
		}
		if victim < 0 {
			break
		}
		out[victim].TTL = -1
	}
	dst := []StateRecord{}
	for i := range out {
		if out[i].TTL >= 0 {
			dst = append(dst, out[i])
		}
	}
	return dst
}

// fresher reports whether record a supersedes record b about the same
// origin, the rule pushReference keeps: a later mint time wins, and among
// equal mints the copy with more forwarding hops left.
func fresher(a, b StateRecord) bool {
	return a.Timestamp > b.Timestamp ||
		(a.Timestamp == b.Timestamp && a.TTL > b.TTL)
}

const (
	pushNow    = 3600.0
	pushExpiry = 1200.0 // the default 4 cycles of 300 s
	pushNodes  = 64
	maxPushCap = 13
	maxSenders = 6
	// chunkFanOut is the fan-out of the harness whose merges take two
	// senders each (Config.mergeLists), so that deliver splits a batch of
	// three or more senders into consecutive merges.
	chunkFanOut = 1
)

// pushHarness is a protocol from New whose caches a test installs
// directly; its merger is reused across trials, as across a cycle's
// merges. A fan-out of 0 takes the default, log2(pushNodes), whose merges
// hold every batch of up to maxSenders senders. mints0 is the length of New's mint table, before any cycle
// minted.
// checks counts the merges checked; every other one bounds the origins'
// keys as loosely as it can, so the merge scans the senders for the
// owner's record whenever the receiver is full before reaching it.
type pushHarness struct {
	p      *Protocol
	mints0 int
	checks int
}

func newPushHarness(fanOut int) *pushHarness {
	p, err := New(sim.NewEngine(), Config{N: pushNodes, CacheCapacity: maxPushCap, FanOut: fanOut}, newFakeGrid(pushNodes, 1))
	if err != nil {
		panic(err)
	}
	if p.expirySeconds() != pushExpiry {
		panic("push harness: expiry is not the default")
	}
	return &pushHarness{p: p, mints0: len(p.mints)}
}

// stamp rebuilds the mint table from the trial's mint times, in increasing
// order as the cycles minting them would have, and sets each origin's
// capacity; it returns the mint of each time. Every copy of an origin must
// carry the same capacity, as the protocol's records do.
func (h *pushHarness) stamp(t *testing.T, sides ...[]StateRecord) map[float64]uint32 {
	t.Helper()
	var times []float64
	caps := map[int]float64{}
	for _, recs := range sides {
		for _, r := range recs {
			times = append(times, r.Timestamp)
			if c, ok := caps[r.Node]; ok && c != r.Capacity {
				t.Fatalf("harness: origin %d drawn with capacities %v and %v", r.Node, c, r.Capacity)
			}
			caps[r.Node] = r.Capacity
			h.p.capacity[r.Node] = r.Capacity
		}
	}
	slices.Sort(times)
	h.p.mints = h.p.mints[:h.mints0]
	mintOf := map[float64]uint32{}
	for _, at := range slices.Compact(times) {
		mintOf[at] = h.p.mint(at)
	}
	return mintOf
}

// install sets node's cache to recs, packed and in eviction order, with
// its fwd and ownMint bookkeeping.
func (h *pushHarness) install(node int, recs []StateRecord, mintOf map[float64]uint32) {
	c := make([]record, len(recs), max(len(recs), maxPushCap+1))
	for i, r := range recs {
		c[i] = record{key: packKey(mintOf[r.Timestamp], r.Node, r.TTL), load: r.TotalLoadMI}
	}
	sortEviction(c)
	h.p.cache[node] = c
	h.p.fwd[node], h.p.ownMint[node] = recount(node, c)
}

func sortEviction(recs []record) {
	slices.SortFunc(recs, func(a, b record) int { return cmp.Compare(b.key, a.key) })
}

func sortOrigin(recs []StateRecord) {
	slices.SortFunc(recs, func(a, b StateRecord) int { return a.Node - b.Node })
}

// recount recomputes fwd and ownMint from node's cache.
func recount(node int, recs []record) (fwd int32, ownMint uint32) {
	for _, r := range recs {
		if r.hops() > 0 {
			fwd++
		}
		if r.origin() == node {
			ownMint = r.mint()
		}
	}
	return fwd, ownMint
}

// checkEvictionOrder fails unless recs' keys strictly decrease, which also
// rules out duplicate origins.
func checkEvictionOrder(t *testing.T, what string, recs []record) {
	t.Helper()
	for j := 1; j < len(recs); j++ {
		if recs[j-1].key <= recs[j].key {
			t.Fatalf("%s: not in eviction order at %d: %+v then %+v", what, j, recs[j-1], recs[j])
		}
	}
}

// delivery is one merge to check: the receiver to and its cache dst, and
// the senders from with their caches srcs, in push order. The caches may
// be in any order.
type delivery struct {
	capacity, to int
	from         []int
	dst          []StateRecord
	srcs         [][]StateRecord
}

// check delivers d's pushes in one merge and compares the outcome with
// pushReference applied once per sender, in push order: the receiver's
// records and their loads, eviction order, the fwd and ownMint
// bookkeeping, one version bump, untouched senders, and the bytes the
// senders are charged. It returns the receiver's records in origin order.
func (h *pushHarness) check(t *testing.T, what string, d delivery) []StateRecord {
	t.Helper()
	sortOrigin(d.dst)
	want := d.dst
	var wantBytes uint64
	for _, src := range d.srcs {
		sortOrigin(src)
		var b uint64
		want, b = pushReference(src, want, d.to, d.capacity, pushNow, pushExpiry)
		wantBytes += b
	}

	p := h.p
	p.cfg.CacheCapacity = d.capacity
	mintOf := h.stamp(t, append([][]StateRecord{d.dst}, d.srcs...)...)
	h.install(d.to, d.dst, mintOf)
	nodes := []int32{int32(d.to)}
	var before [][]record
	var bytes uint64
	for j, from := range d.from {
		h.install(from, d.srcs[j], mintOf)
		nodes = append(nodes, int32(from))
		before = append(before, slices.Clone(p.cache[from]))
		bytes += uint64(p.fwd[from]) * MessageBytes
	}
	clear(p.newest)
	for _, n := range nodes {
		for _, r := range p.cache[n] {
			p.newest[r.origin()] = max(p.newest[r.origin()], r.key)
		}
	}
	if h.checks++; h.checks%2 == 0 {
		for o := range p.newest {
			p.newest[o] = math.MaxUint64
		}
	}
	version := p.version[d.to]
	p.deliver(nodes, p.liveKey(pushNow))

	checkEvictionOrder(t, what, p.cache[d.to])
	got := make([]StateRecord, 0, len(p.cache[d.to]))
	for _, r := range p.cache[d.to] {
		got = append(got, p.stateRecord(r))
	}
	sortOrigin(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s (to %d, from %v, cap %d):\ndst  %+v\nsrcs %+v\ngot  %+v\nwant %+v",
			what, d.to, d.from, d.capacity, d.dst, d.srcs, got, want)
	}
	if bytes != wantBytes {
		t.Fatalf("%s: %d bytes sent, want %d", what, bytes, wantBytes)
	}
	if fwd, ownMint := recount(d.to, p.cache[d.to]); p.fwd[d.to] != fwd || p.ownMint[d.to] != ownMint {
		t.Fatalf("%s: fwd %d ownMint %d, recomputed %d %d", what, p.fwd[d.to], p.ownMint[d.to], fwd, ownMint)
	}
	if p.version[d.to] != version+1 {
		t.Fatalf("%s: version bumped %d times, want once", what, p.version[d.to]-version)
	}
	for j, from := range d.from {
		if !slices.Equal(p.cache[from], before[j]) {
			t.Fatalf("%s: the merge changed sender %d's cache", what, from)
		}
	}
	return got
}

// Owner placements a trial can force.
const (
	ownerInDst = iota
	ownerOnlySrc
	ownerAbsent
	ownerExpiredInDst
	ownerCases
)

// drawDelivery draws a merge of k senders' pushes over a universe of
// origins small enough that the caches overlap heavily. stamp draws a mint
// time; owner places the receiver's own record. Each origin draws one
// capacity, which every copy of its record carries. A sender's copy often
// repeats the minting of an earlier list's copy, with the hops that make
// the forwarded keys equal about half the time; each list draws its loads
// from a range of its own, so an equal key shows which copy was kept.
func drawDelivery(rng *rand.Rand, stamp func() float64, owner, k int) delivery {
	capacity := 1 + rng.Intn(maxPushCap)
	if rng.Intn(3) == 0 {
		capacity = 1 + rng.Intn(3)
	}
	universe := min(pushNodes, 2*capacity+2+rng.Intn(8))
	d := delivery{capacity: capacity, to: rng.Intn(universe)}
	for _, n := range rng.Perm(max(universe, k+1)) {
		if n != d.to && len(d.from) < k {
			d.from = append(d.from, n)
		}
	}
	d.srcs = make([][]StateRecord, k)
	density := make([]float64, k+1)
	for j := range density {
		density[j] = rng.Float64()
	}
	// lists[0] is the receiver's cache, lists[j] sender j's.
	lists := func(j int) *[]StateRecord {
		if j == 0 {
			return &d.dst
		}
		return &d.srcs[j-1]
	}
	for o := 0; o < universe; o++ {
		if o == d.to {
			continue
		}
		c := float64(1 + rng.Intn(16))
		var prev *StateRecord // an earlier list's copy
		var prevList int
		for j := 0; j <= k; j++ {
			l := lists(j)
			if rng.Float64() >= density[j] || len(*l) >= capacity {
				continue
			}
			rec := StateRecord{Node: o, Timestamp: stamp(), TTL: rng.Intn(5), Capacity: c, TotalLoadMI: float64(100*j + rng.Intn(100))}
			if prev != nil && rng.Intn(2) == 0 {
				rec.Timestamp = prev.Timestamp // the same minting as the earlier copy
				hops := prev.TTL               // its key's hops, forwarded or not
				if prevList > 0 {
					hops--
				}
				if hops < 4 && rng.Intn(2) == 0 {
					rec.TTL = hops + 1 // forwarded, the same key
				}
			}
			*l = append(*l, rec)
			prev, prevList = &(*l)[len(*l)-1], j
		}
	}
	ownCap := float64(1 + rng.Intn(16))
	own := func(ts float64, list int) StateRecord {
		return StateRecord{Node: d.to, Timestamp: ts, TTL: rng.Intn(5), Capacity: ownCap, TotalLoadMI: float64(100*list + rng.Intn(100))}
	}
	live := func() float64 { return pushNow - 300*float64(rng.Intn(5)) }
	expired := func() float64 { return pushNow - pushExpiry - 1 - 300*float64(rng.Intn(2)) }
	someSenders := func() {
		for j := range d.srcs {
			if rng.Intn(k) == 0 {
				d.srcs[j] = append(d.srcs[j], own(live(), j+1))
			}
		}
	}
	switch owner {
	case ownerInDst:
		d.dst = append(d.dst, own(live(), 0))
		if rng.Intn(2) == 0 {
			someSenders()
		}
	case ownerOnlySrc:
		j := rng.Intn(k)
		d.srcs[j] = append(d.srcs[j], own(live(), j+1))
		if rng.Intn(2) == 0 {
			someSenders()
		}
	case ownerExpiredInDst:
		d.dst = append(d.dst, own(expired(), 0))
		if rng.Intn(3) > 0 {
			someSenders()
		}
	}
	for j := range d.srcs {
		d.srcs[j] = uniqueOrigins(d.srcs[j])
	}
	return d
}

// uniqueOrigins keeps the first record of each origin.
func uniqueOrigins(recs []StateRecord) []StateRecord {
	seen := map[int]bool{}
	return slices.DeleteFunc(recs, func(r StateRecord) bool {
		dup := seen[r.Node]
		seen[r.Node] = true
		return dup
	})
}

// stampFamilies are the mint-time distributions the randomized tests draw
// from.
func stampFamilies(rng *rand.Rand) []struct {
	name  string
	stamp func() float64
} {
	return []struct {
		name  string
		stamp func() float64
	}{
		// The protocol's shape: the 300 s cycle grid, expired layers
		// included.
		{"grid", func() float64 { return pushNow - 300*float64(rng.Intn(7)) }},
		// Coarse ties straddling the expiry: ages expiry-1, expiry (still
		// fresh) and expiry+1.
		{"straddle", func() float64 { return pushNow - pushExpiry + float64(rng.Intn(3)-1) }},
		// Continuous: every layer holds one record.
		{"continuous", func() float64 { return pushNow - rng.Float64()*1.5*pushExpiry }},
		// One or two layers, as right after a restart.
		{"layers", func() float64 { return pushNow - 300*float64(rng.Intn(2)) }},
	}
}

// TestPushMatchesReference pins a one-sender merge to the origin-order
// merge plus per-victim eviction it replaced: the same receiver record
// set, the same bytes sent, over mint-time families that stress ties,
// expiry and every placement of the owner's record.
func TestPushMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	h := newPushHarness(0)
	for _, f := range stampFamilies(rng) {
		for trial := 0; trial < 5000; trial++ {
			if trial == 2500 {
				h.p.merge.seq = math.MaxUint32 - 3 // wrap the origin stamps mid-family
			}
			h.check(t, f.name, drawDelivery(rng, f.stamp, trial%ownerCases, 1))
		}
	}
}

// TestDeliverMatchesReference pins the merge of k = 1-6 senders' pushes to
// k pushes one at a time, each the origin-order reference, over the same
// mint-time families and owner placements: in one merge, and on the
// chunkFanOut harness in merges of two senders, so that k = 3-6 arrive in
// two or three chunks.
func TestDeliverMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, fanOut := range []int{0, chunkFanOut} {
		h := newPushHarness(fanOut)
		if fanOut == chunkFanOut && len(h.p.merge.keys) != 3 {
			t.Fatalf("the chunk harness merges %d lists at a time, want 3", len(h.p.merge.keys))
		}
		for _, f := range stampFamilies(rng) {
			for trial := 0; trial < 3000; trial++ {
				if trial == 1500 {
					h.p.merge.seq = math.MaxUint32 - 3
				}
				k := 1 + trial%maxSenders
				h.check(t, f.name, drawDelivery(rng, f.stamp, trial/maxSenders%ownerCases, k))
			}
		}
	}
}

// TestDeliverCases spells out the merges where the order of the pushes
// shows: equal keys with different loads, as AddLoadHint leaves them, and
// the owner's record held only by a sender, expired or missing. Each case
// is also compared with the pushes one at a time.
func TestDeliverCases(t *testing.T) {
	const now, old = pushNow, pushNow - 300
	rec := func(node int, ts float64, ttl int, load float64) StateRecord {
		return StateRecord{Node: node, Capacity: float64(1 + node%4), Timestamp: ts, TTL: ttl, TotalLoadMI: load}
	}
	expired := now - pushExpiry - 1
	// filler is n records of origins 20.. minted now with two hops left;
	// of one minting, a merge keeps the higher origins first.
	filler := func(n int, load float64) []StateRecord {
		var recs []StateRecord
		for o := 20; o < 20+n; o++ {
			recs = append(recs, rec(o, now, 2, load))
		}
		return recs
	}
	for _, tc := range []struct {
		name string
		d    delivery
		// want maps an origin to the load its kept copy carries, or to -1
		// when the receiver must not hold it.
		want map[int]float64
	}{
		{"receiver wins an equal key", delivery{
			capacity: 8, to: 0, from: []int{1, 2},
			dst:  []StateRecord{rec(5, old, 2, 10)},
			srcs: [][]StateRecord{{rec(5, old, 3, 20)}, {rec(5, old, 3, 30)}},
		}, map[int]float64{5: 10}},
		{"earliest sender wins an equal key", delivery{
			capacity: 8, to: 0, from: []int{3, 1, 2},
			dst:  []StateRecord{rec(6, old, 1, 5)},
			srcs: [][]StateRecord{{rec(5, old, 3, 20)}, {rec(5, old, 3, 30)}, {rec(5, old, 3, 40)}},
		}, map[int]float64{5: 20, 6: 5}},
		{"a later sender's fresher copy wins", delivery{
			capacity: 8, to: 0, from: []int{1, 2},
			dst:  []StateRecord{rec(5, old, 2, 10)},
			srcs: [][]StateRecord{{rec(5, old, 4, 20)}, {rec(5, now, 1, 30)}},
		}, map[int]float64{5: 30}},
		{"more hops win one minting", delivery{
			capacity: 8, to: 0, from: []int{1, 2},
			dst:  []StateRecord{rec(5, old, 1, 10)},
			srcs: [][]StateRecord{{rec(5, old, 2, 20)}, {rec(5, old, 4, 30)}},
		}, map[int]float64{5: 30}},
		{"spent and expired records stay home", delivery{
			capacity: 8, to: 0, from: []int{1, 2},
			srcs: [][]StateRecord{{rec(5, now, 0, 20), rec(6, expired, 3, 20)}, {rec(7, now, 1, 30)}},
		}, map[int]float64{5: -1, 6: -1, 7: 30}},
		{"owner only in a sender, receiver full", delivery{
			capacity: 3, to: 0, from: []int{1, 2, 3},
			dst:  filler(3, 1),
			srcs: [][]StateRecord{filler(3, 2), {rec(0, old, 3, 7)}, {rec(0, old, 3, 8)}},
		}, map[int]float64{0: 7, 22: 1, 21: 1, 20: -1}},
		{"owner expired at the receiver, live at a sender", delivery{
			capacity: 2, to: 0, from: []int{1, 2},
			dst:  append(filler(2, 1), rec(0, expired, 4, 9)),
			srcs: [][]StateRecord{{rec(30, now, 3, 2)}, {rec(0, old, 2, 8)}},
		}, map[int]float64{0: 8, 30: 2, 20: -1, 21: -1}},
		{"owner expired everywhere", delivery{
			capacity: 2, to: 0, from: []int{1},
			dst:  []StateRecord{rec(0, expired, 4, 9)},
			srcs: [][]StateRecord{append(filler(3, 2), rec(0, expired, 3, 8))},
		}, map[int]float64{0: -1, 22: 2, 21: 2, 20: -1}},
		{"owner missing", delivery{
			capacity: 2, to: 0, from: []int{1, 2},
			dst:  filler(1, 1),
			srcs: [][]StateRecord{filler(2, 2), {rec(9, now, 1, 3)}},
		}, map[int]float64{0: -1, 20: 1, 21: 2, 9: -1}},
		{"receiver's own copy beats an equal forwarded one", delivery{
			capacity: 2, to: 0, from: []int{1, 2},
			dst:  append(filler(3, 1), rec(0, old, 3, 9)),
			srcs: [][]StateRecord{filler(3, 2), {rec(0, old, 4, 8)}},
		}, map[int]float64{0: 9, 22: 1, 21: -1}},
		{"capacity 1 keeps only the owner", delivery{
			capacity: 1, to: 0, from: []int{1, 2, 3, 4, 5, 6},
			dst:  []StateRecord{rec(0, old, 4, 9)},
			srcs: [][]StateRecord{filler(2, 1), filler(2, 2), filler(2, 3), filler(2, 4), filler(2, 5), filler(2, 6)},
		}, map[int]float64{0: 9, 20: -1, 21: -1}},
		{"capacity 13 over six senders", delivery{
			capacity: 13, to: 0, from: []int{6, 5, 4, 3, 2, 1},
			dst:  filler(4, 1),
			srcs: [][]StateRecord{filler(6, 2), filler(8, 3), filler(10, 4), filler(12, 5), filler(14, 6), filler(16, 7)},
		}, map[int]float64{20: -1, 22: -1, 23: 1, 24: 2, 26: 3, 28: 4, 32: 6, 35: 7}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := newPushHarness(0).check(t, tc.name, tc.d)
			for origin, load := range tc.want {
				i := slices.IndexFunc(got, func(r StateRecord) bool { return r.Node == origin })
				switch {
				case load < 0 && i >= 0:
					t.Errorf("origin %d kept (%+v), want it gone", origin, got[i])
				case load >= 0 && i < 0:
					t.Errorf("origin %d gone, want load %v", origin, load)
				case load >= 0 && got[i].TotalLoadMI != load:
					t.Errorf("origin %d kept with load %v, want %v", origin, got[i].TotalLoadMI, load)
				}
			}
		})
	}
}

// fuzzBytes hands out a fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (f *fuzzBytes) next() int {
	if len(*f) == 0 {
		return 0
	}
	b := (*f)[0]
	*f = (*f)[1:]
	return int(b)
}

// fuzzStamp maps a byte to a mint time: the cycle grid, the expiry
// boundary, or a continuous age.
func fuzzStamp(c int) float64 {
	switch c % 3 {
	case 0:
		return pushNow - 300*float64(c/3%7)
	case 1:
		return pushNow - pushExpiry + float64(c/3%3) - 1
	default:
		return pushNow - float64(c/3)/85*1.5*pushExpiry
	}
}

// FuzzPush drives the one-sender comparison from fuzz bytes. The first
// three bytes pick the capacity (1-13) and the endpoints among 16 origins.
// Each following three-byte group adds one origin's records: the origin
// and its side (sender, receiver, both with one minting, or both with the
// receiver's a cycle older), the two TTLs, and a mint time (fuzzStamp);
// the origin's first group also sets its capacity. The harness maps the
// mint times to mints in increasing order. The seed corpus in
// testdata/fuzz/FuzzPush covers each mint-time family, capacities 1-13,
// every placement of the owner's record and same-minting TTL pairs.
func FuzzPush(f *testing.F) {
	h := newPushHarness(0)
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		const universe = 16
		capacity := 1 + in.next()%maxPushCap
		to := in.next() % universe
		from := (to + 1 + in.next()%(universe-1)) % universe
		var src, dst []StateRecord
		var caps [universe]float64
		has := func(recs []StateRecord, o int) bool {
			return slices.ContainsFunc(recs, func(r StateRecord) bool { return r.Node == o })
		}
		for len(in) > 0 {
			a, b, c := in.next(), in.next(), in.next()
			o := a % universe
			if caps[o] == 0 {
				caps[o] = float64(1 + c%16) // the origin's first group draws its capacity
			}
			rec := StateRecord{Node: o, TTL: b % 5, Capacity: caps[o], Timestamp: fuzzStamp(c)}
			side := a / universe % 4
			if side != 1 && !has(src, rec.Node) {
				src = append(src, rec)
			}
			if side >= 1 && !has(dst, rec.Node) {
				d := rec
				d.TTL = b / 5 % 5
				d.TotalLoadMI = 1 // tells the receiver's copy from a forwarded one
				if side == 3 {
					d.Timestamp -= 300
				}
				dst = append(dst, d)
			}
		}
		h.check(t, "fuzz", delivery{capacity: capacity, to: to, from: []int{from}, dst: dst, srcs: [][]StateRecord{src}})
	})
}

// FuzzDeliver drives the k-sender comparison from fuzz bytes. The first
// three bytes pick the capacity (1-13), the receiver among 16 origins, and
// the number of senders k (1-6) with an offset that places them after the
// receiver; the third byte's quotient by 60, when odd, runs the comparison
// on the chunkFanOut harness, where k = 3-6 arrive in consecutive merges.
// Each following four-byte group adds one origin's records:
//   - the origin;
//   - the lists holding it, a non-empty subset of the receiver and the k
//     senders;
//   - a mint time (fuzzStamp), which the origin's first group also turns
//     into its capacity;
//   - a TTL and a mode: every copy one minting with keys equal after
//     forwarding, one minting with TTLs spread, every other list's copy a
//     cycle older, or one minting and one TTL.
//
// Each copy carries a load of its own, so an equal key shows which copy
// was kept. The seed corpus in testdata/fuzz/FuzzDeliver covers k = 1-6,
// capacities 1-13, equal keys, every placement of the owner's record, and
// (the chunked-* files) batches of 3-6 senders in chunks.
func FuzzDeliver(f *testing.F) {
	hs := [2]*pushHarness{newPushHarness(0), newPushHarness(chunkFanOut)}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		const universe = 16
		d := delivery{capacity: 1 + in.next()%maxPushCap, to: in.next() % universe}
		kb := in.next()
		k, offset := 1+kb%maxSenders, kb/maxSenders%(universe-maxSenders)
		h := hs[kb/(maxSenders*(universe-maxSenders))%2]
		d.srcs = make([][]StateRecord, k)
		for j := 0; j < k; j++ {
			d.from = append(d.from, (d.to+1+offset+j)%universe)
		}
		var caps [universe]float64
		for len(in) > 0 {
			a, b, c, e := in.next(), in.next(), in.next(), in.next()
			o := a % universe
			if caps[o] == 0 {
				caps[o] = float64(1 + c%16)
			}
			holders := 1 + b%(1<<(k+1)-1)
			ttl, mode := e%5, e/5%4
			for l := 0; l <= k; l++ {
				if holders>>l&1 == 0 {
					continue
				}
				rec := StateRecord{Node: o, Capacity: caps[o], Timestamp: fuzzStamp(c), TotalLoadMI: float64(100*l + a/universe)}
				switch mode {
				case 0: // equal keys: a sender's copy spends a hop on the way
					rec.TTL = min(ttl+min(l, 1), 4)
				case 1:
					rec.TTL = (ttl + 2*l) % 5
				case 2:
					rec.TTL = (ttl + l) % 5
					rec.Timestamp -= 300 * float64(l%2)
				default:
					rec.TTL = ttl
				}
				list := &d.dst
				if l > 0 {
					list = &d.srcs[l-1]
				}
				if !slices.ContainsFunc(*list, func(r StateRecord) bool { return r.Node == o }) {
					*list = append(*list, rec)
				}
			}
		}
		h.check(t, "fuzz", d)
	})
}
