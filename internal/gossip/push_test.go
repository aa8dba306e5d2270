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
)

// pushHarness is a protocol from New whose caches a test installs
// directly, plus one push scratch reused across trials, as a cycle reuses
// it. mints0 is the length of New's mint table, before any cycle minted.
type pushHarness struct {
	p       *Protocol
	mints0  int
	scratch pushScratch
}

func newPushHarness() *pushHarness {
	p, err := New(sim.NewEngine(), Config{N: pushNodes, CacheCapacity: maxPushCap}, newFakeGrid(pushNodes, 1))
	if err != nil {
		panic(err)
	}
	if p.expirySeconds() != pushExpiry {
		panic("push harness: expiry is not the default")
	}
	return &pushHarness{p: p, mints0: len(p.mints), scratch: newPushScratch(pushNodes, maxPushCap+2)}
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
	c := make([]record, len(recs), max(len(recs)+1, maxPushCap+2))
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

// check pushes src (node from's cache) into dst (node to's) and compares
// the outcome with pushReference. src and dst may be in any order.
func (h *pushHarness) check(t *testing.T, what string, capacity, from, to int, src, dst []StateRecord) {
	t.Helper()
	sortOrigin(src)
	sortOrigin(dst)
	want, wantBytes := pushReference(src, dst, to, capacity, pushNow, pushExpiry)

	p := h.p
	p.cfg.CacheCapacity = capacity
	mintOf := h.stamp(t, src, dst)
	h.install(from, src, mintOf)
	h.install(to, dst, mintOf)
	srcBefore := slices.Clone(p.cache[from])
	version := p.version[to]
	live := p.liveKey(pushNow)
	p.loadForward(from, live, &h.scratch)
	bytes := p.pushInto(from, to, live, &h.scratch)

	checkEvictionOrder(t, what, p.cache[to])
	got := make([]StateRecord, 0, len(p.cache[to]))
	for _, r := range p.cache[to] {
		got = append(got, p.stateRecord(r))
	}
	sortOrigin(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s (from %d, to %d, cap %d):\nsrc  %+v\ndst  %+v\ngot  %+v\nwant %+v",
			what, from, to, capacity, src, dst, got, want)
	}
	if bytes != wantBytes {
		t.Fatalf("%s: %d bytes sent, want %d", what, bytes, wantBytes)
	}
	if fwd, ownMint := recount(to, p.cache[to]); p.fwd[to] != fwd || p.ownMint[to] != ownMint {
		t.Fatalf("%s: fwd %d ownMint %d, recomputed %d %d", what, p.fwd[to], p.ownMint[to], fwd, ownMint)
	}
	if p.version[to] != version+1 {
		t.Fatalf("%s: version bumped %d times, want once", what, p.version[to]-version)
	}
	if !slices.Equal(p.cache[from], srcBefore) {
		t.Fatalf("%s: push changed the sender's cache", what)
	}
}

// Owner placements a trial can force.
const (
	ownerInDst = iota
	ownerOnlySrc
	ownerAbsent
	ownerExpiredInDst
	ownerCases
)

// pushTrial is one drawn push: the two caches, the endpoints and the
// capacity.
type pushTrial struct {
	capacity, from, to int
	src, dst           []StateRecord
}

// drawTrial draws a push over a universe of origins small enough that the
// two caches overlap heavily. stamp draws a mint time; owner places the
// receiver's own record. Each origin draws one capacity, which every copy
// of its record carries.
func drawTrial(rng *rand.Rand, stamp func() float64, owner int) pushTrial {
	capacity := 1 + rng.Intn(maxPushCap)
	if rng.Intn(3) == 0 {
		capacity = 1 + rng.Intn(3)
	}
	universe := min(pushNodes, 2*capacity+2+rng.Intn(8))
	tr := pushTrial{capacity: capacity, to: rng.Intn(universe)}
	tr.from = (tr.to + 1 + rng.Intn(universe-1)) % universe
	inSrc := rng.Float64()
	inDst := rng.Float64()
	for o := 0; o < universe; o++ {
		if o == tr.to {
			continue
		}
		hasSrc := rng.Float64() < inSrc && len(tr.src) < capacity
		hasDst := rng.Float64() < inDst && len(tr.dst) < capacity
		c := float64(1 + rng.Intn(16))
		var d StateRecord
		if hasDst {
			d = StateRecord{Node: o, Timestamp: stamp(), TTL: rng.Intn(5), Capacity: c}
			tr.dst = append(tr.dst, d)
		}
		if hasSrc {
			s := StateRecord{Node: o, Timestamp: stamp(), TTL: rng.Intn(5), Capacity: c, TotalLoadMI: float64(rng.Intn(100))}
			if hasDst && rng.Intn(2) == 0 {
				s.Timestamp = d.Timestamp // the same minting on both sides
			}
			tr.src = append(tr.src, s)
		}
	}
	ownCap := float64(1 + rng.Intn(16))
	own := func(ts float64) StateRecord {
		return StateRecord{Node: tr.to, Timestamp: ts, TTL: rng.Intn(5), Capacity: ownCap, TotalLoadMI: float64(rng.Intn(100))}
	}
	live := func() float64 { return pushNow - 300*float64(rng.Intn(5)) }
	expired := func() float64 { return pushNow - pushExpiry - 1 - 300*float64(rng.Intn(2)) }
	switch owner {
	case ownerInDst:
		tr.dst = append(tr.dst, own(live()))
		if rng.Intn(2) == 0 {
			tr.src = append(tr.src, own(live()))
		}
	case ownerOnlySrc:
		tr.src = append(tr.src, own(live()))
	case ownerExpiredInDst:
		tr.dst = append(tr.dst, own(expired()))
		if rng.Intn(3) > 0 {
			tr.src = append(tr.src, own(live()))
		}
	}
	return tr
}

// TestPushMatchesReference pins the packed eviction-order merge to the
// origin-order merge plus per-victim eviction it replaced: the same
// receiver record set, the same bytes sent, over mint-time families that
// stress ties, expiry and every placement of the owner's record.
func TestPushMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	families := []struct {
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
	h := newPushHarness()
	for _, f := range families {
		for trial := 0; trial < 5000; trial++ {
			if trial == 2500 {
				h.scratch.seq = math.MaxUint32 - 3 // wrap the origin stamps mid-family
			}
			tr := drawTrial(rng, f.stamp, trial%ownerCases)
			h.check(t, f.name, tr.capacity, tr.from, tr.to, tr.src, tr.dst)
		}
	}
}

// FuzzPush drives the same comparison from fuzz bytes. The first three
// bytes pick the capacity (1-13) and the endpoints among 16 origins. Each
// following three-byte group adds one origin's records: the origin and its
// side (sender, receiver, both with one minting, or both with the
// receiver's a cycle older), the two TTLs, and a mint time (the cycle
// grid, the expiry boundary, or a continuous age); the origin's first
// group also sets its capacity. The harness maps the mint times to mints
// in increasing order. The seed corpus in
// testdata/fuzz/FuzzPush covers each mint-time family, capacities 1-13,
// every placement of the owner's record and same-minting TTL pairs.
func FuzzPush(f *testing.F) {
	h := newPushHarness()
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		const universe = 16
		capacity := 1 + next()%maxPushCap
		to := next() % universe
		from := (to + 1 + next()%(universe-1)) % universe
		var src, dst []StateRecord
		var caps [universe]float64
		has := func(recs []StateRecord, o int) bool {
			return slices.ContainsFunc(recs, func(r StateRecord) bool { return r.Node == o })
		}
		for len(data) > 0 {
			a, b, c := next(), next(), next()
			o := a % universe
			if caps[o] == 0 {
				caps[o] = float64(1 + c%16) // the origin's first group draws its capacity
			}
			rec := StateRecord{Node: o, TTL: b % 5, Capacity: caps[o]}
			switch sel := c % 3; sel {
			case 0:
				rec.Timestamp = pushNow - 300*float64(c/3%7)
			case 1:
				rec.Timestamp = pushNow - pushExpiry + float64(c/3%3) - 1
			default:
				rec.Timestamp = pushNow - float64(c/3)/85*1.5*pushExpiry
			}
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
		h.check(t, "fuzz", capacity, from, to, src, dst)
	})
}
