// Package gossip implements the paper's mixed gossip protocol (Section
// III.B): an epidemic protocol that disseminates per-node state records
// (capacity c_i and total load l_i) with fan-out log2(n) and a bounded TTL,
// plus an aggregation protocol (push-pull averaging, Jelasity et al.) that
// estimates the system-wide average node capacity and average bandwidth
// every node needs to price RPMs.
//
// Neighbors are re-drawn uniformly at random every cycle, the idealized
// behaviour of the Newscast peer-sampling model the paper cites. Each node's
// resource set RSS is a freshness-bounded cache whose capacity is
// O(log2(n)), reproducing Fig. 11(a)'s bounded "acquaintance" count.
//
// The per-node cache is a slice, not a map: the RSS bound keeps it at
// O(log n) entries. Each entry is a 16-byte packed record, one integer key
// (mint<<32 | origin<<8 | hops left) plus the advertised load. Records are
// minted only by the cycle, at its instant and with the origin's capacity,
// which never changes, so the mint indexes a per-protocol table of cycle
// instants and the capacity is read once per origin. Descending key order
// is eviction order - the later mint first, ties to the higher origin - and
// every cache is kept in it.
//
// Pushes, the simulator's hottest work (fan-out pushes per node per cycle),
// are delivered per receiver, not one at a time. A push only posts its
// sender to the receiver's list in a flat per-cycle inbox. A receiver takes
// the pushes of the senders before it in node order at its own turn, before
// its own record, and the rest after the node loop, each batch in one merge
// of its live head and its senders' forward lists, read straight from the
// senders' caches. The merge takes the largest key at every step, keeps the
// first copy of each origin, and stops as soon as the receiver is full: the
// records it never reaches are exactly the stalest ones a capacity eviction
// would drop, so they are never written. Within a cycle the expiry bound is
// fixed, and keeping the freshest copy per origin and then the largest keys
// composes, so one merge leaves the cache the pushes one at a time would.
// Readers see StateRecords in origin order: AppendRSS unpacks and sorts its
// at most CacheCapacity records on the way out. A node's neighbor draw
// touches O(fan-out²) positions instead of listing all n, so one cycle
// costs O(n log² n).
package gossip

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"repro/internal/sim"
	"repro/internal/stats"
)

// StateRecord is one node's advertised state as seen by another node.
type StateRecord struct {
	Node        int
	Capacity    float64 // MIPS
	TotalLoadMI float64 // l_i: queued + running load
	Timestamp   float64 // simulated time the record was minted at the origin
	TTL         int     // remaining forwarding hops
}

// record is a cached StateRecord, packed. key is mint<<32 | origin<<8 |
// hops left, so descending key order is eviction order, and of two copies
// of one minting the one with more hops left comes first. The mint indexes
// Protocol.mints and is at least 1, so no real key is 0: a merge list whose
// head key is 0 is exhausted. The origin's capacity lives in
// Protocol.capacity.
type record struct {
	key  uint64
	load float64 // TotalLoadMI
}

// Key layout limits.
const (
	hopBits  = 8
	maxTTL   = 1<<hopBits - 1 // also the hop field's mask
	maxNodes = 1 << 24        // origins the 24-bit origin field holds
)

func packKey(mint uint32, origin, hops int) uint64 {
	return uint64(mint)<<32 | uint64(origin)<<hopBits | uint64(hops)
}

func (r record) origin() int  { return int(uint32(r.key) >> hopBits) }
func (r record) hops() int    { return int(r.key & maxTTL) }
func (r record) mint() uint32 { return uint32(r.key >> 32) }

// NodeState is the local state the protocol reads from the grid layer:
// Capacity once per node, in New, and the rest at every cycle. A node's
// Capacity must not change after New; records and the aggregation's epoch
// restarts keep serving the value New read.
type NodeState struct {
	Capacity        float64
	TotalLoadMI     float64
	Alive           bool
	AvgBandwidthObs float64 // node's local observation of typical bandwidth
}

// LocalState is implemented by the grid runtime.
type LocalState interface {
	Snapshot(node int) NodeState
}

// Config tunes the protocol. Zero values select the paper's setting.
type Config struct {
	N             int
	CycleSeconds  float64 // gossip cycle, default 300 s (five minutes)
	TTL           int     // max hops, default 4
	FanOut        int     // push fan-out, default log2(n)
	CacheCapacity int     // RSS bound, default 3*log2(n)
	ExpiryCycles  float64 // drop records older than this many cycles, default 4
	EpochCycles   int     // aggregation restart period, default 8
	Seed          int64
}

func (c Config) withDefaults() Config {
	if c.CycleSeconds == 0 {
		c.CycleSeconds = 300
	}
	if c.TTL == 0 {
		c.TTL = 4
	}
	if c.FanOut == 0 {
		c.FanOut = max(1, stats.Log2Ceil(c.N))
	}
	if c.CacheCapacity == 0 {
		c.CacheCapacity = max(4, 3*stats.Log2Ceil(c.N))
	}
	if c.ExpiryCycles == 0 {
		c.ExpiryCycles = 4
	}
	if c.EpochCycles == 0 {
		c.EpochCycles = 8
	}
	return c
}

// ErrConfig is wrapped by every error New returns for a Config value it
// cannot run: a negative or non-finite setting, or a node count or TTL
// beyond what a packed record key holds.
var ErrConfig = errors.New("gossip: bad config")

// validate checks a defaulted Config.
func (c Config) validate() error {
	positive := func(v float64) bool { return v > 0 && !math.IsInf(v, 1) }
	var msg string
	switch {
	case c.N <= 0:
		msg = fmt.Sprintf("need positive N, got %d", c.N)
	case c.N > maxNodes:
		msg = fmt.Sprintf("N %d above the %d origins a record key holds", c.N, maxNodes)
	case c.TTL < 0:
		msg = fmt.Sprintf("negative TTL %d", c.TTL)
	case c.TTL > maxTTL:
		msg = fmt.Sprintf("TTL %d above the %d hops a record key holds", c.TTL, maxTTL)
	case c.FanOut < 0:
		msg = fmt.Sprintf("negative FanOut %d", c.FanOut)
	case c.CacheCapacity < 0:
		msg = fmt.Sprintf("negative CacheCapacity %d", c.CacheCapacity)
	case c.EpochCycles < 0:
		msg = fmt.Sprintf("negative EpochCycles %d", c.EpochCycles)
	case c.N*c.slotsPerSender() > math.MaxInt32:
		msg = fmt.Sprintf("N %d times FanOut %d above the %d pushes a cycle's inbox holds",
			c.N, c.FanOut, math.MaxInt32)
	case !positive(c.CycleSeconds):
		msg = fmt.Sprintf("CycleSeconds must be positive and finite, got %v", c.CycleSeconds)
	case !positive(c.ExpiryCycles):
		msg = fmt.Sprintf("ExpiryCycles must be positive and finite, got %v", c.ExpiryCycles)
	default:
		return nil
	}
	return fmt.Errorf("%w: %s", ErrConfig, msg)
}

// slotsPerSender is the most pushes one node makes in a cycle: its fan-out
// targets are distinct and never itself.
func (c Config) slotsPerSender() int {
	return max(1, min(c.FanOut, c.N-1))
}

// mergeLists is the most lists one merge takes: the receiver's cache and
// the pushes of up to twice the fan-out senders. A receiver takes about
// half the fan-out pushes at a time, so a longer batch, which deliver
// merges in consecutive chunks, is rare.
func (c Config) mergeLists() int { return 1 + 2*c.slotsPerSender() }

// idleMemo caches one IdleKnown answer per node. A cached count stays valid
// while the simulated clock and the cache version are unchanged: expiry
// depends only on the clock, and every mutation bumps the version. Metric
// snapshots that sample many statistics at one instant hit the memo after
// the first count of a gossip cycle.
type idleMemo struct {
	at      float64
	count   int
	version uint32
	valid   bool
}

// Clock is the engine surface the protocol needs: the simulated time and
// periodic scheduling. sim.Engine satisfies it. A gossip cycle is one
// event.
type Clock interface {
	Now() float64
	Every(start, period float64, fn sim.Event) *sim.Ticker
}

// Protocol simulates the mixed gossip protocol for all n nodes on one
// deterministic event engine.
type Protocol struct {
	cfg    Config
	engine Clock
	local  LocalState
	rng    *rand.Rand

	// cache[i] is node i's RSS: at most one record per origin, in
	// descending key order, so expired records form its tail. Every slice
	// has capacity CacheCapacity+1: at most CacheCapacity records after a
	// merge, plus the owner's own record merged in before the next one.
	// fwd[i] counts cache[i]'s records with hops left, expired ones
	// included, and ownMint[i] is the mint of node i's own record in
	// cache[i], 0 when it holds none. newest[i] is at least the key of
	// every copy of node i's record in any cache: the key of the record
	// its latest turn minted, since every other copy is older or spent
	// hops on the way.
	cache     [][]record
	fwd       []int32
	ownMint   []uint32
	newest    []uint64   // per origin: bounds the key of every copy of its record
	capacity  []float64  // per origin, read once in New
	mints     []float64  // mints[m] is the instant of mint m; mints[0] is unused
	version   []uint32   // bumped on every cache[i] mutation
	idle      []idleMemo // per-node IdleKnown memo
	sampleBuf []int      // reused by the cycle's neighbor draws
	inbox     inbox      // the cycle's pending pushes
	merge     merger     // the cycle's merge scratch

	// Aggregation state (push-pull averaging with epoch restarts).
	estCap     []float64 // in-progress capacity estimate
	estBW      []float64
	reportCap  []float64 // last converged (previous epoch) values
	reportBW   []float64
	cycleCount int

	// MessagesSent counts epidemic pushes plus aggregation exchanges, and
	// BytesSent the corresponding traffic under the paper's cost model
	// (Section IV.A: "each message carries about 80 bytes data payload and
	// 20 bytes header information"). One epidemic push carries one record;
	// a full cache push therefore costs one message per record, matching
	// the paper's per-neighbor accounting.
	MessagesSent uint64
	BytesSent    uint64
}

// Per-message cost model from Section IV.A.
const (
	MessagePayloadBytes = 80
	MessageHeaderBytes  = 20
	MessageBytes        = MessagePayloadBytes + MessageHeaderBytes
)

// New wires the protocol onto the engine. Call Start to begin cycling.
func New(engine Clock, cfg Config, local LocalState) (*Protocol, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if local == nil {
		return nil, fmt.Errorf("gossip: nil LocalState")
	}
	p := &Protocol{
		cfg:       cfg,
		engine:    engine,
		local:     local,
		rng:       stats.NewRand(cfg.Seed, 0xC3),
		cache:     make([][]record, cfg.N),
		fwd:       make([]int32, cfg.N),
		ownMint:   make([]uint32, cfg.N),
		newest:    make([]uint64, cfg.N),
		capacity:  make([]float64, cfg.N),
		mints:     make([]float64, 1),
		version:   make([]uint32, cfg.N),
		idle:      make([]idleMemo, cfg.N),
		sampleBuf: make([]int, 0, 3*cfg.FanOut),
		estCap:    make([]float64, cfg.N),
		estBW:     make([]float64, cfg.N),
		reportCap: make([]float64, cfg.N),
		reportBW:  make([]float64, cfg.N),
	}
	stride := cfg.CacheCapacity + 1
	backing := make([]record, cfg.N*stride)
	for i := range p.cache {
		p.cache[i] = backing[i*stride : i*stride : (i+1)*stride]
	}
	p.inbox = newInbox(cfg.N, cfg.slotsPerSender())
	p.merge = newMerger(cfg.N, cfg.mergeLists(), stride)
	for i := 0; i < cfg.N; i++ {
		s := local.Snapshot(i)
		p.capacity[i] = s.Capacity
		p.estCap[i], p.estBW[i] = s.Capacity, s.AvgBandwidthObs
		p.reportCap[i], p.reportBW[i] = s.Capacity, s.AvgBandwidthObs
	}
	return p, nil
}

// Config returns the effective (defaulted) configuration.
func (p *Protocol) Config() Config { return p.cfg }

// Start schedules the periodic cycle: one event every CycleSeconds from at,
// each running every alive node's merge, pushes and aggregation exchange
// in node order.
func (p *Protocol) Start(at float64) {
	p.engine.Every(at, p.cfg.CycleSeconds, func(now float64) { p.cycle(now) })
}

// mint appends now to the table of mint instants and returns its index.
func (p *Protocol) mint(now float64) uint32 {
	p.mints = append(p.mints, now)
	return uint32(len(p.mints) - 1)
}

// liveKey returns the least key a record live at now can have: the first
// mint no more than the expiry window before now, shifted into place. Mint
// instants increase, so the live mints are a suffix of the table, and the
// float test runs once per live mint instead of once per record. Mint 0 is
// never live.
func (p *Protocol) liveKey(now float64) uint64 {
	expiry := p.expirySeconds()
	m := len(p.mints)
	for m > 1 && now-p.mints[m-1] <= expiry {
		m--
	}
	return uint64(m) << 32
}

// cycle runs one gossip round for every alive node.
func (p *Protocol) cycle(now float64) {
	p.cycleCount++
	// Epoch restart must complete for ALL nodes before any exchange this
	// cycle, otherwise a restarted node averaging with a not-yet-restarted
	// one mixes epochs and destroys sum conservation.
	if p.cycleCount%p.cfg.EpochCycles == 1 || p.cfg.EpochCycles == 1 {
		for i := 0; i < p.cfg.N; i++ {
			s := p.local.Snapshot(i)
			if !s.Alive {
				continue
			}
			p.reportCap[i], p.reportBW[i] = p.estCap[i], p.estBW[i]
			p.estCap[i], p.estBW[i] = p.capacity[i], s.AvgBandwidthObs
		}
	}
	mint := p.mint(now)
	live := p.liveKey(now)
	for i := 0; i < p.cfg.N; i++ {
		s := p.local.Snapshot(i)
		if !s.Alive {
			continue
		}
		// Take the pushes of the senders before i, refresh i's own record
		// and push to fan-out random targets. A push is counted when it is
		// made; its records reach the target at the target's next merge.
		if nodes := p.inbox.take(i); nodes != nil {
			p.deliver(nodes, live)
		}
		p.mergeOwn(i, record{key: packKey(mint, i, p.cfg.TTL), load: s.TotalLoadMI})
		bytes := uint64(p.fwd[i]) * MessageBytes
		targets := stats.SampleWithoutInto(p.rng, p.cfg.N, p.cfg.FanOut, i, p.sampleBuf)
		for j, t := range targets {
			if !p.local.Snapshot(t).Alive {
				continue
			}
			p.inbox.post(i, j, t)
			p.MessagesSent++
			p.BytesSent += bytes
		}
		// Aggregation: one push-pull averaging exchange (reusing the sample
		// buffer is safe: the fan-out targets above were fully consumed).
		partner := stats.SampleWithoutInto(p.rng, p.cfg.N, 1, i, p.sampleBuf)
		if len(partner) == 1 && p.local.Snapshot(partner[0]).Alive {
			j := partner[0]
			avgC := (p.estCap[i] + p.estCap[j]) / 2
			avgB := (p.estBW[i] + p.estBW[j]) / 2
			p.estCap[i], p.estCap[j] = avgC, avgC
			p.estBW[i], p.estBW[j] = avgB, avgB
			p.MessagesSent++
			p.BytesSent += 2 * MessageBytes // push and pull
		}
	}
	// The pushes of the senders after each receiver, in node order. A
	// sender's cache is unchanged from its turn until its own merge here, so
	// a receiver before it still reads what it pushed.
	for t := 0; t < p.cfg.N; t++ {
		if nodes := p.inbox.take(t); nodes != nil {
			p.deliver(nodes, live)
		}
	}
}

// inbox holds one cycle's pushes until their receivers merge them. Node
// i's j-th push of the cycle is slot i*fan+j, so a slot names its sender;
// the slots pending at a receiver form a list through next, newest first.
// All of it is one allocation: 4 bytes per slot and 8 per node.
type inbox struct {
	fan   int32
	head  []int32 // per receiver: its newest pending slot, or -1
	next  []int32 // per slot: the same receiver's previous pending slot
	nodes []int32 // take's result: a receiver, then its senders
}

func newInbox(n, fan int) inbox {
	buf := make([]int32, 2*n+n*fan)
	in := inbox{fan: int32(fan), head: buf[:n:n], nodes: buf[n : n : 2*n], next: buf[2*n:]}
	for i := range in.head {
		in.head[i] = -1
	}
	return in
}

// post queues from's j-th push of the cycle for node to.
func (in *inbox) post(from, j, to int) {
	s := int32(from)*in.fan + int32(j)
	in.next[s] = in.head[to]
	in.head[to] = s
}

// take empties node to's pending pushes and returns them as a delivery
// list: to, then the senders in the order they pushed. It returns nil when
// none are pending.
func (in *inbox) take(to int) []int32 {
	s := in.head[to]
	if s < 0 {
		return nil
	}
	in.head[to] = -1
	nodes := append(in.nodes[:0], int32(to))
	for ; s >= 0; s = in.next[s] {
		nodes = append(nodes, s/in.fan)
	}
	slices.Reverse(nodes[1:])
	return nodes
}

// merger is the cycle's reusable merge state: a spare cache slot the
// merge writes into before it trades places with the receiver's cache,
// what is left of each merge list and its head's key, and per-origin
// stamps marking the origins the current merge has placed.
type merger struct {
	spare []record
	rest  [][]record
	keys  []uint64
	seen  []uint32
	seq   uint32
}

// newMerger sizes a merger for n origins, merges of up to lists lists and
// caches of capacity stride.
func newMerger(n, lists, stride int) merger {
	return merger{
		spare: make([]record, 0, stride),
		rest:  make([][]record, lists),
		keys:  make([]uint64, lists),
		seen:  make([]uint32, n),
	}
}

// head returns recs from the first record a merge list delivers, with that
// record's key: a live record and, for a sender (hop 1), one with a hop
// left, keyed with that hop spent. It returns nil and 0 when there is none.
func head(recs []record, live, hop uint64) ([]record, uint64) {
	for i, r := range recs {
		if r.key < live {
			break
		}
		if r.key&maxTTL >= hop {
			return recs[i:], r.key - hop
		}
	}
	return nil, 0
}

// deliver merges pushes into one cache: nodes[0] receives the pushes of
// nodes[1:], made in that order in this cycle. A merge takes at most
// len(p.merge.keys) lists, so a longer batch goes in consecutive merges of
// its senders in order; one merge of k pushes equals the k pushes one at a
// time, so the chunks compose. deliver overwrites nodes.
func (p *Protocol) deliver(nodes []int32, live uint64) {
	to, lists := nodes[0], len(p.merge.keys)
	for len(nodes) > lists {
		p.mergePushes(nodes[:lists], live)
		nodes = nodes[lists-1:]
		nodes[0] = to
	}
	p.mergePushes(nodes, live)
	p.version[to]++
}

// mergePushes is one merge of deliver's, of at most len(p.merge.keys)
// lists: nodes[0] receives the pushes of nodes[1:], in that order. Each
// push is the sender's forward list, read straight from its cache: its
// live records with a hop left, each with that hop spent. A sender's cache
// does not change between its pushes and the merge that delivers them, so
// that is what it pushed. The caller has counted the traffic.
//
// The receiver's live head and the forward lists are all in eviction
// order, so the receiver's new cache is one merge of them (merger.run).
// The owner's record is always kept; of the rest, the merge keeps the
// first CacheCapacity, or one fewer when the owner's record is in the
// merged view, and stops there: everything after is what evicting the
// stalest records, ties to the lower origin, would drop. If the owner's
// record is then still pending, its first copy in merge order is appended;
// it sorts after everything placed. The merge writes into p.merge.spare,
// which then trades places with the receiver's cache.
func (p *Protocol) mergePushes(nodes []int32, live uint64) {
	m := &p.merge
	to := int(nodes[0])
	recs := p.cache[to]
	rest, keys := m.rest[:len(nodes)], m.keys[:len(nodes)]
	for b, n := range nodes {
		rest[b], keys[b] = head(p.cache[n], live, uint64(min(b, 1)))
	}

	// Whether the owner's record is in the merged view decides the room
	// left for the others. The receiver's own copy settles it unless that
	// is missing or expired; then only a sender's copy can bring it, and
	// one can only if newest[to] allows a live one.
	ownLive := uint64(p.ownMint[to])<<32 >= live
	var own record
	if !ownLive && p.newest[to] >= live {
		own = forwardedOwn(to, rest[1:], record{}, live)
	}
	ownPending := ownLive || own.key != 0
	room := p.cfg.CacheCapacity
	if ownPending {
		room--
	}
	placed, fwd, ownMint := m.run(len(nodes), to, room, live)
	if ownPending && ownMint == 0 {
		// Full before the owner's record came up: take its first copy in
		// merge order from what is left of the lists. A sender's copy comes
		// before the receiver's only with a larger key, which newest[to]
		// rules out unless it lies above the receiver's key plus the hop.
		if ownLive {
			for _, r := range rest[0] {
				if r.origin() == to {
					own = r
					break
				}
			}
			if p.newest[to] > own.key+1 {
				own = forwardedOwn(to, rest[1:], own, live)
			}
		}
		m.spare = append(m.spare[:placed], own)
		placed++
		fwd += int32((own.key&maxTTL + maxTTL) >> hopBits)
		ownMint = own.mint()
	}
	p.cache[to], m.spare = m.spare[:placed], recs[:0]
	p.fwd[to], p.ownMint[to] = fwd, ownMint
}

// run merges m's first n lists into m.spare until room records other than
// node to's own are placed or the lists run out, and returns the records
// placed, how many have hops left and the mint of to's record among them
// (0 for none). Each step takes the largest head key; a later list's head
// only when strictly larger, so of two copies of one minting the
// receiver's wins, then the earliest sender's. The first copy of an origin
// the merge reaches is its freshest; the others are skipped.
func (m *merger) run(n, to, room int, live uint64) (placed int, fwd int32, ownMint uint32) {
	if m.seq++; m.seq == 0 {
		clear(m.seen)
		m.seq = 1
	}
	seen, seq := m.seen, m.seq
	rest, keys := m.rest[:n], m.keys[:n]
	out := m.spare[:cap(m.spare)]
	for room > 0 {
		b, key := 0, keys[0]
		for j := 1; j < len(keys); j++ {
			// lt is 1 when list j's key is strictly larger: the borrow of
			// key - keys[j]. The mask picks that list's key and index.
			k := keys[j]
			_, lt := bits.Sub64(key, k, 0)
			mask := -lt
			key ^= (key ^ k) & mask
			b ^= (b ^ j) & int(mask)
		}
		if key == 0 {
			break // every list is exhausted
		}
		l := rest[b]
		load := l[0].load
		rest[b], keys[b] = head(l[1:], live, uint64(min(b, 1)))
		origin := uint32(key) >> hopBits
		if seen[origin] == seq {
			continue // a fresher copy of this origin is already placed
		}
		seen[origin] = seq
		out[placed] = record{key: key, load: load}
		placed++
		fwd += int32((key&maxTTL + maxTTL) >> hopBits) // 1 when hops are left
		if int(origin) == to {
			ownMint = uint32(key >> 32)
		} else {
			room--
		}
	}
	return placed, fwd, ownMint
}

// forwardedOwn returns the first copy in merge order of node to's record
// forwarded from the senders' lists rest, when one has a larger key than
// best, and best otherwise. Each list is in eviction order, so its scan
// stops at the first key that cannot beat the best so far.
func forwardedOwn(to int, rest [][]record, best record, live uint64) record {
	for _, l := range rest {
		for _, r := range l {
			if r.key < live || r.key-1 <= best.key {
				break
			}
			if r.key&maxTTL != 0 && r.origin() == to {
				r.key--
				best = r
				break
			}
		}
	}
	return best
}

// indexOrigin returns the position of origin's record in recs, or -1.
func indexOrigin(recs []record, origin int) int {
	for i := range recs {
		if recs[i].origin() == origin {
			return i
		}
	}
	return -1
}

// mergeOwn installs node at's own record, minted this cycle, in eviction
// order. No copy of it exists anywhere yet, so it supersedes whatever
// record of at the cache holds.
func (p *Protocol) mergeOwn(at int, rec record) {
	recs := p.cache[at]
	i := indexOrigin(recs, at)
	if i < 0 {
		i = len(recs)
		recs = append(recs, rec)
		p.cache[at] = recs
	} else if recs[i].key&maxTTL != 0 {
		p.fwd[at]--
	}
	// Move rec forward from i to its place: a new origin was appended at
	// i, and a fresher copy sorts no later than the one it replaces.
	j := 0
	for j < i && recs[j].key > rec.key {
		j++
	}
	copy(recs[j+1:i+1], recs[j:i])
	recs[j] = rec
	if rec.key&maxTTL != 0 {
		p.fwd[at]++
	}
	p.ownMint[at] = rec.mint()
	p.newest[at] = rec.key
	p.version[at]++
}

func (p *Protocol) expirySeconds() float64 {
	return p.cfg.ExpiryCycles * p.cfg.CycleSeconds
}

// stateRecord unpacks r.
func (p *Protocol) stateRecord(r record) StateRecord {
	o := r.origin()
	return StateRecord{
		Node: o, Capacity: p.capacity[o], TotalLoadMI: r.load,
		Timestamp: p.mints[r.mint()], TTL: r.hops(),
	}
}

// AppendRSS appends node's current resource set - fresh records about OTHER
// nodes, in ascending origin order - to buf and returns the extended slice.
// The cache is in eviction order, so the records are insertion-sorted into
// origin order on the way out, at most CacheCapacity of them. Callers on
// the scheduling hot path pass a reused buffer (sliced to zero length) to
// keep the per-round view allocation-free.
func (p *Protocol) AppendRSS(node int, buf []StateRecord) []StateRecord {
	live := p.liveKey(p.engine.Now())
	start := len(buf)
	for _, r := range p.cache[node] {
		if r.key < live {
			break
		}
		if r.origin() == node {
			continue
		}
		rec := p.stateRecord(r)
		buf = append(buf, rec)
		j := len(buf) - 1
		for ; j > start && buf[j-1].Node > rec.Node; j-- {
			buf[j] = buf[j-1]
		}
		buf[j] = rec
	}
	return buf
}

// RSSSize returns |RSS(node)| without materializing records.
func (p *Protocol) RSSSize(node int) int {
	live := p.liveKey(p.engine.Now())
	n := 0
	for _, r := range p.cache[node] {
		if r.key < live {
			break
		}
		if r.origin() != node {
			n++
		}
	}
	return n
}

// IdleKnown counts RSS entries advertising an empty queue, Fig. 11(a)'s
// "number of idle-nodes known by each node". The count is memoized per
// (clock, cache-version) pair, so repeated queries within one gossip cycle
// - metric snapshots, scheduler probes - cost O(1) after the first.
func (p *Protocol) IdleKnown(node int) int {
	now := p.engine.Now()
	memo := &p.idle[node]
	if memo.valid && memo.at == now && memo.version == p.version[node] {
		return memo.count
	}
	live := p.liveKey(now)
	n := 0
	for _, r := range p.cache[node] {
		if r.key < live {
			break
		}
		if r.origin() != node && r.load == 0 {
			n++
		}
	}
	*memo = idleMemo{at: now, version: p.version[node], count: n, valid: true}
	return n
}

// Averages returns node's current estimate of the system-wide average
// capacity (MIPS) and average bandwidth (Mb/s) from the aggregation
// protocol. The estimates are plain per-node array reads refreshed once per
// epoch by the cycle loop, so the accessor is already O(1) per call.
func (p *Protocol) Averages(node int) (avgCapacity, avgBandwidth float64) {
	return p.reportCap[node], p.reportBW[node]
}

// RecordAge returns the staleness (seconds since minting) of viewer's
// cached record about origin, ok=false when viewer holds no fresh record
// (never received one, or it expired): the scheduler's information age
// about one specific node, sampled by the observability layer at dispatch.
func (p *Protocol) RecordAge(viewer, origin int) (age float64, ok bool) {
	i := indexOrigin(p.cache[viewer], origin)
	if i < 0 {
		return 0, false
	}
	age = p.engine.Now() - p.mints[p.cache[viewer][i].mint()]
	if age > p.expirySeconds() {
		return 0, false
	}
	return age, true
}

// AddLoadHint bumps the scheduler's cached record of target after it
// dispatched deltaMI of work there (Algorithm 1 line 15: "Update p_r's
// state record in RSS(p_s)"), so one scheduling round does not flood a
// single node before gossip refreshes.
func (p *Protocol) AddLoadHint(scheduler, target int, deltaMI float64) {
	if i := indexOrigin(p.cache[scheduler], target); i >= 0 {
		p.cache[scheduler][i].load += deltaMI
		p.version[scheduler]++
	}
}
