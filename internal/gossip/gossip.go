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
// O(log n) entries. It is kept in eviction order - timestamp descending,
// ties to the higher origin - so a push, the simulator's hottest loop
// (fan-out pushes per node per cycle), is one merge of two ordered caches
// that keeps the first copy of each origin and stops as soon as the
// receiver is full: the records it never reaches are exactly the stalest
// ones a capacity eviction would drop, so they are never written. Readers
// see origin order: AppendRSS sorts its at most CacheCapacity records on
// the way out. A node's neighbor draw touches O(fan-out²) positions
// instead of listing all n, so one cycle costs O(n log² n).
package gossip

import (
	"fmt"
	"math"
	"math/rand"

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

// NodeState is the live local state the protocol reads from the grid layer
// at every cycle.
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

	// Workers spreads each cycle's push work over this many goroutines
	// using the deterministic dependency-ordered executor in parallel.go.
	// Values <= 1 keep the fully serial loop. Every worker count produces
	// bit-identical caches, estimates and traffic counters: the parallel
	// path replays the exact serial per-node operation order.
	Workers int
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

// idleMemo caches one IdleKnown answer per node. A cached count stays valid
// while the simulated clock and the cache version are unchanged: expiry
// depends only on the clock, and every mutation bumps the version. Metric
// snapshots that sample many statistics at one instant hit the memo after
// the first count of a gossip cycle.
type idleMemo struct {
	at      float64
	version uint32
	count   int
	valid   bool
}

// Clock is the engine surface the protocol needs: the simulated time and
// periodic scheduling. sim.Engine satisfies it. A gossip cycle is one
// event; its internal parallelism is the protocol's own (see
// Config.Workers), sized from the engine's shard count by the grid.
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

	// cache[i] is node i's RSS: at most one record per origin, in eviction
	// order (strictly decreasing by Timestamp, then Node), so expired
	// records form its tail. Every slice has capacity CacheCapacity+1: at
	// most CacheCapacity records after a push, plus the owner's own record
	// merged in between pushes. fwd[i] counts cache[i]'s records with hops
	// left (TTL > 0), expired ones included, and ownTS[i] is the timestamp
	// of node i's own record in cache[i], -Inf when it holds none.
	cache     [][]StateRecord
	fwd       []int32
	ownTS     []float64
	version   []uint32    // bumped on every cache[i] mutation
	idle      []idleMemo  // per-node IdleKnown memo
	sampleBuf []int       // reused by the cycle's neighbor draws
	scratch   pushScratch // the serial cycle's push scratch

	// Aggregation state (push-pull averaging with epoch restarts).
	estCap     []float64 // in-progress capacity estimate
	estBW      []float64
	reportCap  []float64 // last converged (previous epoch) values
	reportBW   []float64
	cycleCount int

	// par holds the parallel-cycle executor's reusable state (op lists,
	// progress counters, per-worker scratch); nil until the first parallel
	// cycle. See parallel.go.
	par *parallelCycle

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
	if cfg.N <= 0 {
		return nil, fmt.Errorf("gossip: need positive N, got %d", cfg.N)
	}
	if local == nil {
		return nil, fmt.Errorf("gossip: nil LocalState")
	}
	p := &Protocol{
		cfg:       cfg,
		engine:    engine,
		local:     local,
		rng:       stats.NewRand(cfg.Seed, 0xC3),
		cache:     make([][]StateRecord, cfg.N),
		fwd:       make([]int32, cfg.N),
		ownTS:     make([]float64, cfg.N),
		version:   make([]uint32, cfg.N),
		idle:      make([]idleMemo, cfg.N),
		sampleBuf: make([]int, 0, 3*cfg.FanOut),
		estCap:    make([]float64, cfg.N),
		estBW:     make([]float64, cfg.N),
		reportCap: make([]float64, cfg.N),
		reportBW:  make([]float64, cfg.N),
	}
	stride := cfg.CacheCapacity + 1
	backing := make([]StateRecord, cfg.N*stride)
	for i := range p.cache {
		p.cache[i] = backing[i*stride : i*stride : (i+1)*stride]
		p.ownTS[i] = math.Inf(-1)
	}
	p.scratch = newPushScratch(cfg.N, stride)
	for i := 0; i < cfg.N; i++ {
		s := local.Snapshot(i)
		p.estCap[i], p.estBW[i] = s.Capacity, s.AvgBandwidthObs
		p.reportCap[i], p.reportBW[i] = s.Capacity, s.AvgBandwidthObs
	}
	return p, nil
}

// Config returns the effective (defaulted) configuration.
func (p *Protocol) Config() Config { return p.cfg }

// Start schedules the periodic cycle. A small deterministic per-node jitter
// spreads work inside each cycle as real gossip clocks would.
func (p *Protocol) Start(at float64) {
	p.engine.Every(at, p.cfg.CycleSeconds, func(now float64) { p.cycle(now) })
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
			p.estCap[i], p.estBW[i] = s.Capacity, s.AvgBandwidthObs
		}
	}
	if p.cfg.Workers > 1 {
		p.cycleParallel(now)
		return
	}
	for i := 0; i < p.cfg.N; i++ {
		s := p.local.Snapshot(i)
		if !s.Alive {
			continue
		}
		// Refresh own record and push to fan-out random targets.
		own := StateRecord{
			Node: i, Capacity: s.Capacity, TotalLoadMI: s.TotalLoadMI,
			Timestamp: now, TTL: p.cfg.TTL,
		}
		p.merge(i, own, now)
		targets := stats.SampleWithoutInto(p.rng, p.cfg.N, p.cfg.FanOut, i, p.sampleBuf)
		for _, t := range targets {
			if !p.local.Snapshot(t).Alive {
				continue
			}
			p.push(i, t, now)
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
}

// pushScratch is one pusher's reusable state: a spare cache slot the merge
// writes into before it trades places with the receiver's cache, and
// per-origin stamps marking the origins the current merge has placed.
type pushScratch struct {
	spare []StateRecord
	seen  []uint32
	seq   uint32
}

func newPushScratch(n, stride int) pushScratch {
	return pushScratch{spare: make([]StateRecord, 0, stride), seen: make([]uint32, n)}
}

// push sends node from's whole cache (records with hops left) to node to.
// The cycle never pushes a node to itself, so src and dst never alias.
func (p *Protocol) push(from, to int, now float64) {
	p.MessagesSent++
	p.BytesSent += p.pushInto(from, to, now, &p.scratch)
}

// pushInto is push's body over caller-owned scratch, returning the bytes
// sent. The parallel executor calls it with per-worker scratch and
// accumulates the traffic counters itself; the serial path wraps it in push.
//
// Both caches are in eviction order, so the receiver's new cache is one
// merge of the two in that order. A forwarded record (one with hops left)
// spends a hop; the first copy of an origin the merge reaches is its
// freshest, and when both sides hold the same minting the copy with more
// hops left wins, the receiver's on a tie (fresher). The owner's record is
// always kept; of the rest, the merge keeps the first CacheCapacity, or one
// fewer when the owner's record is in the merged view, and stops there:
// everything after is what evicting the stalest records, ties to the lower
// origin, would drop. The merge writes into s.spare, which then trades
// places with the receiver's cache.
func (p *Protocol) pushInto(from, to int, now float64, s *pushScratch) uint64 {
	expiry := p.expirySeconds()
	src := liveHead(p.cache[from], now, expiry)
	dst := liveHead(p.cache[to], now, expiry)

	// Whether the owner's record is in the merged view decides the room
	// left for the others. The receiver's own copy settles it unless that
	// is missing or expired; then only a forwarded copy can bring it.
	ownPending := now-p.ownTS[to] <= expiry
	if !ownPending {
		for i := range src {
			if src[i].Node == to {
				ownPending = src[i].TTL > 0
				break
			}
		}
	}
	room := p.cfg.CacheCapacity
	if ownPending {
		room--
	}

	if s.seq++; s.seq == 0 {
		clear(s.seen)
		s.seq = 1
	}
	seen, seq := s.seen, s.seq
	out := s.spare[:0]
	var fwd int32
	ownTS := math.Inf(-1)
	si, di := 0, 0
	for (room > 0 || ownPending) && (si < len(src) || di < len(dst)) {
		var r *StateRecord
		hop := 0 // 1 when r is a forwarded copy, which spends a hop
		switch {
		case si < len(src) && src[si].TTL <= 0:
			si++ // no hops left: not forwarded
			continue
		case di == len(dst):
			r, hop = &src[si], 1
			si++
		case si == len(src):
			r = &dst[di]
			di++
		default:
			sr, dr := &src[si], &dst[di]
			switch {
			case before(sr, dr):
				r, hop = sr, 1
				si++
			case sr.Node != dr.Node || sr.Timestamp != dr.Timestamp:
				r = dr // dr comes before sr
				di++
			default:
				// The same origin and minting on both sides.
				r = dr
				if sr.TTL-1 > dr.TTL {
					r, hop = sr, 1
				}
				si++
				di++
			}
		}
		node := r.Node
		if seen[node] == seq {
			continue // a fresher copy of this origin is already placed
		}
		if node == to {
			ownPending = false
			ownTS = r.Timestamp
		} else if room == 0 {
			continue // full: only the owner's record can still enter
		} else {
			room--
		}
		seen[node] = seq
		out = append(out, *r)
		if out[len(out)-1].TTL -= hop; out[len(out)-1].TTL > 0 {
			fwd++
		}
	}
	p.cache[to], s.spare = out, p.cache[to][:0]
	p.fwd[to], p.ownTS[to] = fwd, ownTS
	p.version[to]++
	return uint64(p.fwd[from]) * MessageBytes
}

// liveHead returns recs without its expired tail.
func liveHead(recs []StateRecord, now, expiry float64) []StateRecord {
	n := len(recs)
	for n > 0 && now-recs[n-1].Timestamp > expiry {
		n--
	}
	return recs[:n]
}

// before reports whether a precedes b in eviction order: the later mint
// first, and among equal mints the higher origin. Eviction takes records
// from the back.
func before(a, b *StateRecord) bool {
	return a.Timestamp > b.Timestamp || (a.Timestamp == b.Timestamp && a.Node > b.Node)
}

// indexOrigin returns the position of origin's record in recs, or -1.
func indexOrigin(recs []StateRecord, origin int) int {
	for i := range recs {
		if recs[i].Node == origin {
			return i
		}
	}
	return -1
}

// fresher reports whether record a supersedes record b about the same
// origin: a later mint time wins, and among equal mints the copy with more
// forwarding hops left. Both of the protocol's install paths (merge and
// push's ordered merge) share this single definition.
func fresher(a, b StateRecord) bool {
	return a.Timestamp > b.Timestamp ||
		(a.Timestamp == b.Timestamp && a.TTL > b.TTL)
}

// merge keeps the freshest record per origin, in eviction order.
func (p *Protocol) merge(at int, rec StateRecord, now float64) {
	if now-rec.Timestamp > p.expirySeconds() {
		return
	}
	recs := p.cache[at]
	i := indexOrigin(recs, rec.Node)
	switch {
	case i < 0:
		i = len(recs)
		recs = append(recs, rec)
		p.cache[at] = recs
	case fresher(rec, recs[i]):
		if recs[i].TTL > 0 {
			p.fwd[at]--
		}
	default:
		return
	}
	// Move rec forward from i to its place: a new origin was appended at
	// i, and a fresher copy sorts no later than the one it replaces.
	j := 0
	for j < i && before(&recs[j], &rec) {
		j++
	}
	copy(recs[j+1:i+1], recs[j:i])
	recs[j] = rec
	if rec.TTL > 0 {
		p.fwd[at]++
	}
	if rec.Node == at {
		p.ownTS[at] = rec.Timestamp
	}
	p.version[at]++
}

func (p *Protocol) expirySeconds() float64 {
	return p.cfg.ExpiryCycles * p.cfg.CycleSeconds
}

// AppendRSS appends node's current resource set - fresh records about OTHER
// nodes, in ascending origin order - to buf and returns the extended slice.
// The cache is in eviction order, so the records are insertion-sorted into
// origin order on the way out, at most CacheCapacity of them. Callers on
// the scheduling hot path pass a reused buffer (sliced to zero length) to
// keep the per-round view allocation-free.
func (p *Protocol) AppendRSS(node int, buf []StateRecord) []StateRecord {
	now := p.engine.Now()
	start := len(buf)
	for _, rec := range liveHead(p.cache[node], now, p.expirySeconds()) {
		if rec.Node == node {
			continue
		}
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
	now := p.engine.Now()
	n := 0
	for _, rec := range p.cache[node] {
		if rec.Node != node && now-rec.Timestamp <= p.expirySeconds() {
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
	n := 0
	for _, rec := range p.cache[node] {
		if rec.Node != node && now-rec.Timestamp <= p.expirySeconds() && rec.TotalLoadMI == 0 {
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
	age = p.engine.Now() - p.cache[viewer][i].Timestamp
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
		p.cache[scheduler][i].TotalLoadMI += deltaMI
		p.version[scheduler]++
	}
}
