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
// The per-node cache is a slice sorted by origin id, not a map: the RSS
// bound keeps it at O(log n) entries, so ordered insertion and in-place
// compaction beat map churn by a wide margin in the simulator's hottest
// loop (push/merge/evict run fan-out times per node per cycle), and the
// sorted order makes RSS() allocation-free for callers that bring a buffer.
// Eviction picks its victims by timestamp layer, a few linear passes over
// the merged view instead of a sort, and a node's neighbor draw touches
// O(fan-out²) positions instead of listing all n, so one cycle costs
// O(n log² n).
package gossip

import (
	"fmt"
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

	// cache[i] is node i's RSS: at most one record per origin, sorted by
	// ascending origin id. All n slices share one preallocated backing
	// array; push-time overshoot happens in mergeBuf, so the slices never
	// outgrow their stride.
	cache     [][]StateRecord
	version   []uint32      // bumped on every cache[i] mutation
	idle      []idleMemo    // per-node IdleKnown memo
	sampleBuf []int         // reused by the cycle's neighbor draws
	mergeBuf  []StateRecord // reused by push's sorted-merge

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
		version:   make([]uint32, cfg.N),
		idle:      make([]idleMemo, cfg.N),
		sampleBuf: make([]int, 0, 3*cfg.FanOut),
		estCap:    make([]float64, cfg.N),
		estBW:     make([]float64, cfg.N),
		reportCap: make([]float64, cfg.N),
		reportBW:  make([]float64, cfg.N),
	}
	// A cache holds at most CacheCapacity records after eviction, plus one
	// own-record insert between pushes; transient push overshoot lives in
	// mergeBuf, never in the per-node slices.
	stride := cfg.CacheCapacity + 1
	backing := make([]StateRecord, cfg.N*stride)
	for i := range p.cache {
		p.cache[i] = backing[i*stride : i*stride : (i+1)*stride]
	}
	p.mergeBuf = make([]StateRecord, 0, 2*stride)
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

// push sends node from's whole cache (records with hops left) to node to.
// Both caches are sorted by origin, so the receive side is one linear
// sorted-merge into a scratch buffer - no per-record binary search, no
// insertion shifting - with freshness expiry folded in; the capacity
// eviction then takes a few more linear passes over the merged view. The
// cycle never pushes a node to itself, so src and dst never alias.
func (p *Protocol) push(from, to int, now float64) {
	p.MessagesSent++
	var bytes uint64
	p.mergeBuf, bytes = p.pushInto(from, to, now, p.mergeBuf)
	p.BytesSent += bytes
}

// pushInto is push's body over a caller-owned merge buffer, returning the
// (possibly grown) buffer and the bytes sent. The parallel executor calls
// it with per-worker buffers and accumulates the traffic counters itself;
// the serial path wraps it in push.
func (p *Protocol) pushInto(from, to int, now float64, buf []StateRecord) ([]StateRecord, uint64) {
	src, dst := p.cache[from], p.cache[to]
	expiry := p.expirySeconds()
	out := buf[:0]
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
	p.evict(to, out)
	return out, bytes
}

// evict enforces the cache capacity bound on the merged view and installs
// it as node to's cache, reusing the preallocated backing array. The
// victims are the over = len(out) - CacheCapacity stalest records, ties to
// the lowest index (the lowest origin); the node's own record is always
// kept. They are taken in whole timestamp layers, stalest first, and the
// layer that would overshoot gives up only its lowest indices: the same set
// as sorting every eligible record by (timestamp, index) and taking the
// first over. Records are minted only at cycle instants and expire after
// ExpiryCycles, so a merged view spans at most ExpiryCycles+1 layers and
// each layer costs two linear passes (O(len*over) for arbitrary
// timestamps). Victims are marked with a negative TTL sentinel (live
// records never go below zero) and dropped in one compaction pass.
func (p *Protocol) evict(to int, out []StateRecord) {
	for over := len(out) - p.cfg.CacheCapacity; over > 0; {
		// The stalest layer still standing: its timestamp and size.
		var ts float64
		size := 0
		for i := range out {
			r := &out[i]
			switch {
			case r.Node == to || r.TTL < 0:
				// The owner's record, or a victim already marked.
			case size == 0 || r.Timestamp < ts:
				ts, size = r.Timestamp, 1
			case r.Timestamp == ts:
				size++
			}
		}
		if size == 0 {
			break // only the owner's record is left
		}
		take := min(size, over)
		over -= take
		for i := 0; i < len(out) && take > 0; i++ {
			if r := &out[i]; r.Node != to && r.TTL >= 0 && r.Timestamp == ts {
				r.TTL = -1
				take--
			}
		}
	}
	dst := p.cache[to][:0]
	for i := range out {
		if out[i].TTL >= 0 {
			dst = append(dst, out[i])
		}
	}
	p.cache[to] = dst
	p.version[to]++
}

// findOrigin locates origin in recs (sorted by Node). It returns the
// matching index, or the insertion position with found == false.
func findOrigin(recs []StateRecord, origin int) (idx int, found bool) {
	lo, hi := 0, len(recs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if recs[mid].Node < origin {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(recs) && recs[lo].Node == origin
}

// fresher reports whether record a supersedes record b about the same
// origin: a later mint time wins, and among equal mints the copy with more
// forwarding hops left. Both of the protocol's install paths (merge and
// push's sorted-merge) share this single definition.
func fresher(a, b StateRecord) bool {
	return a.Timestamp > b.Timestamp ||
		(a.Timestamp == b.Timestamp && a.TTL > b.TTL)
}

// merge keeps the freshest record per origin, inserting in origin order.
func (p *Protocol) merge(at int, rec StateRecord, now float64) {
	if now-rec.Timestamp > p.expirySeconds() {
		return
	}
	recs := p.cache[at]
	i, ok := findOrigin(recs, rec.Node)
	if ok {
		if fresher(rec, recs[i]) {
			recs[i] = rec
			p.version[at]++
		}
		return
	}
	recs = append(recs, StateRecord{})
	copy(recs[i+1:], recs[i:])
	recs[i] = rec
	p.cache[at] = recs
	p.version[at]++
}

func (p *Protocol) expirySeconds() float64 {
	return p.cfg.ExpiryCycles * p.cfg.CycleSeconds
}

// AppendRSS appends node's current resource set - fresh records about OTHER
// nodes, in ascending origin order - to buf and returns the extended slice.
// Callers on the scheduling hot path pass a reused buffer (sliced to zero
// length) to keep the per-round view allocation-free.
func (p *Protocol) AppendRSS(node int, buf []StateRecord) []StateRecord {
	now := p.engine.Now()
	for _, rec := range p.cache[node] {
		if rec.Node == node || now-rec.Timestamp > p.expirySeconds() {
			continue
		}
		buf = append(buf, rec)
	}
	return buf
}

// RSS returns node's current resource set in a fresh slice. This is the
// RSS(p_s) the first-phase scheduler iterates over; hot-path callers should
// prefer AppendRSS with a reused buffer.
func (p *Protocol) RSS(node int) []StateRecord {
	return p.AppendRSS(node, make([]StateRecord, 0, len(p.cache[node])))
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

// MeanRecordAge returns the average staleness (seconds since minting) of
// node's fresh RSS records - the information-quality metric behind the
// scheduler's estimation error under churn. Returns 0 for an empty view.
func (p *Protocol) MeanRecordAge(node int) float64 {
	now := p.engine.Now()
	var sum float64
	n := 0
	for _, rec := range p.cache[node] {
		if rec.Node == node || now-rec.Timestamp > p.expirySeconds() {
			continue
		}
		sum += now - rec.Timestamp
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// RecordAge returns the staleness (seconds since minting) of viewer's
// cached record about origin, ok=false when viewer holds no fresh record
// (never received one, or it expired). This is the per-decision
// counterpart of MeanRecordAge: the scheduler's information age about
// one specific node, sampled by the observability layer at dispatch.
func (p *Protocol) RecordAge(viewer, origin int) (age float64, ok bool) {
	i, ok := findOrigin(p.cache[viewer], origin)
	if !ok {
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
	if i, ok := findOrigin(p.cache[scheduler], target); ok {
		p.cache[scheduler][i].TotalLoadMI += deltaMI
		p.version[scheduler]++
	}
}
