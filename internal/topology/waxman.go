// Package topology generates the wide-area network underlay the paper builds
// with the Brite tool and the Waxman model, and answers the only questions
// the scheduler ever asks of it: "what end-to-end bandwidth and latency
// connect nodes a and b?".
//
// Nodes are placed uniformly at random on a square plane; a link between two
// nodes exists with the Waxman probability alpha*exp(-d/(beta*D)) where d is
// their Euclidean distance and D the plane diagonal. Each pair draws its
// uniform first and computes d and the exponential only when the draw is
// below alpha, the most that probability can be. Per-link bandwidth is
// uniform in Table I's [0.1, 10] Mb/s range; latency grows linearly with
// distance. Disconnected components are patched by bridging closest pairs,
// so the returned network is always connected. All links sit in one block.
//
// End-to-end bandwidth between two nodes is the bottleneck of the widest
// path. We exploit the classic equivalence: the widest-path bottleneck
// between any two vertices equals the minimum-weight edge on their path in a
// MAXIMUM spanning tree. Prim grows that tree from node 0, taking the widest
// frontier node (the lowest id among ties) off an indexed heap. Its
// insertion order puts every parent before its children, so one sweep in
// that order per source fills the source's row of the bandwidth and latency
// tables: the all-pairs matrix in O(n^2) instead of n Dijkstras.
package topology

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/stats"
)

// Point is a position on the simulation plane.
type Point struct{ X, Y float64 }

// Dist returns the Euclidean distance between two points.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Link is a directed view of an undirected physical link.
type Link struct {
	To        int
	Bandwidth float64 // Mb/s
	Latency   float64 // seconds
}

// Config parameterizes Waxman generation. Zero values are replaced by
// defaults matching the paper's setting (Table I bandwidth range).
type Config struct {
	N         int     // number of nodes (required, >= 1)
	Alpha     float64 // Waxman alpha, default 0.15
	Beta      float64 // Waxman beta, default 0.25
	PlaneSize float64 // square side length, default 1000

	// BandwidthRange is the per-link capacity range, default [0.1, 10] Mb/s.
	BandwidthRange stats.Range
	// LatencyPerUnit converts plane distance to link latency (s per unit);
	// default 20us per unit (~20 ms across the plane).
	LatencyPerUnit float64

	// Compact forces the O(n) struct-of-arrays representation (see
	// compact.go). It switches on automatically above compactThreshold
	// nodes; set it to exercise the compact path at small n in tests.
	Compact bool

	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Alpha == 0 {
		c.Alpha = 0.15
	}
	if c.Beta == 0 {
		c.Beta = 0.25
	}
	if c.PlaneSize == 0 {
		c.PlaneSize = 1000
	}
	if c.BandwidthRange == (stats.Range{}) {
		c.BandwidthRange = stats.Range{Min: 0.1, Max: 10}
	}
	if c.LatencyPerUnit == 0 {
		c.LatencyPerUnit = 20e-6
	}
	return c
}

// Network is an immutable generated topology plus the all-pairs end-to-end
// bandwidth/latency tables the grid runtime consumes. Node aliveness under
// churn is tracked by the grid layer, not here: the physical network is
// fixed while peers come and go.
type Network struct {
	Cfg Config
	Pos []Point
	Adj [][]Link // nil in compact mode

	// pairBW[a*n+b] is the widest-path bottleneck bandwidth in Mb/s;
	// pairLat[a*n+b] the latency along that tree path. float32 halves the
	// footprint at n=2000 without hurting scheduling decisions.
	pairBW  []float32
	pairLat []float32

	// avgBW is the exact mean bandwidth over all ordered pairs, computed
	// once by either representation.
	avgBW float64

	// compact, when non-nil, replaces Adj and the all-pairs tables with
	// the O(n) spanning-tree representation for very large grids.
	compact *compactNet
}

// Compact reports whether the network uses the O(n) representation.
func (net *Network) Compact() bool { return net.compact != nil }

type unionFind struct{ parent, rank []int }

func newUnionFind(n int) *unionFind {
	u := &unionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range u.parent {
		u.parent[i] = i
	}
	return u
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) bool {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return false
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
	return true
}

// ErrConfig is wrapped by every error Generate returns for a Config it
// cannot build: no nodes, or a bandwidth range that lets a link draw a
// negative, infinite or NaN bandwidth, which the widest-path tree cannot
// span.
var ErrConfig = errors.New("topology: bad config")

// drawsFinite reports whether every value r.Sample can return is finite
// and non-negative: Min when Max <= Min, else values from Min up to Max.
// Comparisons with NaN are false, so a NaN end fails.
func drawsFinite(r stats.Range) bool {
	hi := r.Max
	if r.Max <= r.Min {
		hi = r.Min
	}
	return r.Min >= 0 && hi < math.Inf(1)
}

// Generate builds a connected Waxman network.
func Generate(cfg Config) (*Network, error) {
	cfg = cfg.withDefaults()
	if cfg.N < 1 {
		return nil, fmt.Errorf("%w: need at least 1 node, got %d", ErrConfig, cfg.N)
	}
	if r := cfg.BandwidthRange; !drawsFinite(r) {
		return nil, fmt.Errorf("%w: bandwidth range [%v, %v] lets a link draw a negative, infinite or NaN bandwidth",
			ErrConfig, r.Min, r.Max)
	}
	rng := stats.NewRand(cfg.Seed, 0xA1)
	n := cfg.N
	net := &Network{
		Cfg: cfg,
		Pos: make([]Point, n),
	}
	for i := range net.Pos {
		net.Pos[i] = Point{X: rng.Float64() * cfg.PlaneSize, Y: rng.Float64() * cfg.PlaneSize}
	}
	if cfg.Compact || n > compactThreshold {
		generateCompact(cfg, rng, net)
		return net, nil
	}
	diag := cfg.PlaneSize * math.Sqrt2
	// A pair links when its uniform draw u is below p = alpha*exp(-d/(beta*D)).
	// With beta*D > 0 the exponent is never positive, so p <= alpha: a draw
	// at or above alpha fails whatever d is, and the loop computes d and p
	// only below it. Any other beta*D computes them for every pair.
	cut := cfg.Alpha
	if !(cfg.Beta*diag > 0) {
		cut = math.Inf(1)
	}
	uf := newUnionFind(n)
	links := make([]linkRec, 0, n) // a connected network has at least n-1
	deg := make([]int32, n)
	addLink := func(i, j int) {
		links = append(links, linkRec{int32(i), int32(j), cfg.BandwidthRange.Sample(rng)})
		deg[i]++
		deg[j]++
		uf.union(i, j)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if u := rng.Float64(); u < cut {
				d := net.Pos[i].Dist(net.Pos[j])
				if u < cfg.Alpha*math.Exp(-d/(cfg.Beta*diag)) {
					addLink(i, j)
				}
			}
		}
	}
	net.patchConnectivity(uf, addLink)
	net.fillAdj(links, deg)
	net.computeAllPairs()
	return net, nil
}

// linkRec is one undirected link as addLink records it.
type linkRec struct {
	i, j int32
	bw   float64
}

// fillAdj lays every link out in one block, each node's links in the order
// addLink recorded them. deg holds the node degrees and is reused as the
// fill cursors.
func (net *Network) fillAdj(links []linkRec, deg []int32) {
	block := make([]Link, 2*len(links))
	next := int32(0)
	for i, d := range deg {
		deg[i] = next
		next += d
	}
	for _, l := range links {
		lat := net.Pos[l.i].Dist(net.Pos[l.j]) * net.Cfg.LatencyPerUnit
		block[deg[l.i]] = Link{To: int(l.j), Bandwidth: l.bw, Latency: lat}
		block[deg[l.j]] = Link{To: int(l.i), Bandwidth: l.bw, Latency: lat}
		deg[l.i]++
		deg[l.j]++
	}
	net.Adj = make([][]Link, len(deg))
	lo := int32(0)
	for i, hi := range deg {
		net.Adj[i] = block[lo:hi:hi]
		lo = hi
	}
}

// patchConnectivity bridges components by repeatedly linking the closest
// node pair that spans two components, keeping the Waxman locality flavor.
// Each bridge starts from the component with the smallest root id and
// takes its closest outside node: the first pair at the least distance,
// members in ascending id, then outside nodes in ascending id.
func (net *Network) patchConnectivity(uf *unionFind, addLink func(i, j int)) {
	n := len(net.Pos)
	var members []int // the bridged component, reused across bridges
	for {
		minRoot, first, split := n, uf.find(0), false
		for i := 0; i < n; i++ {
			r := uf.find(i)
			minRoot = min(minRoot, r)
			split = split || r != first
		}
		if !split {
			return
		}
		members = members[:0]
		for i := 0; i < n; i++ {
			if uf.find(i) == minRoot {
				members = append(members, i)
			}
		}
		best := math.Inf(1)
		bi, bj := -1, -1
		for _, i := range members {
			for j := 0; j < n; j++ {
				if uf.find(j) == minRoot {
					continue
				}
				if d := net.Pos[i].Dist(net.Pos[j]); d < best {
					best, bi, bj = d, i, j
				}
			}
		}
		addLink(bi, bj)
	}
}

// frontier is Prim's indexed binary heap over the nodes outside the tree
// whose best link has a non-negative bandwidth. It pops the widest node,
// the lowest id among ties: the node a scan of bestBW in id order picks.
// at[v] is v's slot in heap, or -1.
type frontier struct {
	bestBW []float64
	heap   []int32
	at     []int32
	size   int
}

func (h *frontier) before(a, b int32) bool {
	return h.bestBW[a] > h.bestBW[b] || h.bestBW[a] == h.bestBW[b] && a < b
}

// raise inserts v or moves it up after its bestBW grew.
func (h *frontier) raise(v int32) {
	i := int(h.at[v])
	if i < 0 {
		i = h.size
		h.size++
	}
	for i > 0 {
		up := (i - 1) / 2
		if !h.before(v, h.heap[up]) {
			break
		}
		h.heap[i] = h.heap[up]
		h.at[h.heap[i]] = int32(i)
		i = up
	}
	h.heap[i] = v
	h.at[v] = int32(i)
}

func (h *frontier) pop() int32 {
	top := h.heap[0]
	h.size--
	v := h.heap[h.size]
	i := 0
	for {
		c := 2*i + 1
		if c >= h.size {
			break
		}
		if c+1 < h.size && h.before(h.heap[c+1], h.heap[c]) {
			c++
		}
		if !h.before(h.heap[c], v) {
			break
		}
		h.heap[i] = h.heap[c]
		h.at[h.heap[i]] = int32(i)
		i = c
	}
	h.heap[i] = v
	h.at[v] = int32(i)
	return top
}

// computeAllPairs builds the maximum spanning tree (by bandwidth) with Prim
// from node 0, then fills each source's row of both tables in one sweep of
// the tree in Prim's insertion order, and sums the bandwidth rows into
// avgBW in row-major order.
func (net *Network) computeAllPairs() {
	n := len(net.Pos)
	net.pairBW = make([]float32, n*n)
	net.pairLat = make([]float32, n*n)
	if n == 1 {
		net.pairBW[0] = float32(math.Inf(1))
		return
	}

	// Prim relabels the nodes by insertion position: pos[v] is v's
	// position, and position k > 0 hangs off position par[k] < k by a tree
	// link of bandwidth ebw[k] and latency elat[k]. Two allocations hold
	// every scratch array, and the sweep reuses Prim's.
	fs := make([]float64, 4*n)
	bestBW, bestLat, ebw, elat := fs[:n], fs[n:2*n], fs[2*n:3*n], fs[3*n:]
	is := make([]int32, 5*n)
	bestFrom, pos, par := is[:n], is[n:2*n], is[2*n:3*n]
	h := frontier{bestBW: bestBW, heap: is[3*n : 4*n], at: is[4*n:]}
	for i := range bestBW {
		bestBW[i] = -1
		pos[i] = -1
		h.at[i] = -1
	}
	relax := func(u int32) {
		for _, l := range net.Adj[u] {
			if v := int32(l.To); pos[v] < 0 && l.Bandwidth > bestBW[v] {
				bestBW[v], bestFrom[v], bestLat[v] = l.Bandwidth, u, l.Latency
				if l.Bandwidth >= 0 {
					h.raise(v)
				}
			}
		}
	}
	pos[0] = 0
	relax(0)
	for added := 1; added < n; added++ {
		if h.size == 0 {
			// The graph is connected, so this happens only when no link
			// into the rest of it has a non-negative bandwidth.
			panic("topology: graph not connected in computeAllPairs")
		}
		v := h.pop()
		pos[v] = int32(added)
		par[added], ebw[added], elat[added] = pos[bestFrom[v]], bestBW[v], bestLat[v]
		relax(v)
	}

	// For source s, each node's values come from its tree neighbour toward
	// s through one min and one add, so they are the same bits in whatever
	// order the nodes are visited. s's ancestors take theirs from the child
	// below them and are marked with stamp s+1; every other node takes its
	// parent's, whose position precedes its own.
	accBW, accLat, mark := bestBW, bestLat, h.at
	clear(mark)
	var sum float64
	for s := 0; s < n; s++ {
		stamp := int32(s + 1)
		k := pos[s]
		accBW[k], accLat[k], mark[k] = math.Inf(1), 0, stamp
		for k != 0 {
			p := par[k]
			accBW[p], accLat[p], mark[p] = min(accBW[k], ebw[k]), accLat[k]+elat[k], stamp
			k = p
		}
		for k := 1; k < n; k++ {
			if mark[k] != stamp {
				p := par[k]
				accBW[k], accLat[k] = min(accBW[p], ebw[k]), accLat[p]+elat[k]
			}
		}
		rowBW, rowLat := net.pairBW[s*n:(s+1)*n], net.pairLat[s*n:(s+1)*n]
		for v, k := range pos {
			bw := float32(accBW[k])
			rowBW[v], rowLat[v] = bw, float32(accLat[k])
			if v != s {
				sum += float64(bw)
			}
		}
	}
	net.avgBW = sum / float64(n*(n-1))
}

// N returns the number of nodes.
func (net *Network) N() int { return len(net.Pos) }

// Bandwidth returns the end-to-end bandwidth between a and b in Mb/s. The
// self-bandwidth is +Inf: local data needs no transfer.
func (net *Network) Bandwidth(a, b int) float64 {
	if a == b {
		return math.Inf(1)
	}
	if net.compact != nil {
		bw, _ := net.compact.path(a, b)
		return bw
	}
	n := len(net.Pos)
	return float64(net.pairBW[a*n : a*n+n][b])
}

// Latency returns the end-to-end latency between a and b in seconds.
func (net *Network) Latency(a, b int) float64 {
	if a == b {
		return 0
	}
	if net.compact != nil {
		_, lat := net.compact.path(a, b)
		return lat
	}
	n := len(net.Pos)
	return float64(net.pairLat[a*n : a*n+n][b])
}

// AvgBandwidth returns the mean end-to-end bandwidth over all ordered pairs,
// the oracle value the aggregation gossip protocol estimates.
func (net *Network) AvgBandwidth() float64 {
	if net.N() < 2 {
		return net.Cfg.BandwidthRange.Mid()
	}
	return net.avgBW
}

// TransferTime returns the seconds needed to ship size Mb from a to b.
func (net *Network) TransferTime(a, b int, sizeMb float64) float64 {
	if a == b || sizeMb <= 0 {
		return 0
	}
	if net.compact != nil {
		bw, lat := net.compact.path(a, b) // one tree climb for both answers
		return sizeMb/bw + lat
	}
	return sizeMb/net.Bandwidth(a, b) + net.Latency(a, b)
}
