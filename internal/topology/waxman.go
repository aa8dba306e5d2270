// Package topology generates the wide-area network underlay the paper builds
// with the Brite tool and the Waxman model, and answers the only questions
// the scheduler ever asks of it: "what end-to-end bandwidth and latency
// connect nodes a and b?".
//
// Nodes are placed uniformly at random on a square plane; a link between two
// nodes exists with the Waxman probability alpha*exp(-d/(beta*D)) where d is
// their Euclidean distance and D the plane diagonal. Per-link bandwidth is
// uniform in Table I's [0.1, 10] Mb/s range; latency grows linearly with
// distance. Disconnected components are patched by bridging closest pairs,
// so the returned network is always connected.
//
// End-to-end bandwidth between two nodes is the bottleneck of the widest
// path. We exploit the classic equivalence: the widest-path bottleneck
// between any two vertices equals the minimum-weight edge on their path in a
// MAXIMUM spanning tree. Building one maximum spanning tree and walking it
// per source gives the all-pairs matrix in O(n^2) instead of n Dijkstras.
package topology

import (
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

	// pairBW[a][b] is the widest-path bottleneck bandwidth in Mb/s;
	// pairLat[a][b] the latency along that tree path. float32 halves the
	// footprint at n=2000 without hurting scheduling decisions.
	pairBW  [][]float32
	pairLat [][]float32

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

// Generate builds a connected Waxman network.
func Generate(cfg Config) (*Network, error) {
	cfg = cfg.withDefaults()
	if cfg.N < 1 {
		return nil, fmt.Errorf("topology: need at least 1 node, got %d", cfg.N)
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
	net.Adj = make([][]Link, n)
	diag := cfg.PlaneSize * math.Sqrt2
	uf := newUnionFind(n)
	addLink := func(i, j int) {
		bw := cfg.BandwidthRange.Sample(rng)
		lat := net.Pos[i].Dist(net.Pos[j]) * cfg.LatencyPerUnit
		net.Adj[i] = append(net.Adj[i], Link{To: j, Bandwidth: bw, Latency: lat})
		net.Adj[j] = append(net.Adj[j], Link{To: i, Bandwidth: bw, Latency: lat})
		uf.union(i, j)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := net.Pos[i].Dist(net.Pos[j])
			p := cfg.Alpha * math.Exp(-d/(cfg.Beta*diag))
			if rng.Float64() < p {
				addLink(i, j)
			}
		}
	}
	net.patchConnectivity(uf, addLink)
	net.computeAllPairs()
	return net, nil
}

// patchConnectivity bridges components by repeatedly linking the closest
// node pair that spans two components, keeping the Waxman locality flavor.
func (net *Network) patchConnectivity(uf *unionFind, addLink func(i, j int)) {
	n := len(net.Pos)
	for {
		roots := make(map[int][]int)
		for i := 0; i < n; i++ {
			r := uf.find(i)
			roots[r] = append(roots[r], i)
		}
		if len(roots) <= 1 {
			return
		}
		// Take an arbitrary-but-deterministic component (smallest root id)
		// and connect its closest outside node.
		minRoot := -1
		for r := range roots {
			if minRoot == -1 || r < minRoot {
				minRoot = r
			}
		}
		best := math.Inf(1)
		bi, bj := -1, -1
		for _, i := range roots[minRoot] {
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

// computeAllPairs builds the maximum spanning tree (by bandwidth) and, for
// each source, walks the tree accumulating bottleneck bandwidth and latency.
func (net *Network) computeAllPairs() {
	n := len(net.Pos)
	net.pairBW = make([][]float32, n)
	net.pairLat = make([][]float32, n)
	for i := range net.pairBW {
		net.pairBW[i] = make([]float32, n)
		net.pairLat[i] = make([]float32, n)
	}
	if n == 1 {
		net.pairBW[0][0] = float32(math.Inf(1))
		return
	}

	// Prim's algorithm for the MAXIMUM spanning tree over link bandwidth.
	type treeEdge struct {
		to      int
		bw, lat float64
	}
	tree := make([][]treeEdge, n)
	inTree := make([]bool, n)
	bestBW := make([]float64, n)
	bestFrom := make([]int, n)
	bestLat := make([]float64, n)
	for i := range bestBW {
		bestBW[i] = -1
		bestFrom[i] = -1
	}
	inTree[0] = true
	for _, l := range net.Adj[0] {
		if l.Bandwidth > bestBW[l.To] {
			bestBW[l.To], bestFrom[l.To], bestLat[l.To] = l.Bandwidth, 0, l.Latency
		}
	}
	for added := 1; added < n; added++ {
		pick := -1
		for v := 0; v < n; v++ {
			if !inTree[v] && bestBW[v] >= 0 && (pick == -1 || bestBW[v] > bestBW[pick]) {
				pick = v
			}
		}
		if pick == -1 {
			// Unreachable for a connected graph; guarded by generation.
			panic("topology: graph not connected in computeAllPairs")
		}
		inTree[pick] = true
		u := bestFrom[pick]
		tree[u] = append(tree[u], treeEdge{to: pick, bw: bestBW[pick], lat: bestLat[pick]})
		tree[pick] = append(tree[pick], treeEdge{to: u, bw: bestBW[pick], lat: bestLat[pick]})
		for _, l := range net.Adj[pick] {
			if !inTree[l.To] && l.Bandwidth > bestBW[l.To] {
				bestBW[l.To], bestFrom[l.To], bestLat[l.To] = l.Bandwidth, pick, l.Latency
			}
		}
	}

	// Iterative DFS from every source over the tree.
	type frame struct {
		node   int
		bottle float64
		lat    float64
	}
	stack := make([]frame, 0, n)
	visited := make([]bool, n)
	for src := 0; src < n; src++ {
		for i := range visited {
			visited[i] = false
		}
		stack = stack[:0]
		stack = append(stack, frame{node: src, bottle: math.Inf(1)})
		visited[src] = true
		for len(stack) > 0 {
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			net.pairBW[src][f.node] = float32(f.bottle)
			net.pairLat[src][f.node] = float32(f.lat)
			for _, e := range tree[f.node] {
				if !visited[e.to] {
					visited[e.to] = true
					stack = append(stack, frame{
						node:   e.to,
						bottle: math.Min(f.bottle, e.bw),
						lat:    f.lat + e.lat,
					})
				}
			}
		}
	}
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
	return float64(net.pairBW[a][b])
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
	return float64(net.pairLat[a][b])
}

// AvgBandwidth returns the mean end-to-end bandwidth over all ordered pairs,
// the oracle value the aggregation gossip protocol estimates.
func (net *Network) AvgBandwidth() float64 {
	n := net.N()
	if n < 2 {
		return net.Cfg.BandwidthRange.Mid()
	}
	if net.compact != nil {
		return net.compact.avgBW
	}
	var sum float64
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b {
				sum += float64(net.pairBW[a][b])
			}
		}
	}
	return sum / float64(n*(n-1))
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
