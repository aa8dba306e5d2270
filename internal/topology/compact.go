package topology

import (
	"math"
	"math/rand"
	"sort"
)

// compactThreshold is the node count above which Generate switches to the
// compact representation automatically: the dense mode's all-pairs tables
// cost 8*n^2 bytes (already ~134 MB at n = 4096) while the compact mode is
// O(n). The paper's experiments top out at 2000 nodes and always take the
// dense path, so published goldens are unaffected.
const compactThreshold = 4096

// compactNet is the struct-of-arrays topology used for very large grids
// (10^5..10^6 nodes). Instead of materializing a graph and its all-pairs
// tables, generation directly grows a locality-biased random spanning tree
// - each new node attaches to a Waxman-accepted earlier node - and queries
// answer from the tree:
//
//   - Bandwidth(a, b) is the bottleneck (minimum) link bandwidth on the
//     unique tree path, exactly the widest-path semantics of the dense
//     mode (a maximum spanning tree of a tree is the tree itself).
//   - Latency(a, b) is the latency sum along the same path.
//
// Every array is indexed by node id. parent[0] is -1.
type compactNet struct {
	parent []int32
	pbw    []float32 // bandwidth of the link to parent, Mb/s
	plat   []float32 // latency of the link to parent, seconds
	depth  []int32
	deg    []int32
}

// generateCompact grows the attachment tree. Node i > 0 draws up to eight
// candidate parents among earlier nodes, takes the first that passes the
// Waxman acceptance test alpha*exp(-d/(beta*D)), and falls back to the
// geometrically closest candidate when none passes - keeping the Waxman
// locality flavor (nearby nodes attach to each other) at O(1) per node.
func generateCompact(cfg Config, rng *rand.Rand, net *Network) {
	n := cfg.N
	c := &compactNet{
		parent: make([]int32, n),
		pbw:    make([]float32, n),
		plat:   make([]float32, n),
		depth:  make([]int32, n),
		deg:    make([]int32, n),
	}
	c.parent[0] = -1
	diag := cfg.PlaneSize * math.Sqrt2
	const candidates = 8
	for i := 1; i < n; i++ {
		pick, bestD := 0, math.Inf(1)
		for k := 0; k < candidates; k++ {
			j := rng.Intn(i)
			d := net.Pos[i].Dist(net.Pos[j])
			p := cfg.Alpha * math.Exp(-d/(cfg.Beta*diag))
			if rng.Float64() < p {
				pick, bestD = j, d
				break
			}
			if d < bestD {
				pick, bestD = j, d
			}
		}
		c.parent[i] = int32(pick)
		c.pbw[i] = float32(cfg.BandwidthRange.Sample(rng))
		c.plat[i] = float32(bestD * cfg.LatencyPerUnit)
		c.depth[i] = c.depth[pick] + 1
		c.deg[i]++
		c.deg[pick]++
	}
	net.avgBW = c.computeAvgBandwidth(n)
	net.compact = c
}

// path walks a and b up to their lowest common ancestor, returning the
// bottleneck bandwidth and summed latency of the connecting tree path.
func (c *compactNet) path(a, b int) (bw, lat float64) {
	bw = math.Inf(1)
	x, y := int32(a), int32(b)
	step := func(v int32) int32 {
		if lb := float64(c.pbw[v]); lb < bw {
			bw = lb
		}
		lat += float64(c.plat[v])
		return c.parent[v]
	}
	for c.depth[x] > c.depth[y] {
		x = step(x)
	}
	for c.depth[y] > c.depth[x] {
		y = step(y)
	}
	for x != y {
		x = step(x)
		y = step(y)
	}
	return bw, lat
}

// computeAvgBandwidth returns the exact mean bottleneck bandwidth over all
// ordered pairs without enumerating them: adding tree edges in descending
// bandwidth order, an edge joining components of sizes s1 and s2 is the
// bottleneck for exactly s1*s2 unordered pairs (Kruskal's maximum-spanning
// construction, which on a tree is the tree itself).
func (c *compactNet) computeAvgBandwidth(n int) float64 {
	if n < 2 {
		return 0
	}
	order := make([]int32, 0, n-1)
	for i := int32(1); i < int32(n); i++ {
		order = append(order, i)
	}
	// Sort edge ids (edge i = link i->parent[i]) by descending bandwidth;
	// ties by node id for determinism.
	sort.Slice(order, func(x, y int) bool {
		a, b := order[x], order[y]
		if c.pbw[a] != c.pbw[b] {
			return c.pbw[a] > c.pbw[b]
		}
		return a < b
	})
	uf := newUnionFind(n)
	size := make([]int64, n)
	for i := range size {
		size[i] = 1
	}
	var sum float64
	for _, e := range order {
		ra, rb := uf.find(int(e)), uf.find(int(c.parent[e]))
		s1, s2 := size[ra], size[rb]
		uf.union(ra, rb)
		r := uf.find(ra)
		size[r] = s1 + s2
		sum += float64(c.pbw[e]) * float64(s1*s2) * 2
	}
	return sum / float64(int64(n)*int64(n-1))
}
