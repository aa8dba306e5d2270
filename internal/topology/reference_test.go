package topology

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/stats"
)

// refNetwork is the dense network the one-pass build replaced, kept as the
// reference it must match: per-node adjacency slices grown by append,
// per-row pair tables, and the O(n^2) average over them.
type refNetwork struct {
	Cfg     Config
	Pos     []Point
	Adj     [][]Link
	pairBW  [][]float32
	pairLat [][]float32
}

// refGenerate is the dense path of Generate as it was: the Waxman test
// prices every pair, addLink appends to both nodes' slices, and
// computeAllPairs runs an O(n^2) Prim and one DFS per source.
func refGenerate(cfg Config) (*refNetwork, error) {
	cfg = cfg.withDefaults()
	if cfg.N < 1 {
		return nil, fmt.Errorf("topology: need at least 1 node, got %d", cfg.N)
	}
	rng := stats.NewRand(cfg.Seed, 0xA1)
	n := cfg.N
	net := &refNetwork{
		Cfg: cfg,
		Pos: make([]Point, n),
	}
	for i := range net.Pos {
		net.Pos[i] = Point{X: rng.Float64() * cfg.PlaneSize, Y: rng.Float64() * cfg.PlaneSize}
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
	refPatchConnectivity(net.Pos, uf, addLink)
	net.computeAllPairs()
	return net, nil
}

// refPatchConnectivity is patchConnectivity as it was, rebuilding a map of
// every component, a slice per component, for each bridge.
func refPatchConnectivity(pos []Point, uf *unionFind, addLink func(i, j int)) {
	n := len(pos)
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
				if d := pos[i].Dist(pos[j]); d < best {
					best, bi, bj = d, i, j
				}
			}
		}
		addLink(bi, bj)
	}
}

// computeAllPairs builds the maximum spanning tree (by bandwidth) and, for
// each source, walks the tree accumulating bottleneck bandwidth and latency.
func (net *refNetwork) computeAllPairs() {
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

// avgBandwidth is the O(n^2) row-major mean the dense AvgBandwidth summed
// on every call.
func (net *refNetwork) avgBandwidth() float64 {
	n := len(net.Pos)
	if n < 2 {
		return net.Cfg.BandwidthRange.Mid()
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

// generateBoth builds cfg with Generate and refGenerate. A panic in either
// is returned as its message, so a build that panics matches only a
// reference that panics the same way.
func generateBoth(cfg Config) (got *Network, want *refNetwork, gotPanic, wantPanic string) {
	wantPanic = catchPanic(func() { want, _ = refGenerate(cfg) })
	gotPanic = catchPanic(func() { got, _ = Generate(cfg) })
	return got, want, gotPanic, wantPanic
}

// catchPanic runs build and returns its panic's message, or "".
func catchPanic(build func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	build()
	return ""
}

// diffReference returns the first difference between a network and the
// reference build of the same config: positions, every adjacency list in
// order, both pair tables and the average, all by their bits.
func diffReference(got *Network, want *refNetwork) error {
	n := len(want.Pos)
	if got.N() != n {
		return fmt.Errorf("%d nodes, reference %d", got.N(), n)
	}
	for i := 0; i < n; i++ {
		if got.Pos[i] != want.Pos[i] {
			return fmt.Errorf("Pos[%d] = %v, reference %v", i, got.Pos[i], want.Pos[i])
		}
		g, w := got.Adj[i], want.Adj[i]
		if len(g) != len(w) {
			return fmt.Errorf("node %d has %d links, reference %d", i, len(g), len(w))
		}
		for k := range w {
			if g[k].To != w[k].To ||
				math.Float64bits(g[k].Bandwidth) != math.Float64bits(w[k].Bandwidth) ||
				math.Float64bits(g[k].Latency) != math.Float64bits(w[k].Latency) {
				return fmt.Errorf("Adj[%d][%d] = %+v, reference %+v", i, k, g[k], w[k])
			}
		}
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			gb, gl := got.pairBW[a*n+b], got.pairLat[a*n+b]
			wb, wl := want.pairBW[a][b], want.pairLat[a][b]
			if math.Float32bits(gb) != math.Float32bits(wb) || math.Float32bits(gl) != math.Float32bits(wl) {
				return fmt.Errorf("pair (%d,%d) = (%v, %v), reference (%v, %v)", a, b, gb, gl, wb, wl)
			}
		}
	}
	if g, w := got.AvgBandwidth(), want.avgBandwidth(); math.Float64bits(g) != math.Float64bits(w) {
		return fmt.Errorf("AvgBandwidth = %v, reference %v", g, w)
	}
	return nil
}

func TestGenerateMatchesReference(t *testing.T) {
	type tc struct {
		n     int
		seed  int64
		alpha float64
		bw    stats.Range
	}
	var cases []tc
	// Alpha 0 takes the default 0.15; at -1 no pair passes the Waxman test
	// and patchConnectivity lays every link.
	for _, n := range []int{1, 2, 3, 5, 17, 32, 60, 150} {
		for _, seed := range []int64{1, 7, 2010} {
			for _, alpha := range []float64{0, 0.5, 2, -1} {
				cases = append(cases, tc{n, seed, alpha, stats.Range{}})
			}
		}
	}
	// With every bandwidth tied, only Prim's tie order decides the tree,
	// and with it every latency.
	for _, n := range []int{2, 17, 60, 150, 400} {
		for _, seed := range []int64{3, 11} {
			cases = append(cases, tc{n, seed, 0, stats.Range{Min: 5, Max: 5}})
		}
	}
	cases = append(cases, tc{1000, 42, 0, stats.Range{}}, tc{2000, 5, 0, stats.Range{}})
	for _, c := range cases {
		cfg := Config{N: c.n, Seed: c.seed, Alpha: c.alpha, BandwidthRange: c.bw}
		got, want, gotPanic, wantPanic := generateBoth(cfg)
		if gotPanic != "" || wantPanic != "" {
			t.Fatalf("%+v: panics %q, reference %q", cfg, gotPanic, wantPanic)
		}
		if err := diffReference(got, want); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
	}
}

// TestAllPairsSumOrder builds the pair tables of a hand-made path whose
// sums depend on their order. Its latency sums round to different float32
// values in the two directions: from node 0, 1+2^-24 absorbs each 2^-53
// and rounds down to 1; from node 3, the two 2^-53 add up first and tip
// 1+2^-24 up to 1+2^-23. Only a sweep that adds each source's path outward
// from the source, as the reference walk does, matches both rows. Its
// bandwidths, 2^53 then 1 and 1, make the mean's bits depend on the order
// of its sum: in row-major order each 1 meets a partial sum of at least
// 2^53 and rounds away, while the rows in reverse keep 8 of them.
func TestAllPairsSumOrder(t *testing.T) {
	// Link i joins nodes i and i+1.
	bw := []float64{0x1p53, 1, 1}
	lat := []float64{1 + 0x1p-24, 0x1p-53, 0x1p-53}
	adj := make([][]Link, len(lat)+1)
	for i := range lat {
		adj[i] = append(adj[i], Link{To: i + 1, Bandwidth: bw[i], Latency: lat[i]})
		adj[i+1] = append(adj[i+1], Link{To: i, Bandwidth: bw[i], Latency: lat[i]})
	}
	got := &Network{Pos: make([]Point, len(adj)), Adj: adj}
	want := &refNetwork{Pos: got.Pos, Adj: adj}
	got.computeAllPairs()
	want.computeAllPairs()
	if l03, l30 := want.pairLat[0][3], want.pairLat[3][0]; l03 != 1 || l30 != 1+0x1p-23 {
		t.Fatalf("reference latencies (%v, %v), want the two roundings (1, 1+2^-23)", l03, l30)
	}
	if avg := want.avgBandwidth(); avg != 0x1p54/12 {
		t.Fatalf("reference mean %v, want 2^54/12", avg)
	}
	if err := diffReference(got, want); err != nil {
		t.Fatal(err)
	}
}

// FuzzGenerate pins the one-pass build to the reference on any Waxman
// parameters and bandwidth range, NaN, infinite, negative and degenerate
// ranges included. A range that lets a link draw a negative, infinite or
// NaN bandwidth (stats.Range.Sample returns Min when Max <= Min, else
// values from Min up to Max) must fail with ErrConfig and never panic;
// every other config must build what the reference builds, bit for bit.
func FuzzGenerate(f *testing.F) {
	f.Add(uint16(60), int64(1), 0.15, 0.25, 0.1, 10.0)
	f.Fuzz(func(t *testing.T, n uint16, seed int64, alpha, beta, bwMin, bwMax float64) {
		cfg := Config{
			N: 1 + int(n%300), Seed: seed, Alpha: alpha, Beta: beta,
			BandwidthRange: stats.Range{Min: bwMin, Max: bwMax},
		}
		lo, hi := bwMin, bwMax
		if hi <= lo {
			hi = lo
		}
		if lo == 0 && bwMax == 0 {
			lo, hi = 0.1, 10 // the zero range takes the default
		}
		if !(lo >= 0) || !(hi < math.Inf(1)) {
			var err error
			if msg := catchPanic(func() { _, err = Generate(cfg) }); msg != "" {
				t.Fatalf("%+v: panic %q, want ErrConfig", cfg, msg)
			}
			if !errors.Is(err, ErrConfig) {
				t.Fatalf("%+v: error %v, want ErrConfig", cfg, err)
			}
			return
		}
		got, want, gotPanic, wantPanic := generateBoth(cfg)
		if gotPanic != "" || wantPanic != "" {
			t.Fatalf("%+v: panics %q, reference %q", cfg, gotPanic, wantPanic)
		}
		if err := diffReference(got, want); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
	})
}
