// Package graph provides the weighted-digraph machinery the routing
// protocols and topology generators are built on: adjacency storage,
// Dijkstra shortest paths, breadth-first search, connected components and a
// union-find structure used for partition detection and repair.
package graph

import (
	"fmt"
	"math"
	"sort"
)

// Inf is the distance reported for unreachable nodes.
const Inf = math.MaxInt64 / 4

// Edge is a directed, weighted edge.
type Edge struct {
	To     int
	Weight int64
}

// Graph is a directed weighted graph over nodes 0..N-1. The zero value is
// an empty graph; grow it with EnsureNode or AddEdge.
type Graph struct {
	adj [][]Edge
}

// New returns a graph with n isolated nodes.
func New(n int) *Graph {
	return &Graph{adj: make([][]Edge, n)}
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.adj) }

// EnsureNode grows the graph so node id exists.
func (g *Graph) EnsureNode(id int) {
	for len(g.adj) <= id {
		g.adj = append(g.adj, nil)
	}
}

// AddEdge inserts a directed edge. Parallel edges are allowed; shortest-path
// routines use the cheapest.
func (g *Graph) AddEdge(from, to int, w int64) {
	if w < 0 {
		panic(fmt.Sprintf("graph: negative weight %d", w))
	}
	g.EnsureNode(from)
	g.EnsureNode(to)
	g.adj[from] = append(g.adj[from], Edge{To: to, Weight: w})
}

// AddBiEdge inserts the edge in both directions with the same weight.
func (g *Graph) AddBiEdge(a, b int, w int64) {
	g.AddEdge(a, b, w)
	g.AddEdge(b, a, w)
}

// Neighbors returns the out-edges of node id. The returned slice is owned
// by the graph and must not be modified.
func (g *Graph) Neighbors(id int) []Edge {
	if id < 0 || id >= len(g.adj) {
		return nil
	}
	return g.adj[id]
}

// HasEdge reports whether a direct edge from→to exists.
func (g *Graph) HasEdge(from, to int) bool {
	for _, e := range g.Neighbors(from) {
		if e.To == to {
			return true
		}
	}
	return false
}

// RemoveEdge deletes all direct edges from→to. It reports whether any
// existed.
func (g *Graph) RemoveEdge(from, to int) bool {
	if from < 0 || from >= len(g.adj) {
		return false
	}
	out := g.adj[from][:0]
	removed := false
	for _, e := range g.adj[from] {
		if e.To == to {
			removed = true
			continue
		}
		out = append(out, e)
	}
	g.adj[from] = out
	return removed
}

// RemoveBiEdge deletes the edge in both directions.
func (g *Graph) RemoveBiEdge(a, b int) bool {
	ra := g.RemoveEdge(a, b)
	rb := g.RemoveEdge(b, a)
	return ra || rb
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	c := New(len(g.adj))
	for i, es := range g.adj {
		c.adj[i] = append([]Edge(nil), es...)
	}
	return c
}

// SPT is a single-source shortest-path tree.
type SPT struct {
	Source string // descriptive only
	Dist   []int64
	Parent []int // -1 for source and unreachable nodes
	src    int
}

// Dijkstra computes the shortest-path tree from src. Ties are broken toward
// the lower-numbered parent so results are deterministic.
func (g *Graph) Dijkstra(src int) *SPT {
	n := len(g.adj)
	dist := make([]int64, n)
	parent := make([]int, n)
	for i := range dist {
		dist[i] = Inf
		parent[i] = -1
	}
	if src < 0 || src >= n {
		return &SPT{Dist: dist, Parent: parent, src: src}
	}
	dist[src] = 0
	h := &heap{}
	h.push(item{node: src, dist: 0})
	done := make([]bool, n)
	for h.len() > 0 {
		it := h.pop()
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		for _, e := range g.adj[u] {
			nd := dist[u] + e.Weight
			if nd < dist[e.To] || (nd == dist[e.To] && parent[e.To] > u) {
				dist[e.To] = nd
				parent[e.To] = u
				h.push(item{node: e.To, dist: nd})
			}
		}
	}
	return &SPT{Dist: dist, Parent: parent, src: src}
}

// PathTo reconstructs the node sequence src..dst, or nil if unreachable.
func (t *SPT) PathTo(dst int) []int {
	if dst < 0 || dst >= len(t.Dist) || t.Dist[dst] >= Inf {
		return nil
	}
	var rev []int
	for v := dst; v != -1; v = t.Parent[v] {
		rev = append(rev, v)
		if v == t.src {
			break
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// NextHop returns the first hop from the source toward dst, or -1.
func (t *SPT) NextHop(dst int) int {
	p := t.PathTo(dst)
	if len(p) < 2 {
		return -1
	}
	return p[1]
}

// Components returns the weakly connected components, each sorted, in
// deterministic order of their smallest member.
func (g *Graph) Components() [][]int {
	n := len(g.adj)
	uf := NewUnionFind(n)
	for u := 0; u < n; u++ {
		for _, e := range g.adj[u] {
			uf.Union(u, e.To)
		}
	}
	byRoot := map[int][]int{}
	for v := 0; v < n; v++ {
		r := uf.Find(v)
		byRoot[r] = append(byRoot[r], v)
	}
	var roots []int
	for r := range byRoot {
		roots = append(roots, byRoot[r][0])
	}
	sort.Ints(roots)
	out := make([][]int, 0, len(roots))
	seen := map[int]bool{}
	for _, first := range roots {
		r := uf.Find(first)
		if seen[r] {
			continue
		}
		seen[r] = true
		sort.Ints(byRoot[r])
		out = append(out, byRoot[r])
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// Connected reports whether the graph is weakly connected (trivially true
// for graphs with fewer than two nodes).
func (g *Graph) Connected() bool {
	return len(g.adj) < 2 || len(g.Components()) == 1
}

// UnionFind is a disjoint-set structure with path compression and union by
// rank.
type UnionFind struct {
	parent []int
	rank   []int
}

// NewUnionFind returns n singleton sets.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

// Find returns the canonical representative of x's set.
func (uf *UnionFind) Find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

// Union merges the sets of a and b; it reports whether a merge happened.
func (uf *UnionFind) Union(a, b int) bool {
	ra, rb := uf.Find(a), uf.Find(b)
	if ra == rb {
		return false
	}
	if uf.rank[ra] < uf.rank[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	if uf.rank[ra] == uf.rank[rb] {
		uf.rank[ra]++
	}
	return true
}

// item/heap: a minimal binary min-heap specialised for Dijkstra, avoiding
// the interface costs of container/heap on the hot path.
type item struct {
	node int
	dist int64
}

type heap struct{ a []item }

func (h *heap) len() int { return len(h.a) }

func (h *heap) push(it item) {
	h.a = append(h.a, it)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p].dist <= h.a[i].dist {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *heap) pop() item {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.a[l].dist < h.a[small].dist {
			small = l
		}
		if r < last && h.a[r].dist < h.a[small].dist {
			small = r
		}
		if small == i {
			break
		}
		h.a[i], h.a[small] = h.a[small], h.a[i]
		i = small
	}
	return top
}
