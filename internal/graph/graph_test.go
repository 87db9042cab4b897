package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func lineGraph(n int) *Graph {
	g := New(n)
	for i := 0; i < n-1; i++ {
		g.AddBiEdge(i, i+1, 1)
	}
	return g
}

func TestDijkstraLine(t *testing.T) {
	g := lineGraph(5)
	spt := g.Dijkstra(0)
	for i := 0; i < 5; i++ {
		if spt.Dist[i] != int64(i) {
			t.Errorf("dist[%d] = %d", i, spt.Dist[i])
		}
	}
	if got := spt.PathTo(4); len(got) != 5 || got[0] != 0 || got[4] != 4 {
		t.Errorf("PathTo(4) = %v", got)
	}
	if spt.NextHop(4) != 1 {
		t.Errorf("NextHop(4) = %d", spt.NextHop(4))
	}
	if spt.NextHop(0) != -1 {
		t.Error("NextHop to self should be -1")
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := New(3)
	g.AddBiEdge(0, 1, 1)
	spt := g.Dijkstra(0)
	if spt.Dist[2] < Inf {
		t.Error("node 2 should be unreachable")
	}
	if spt.PathTo(2) != nil {
		t.Error("PathTo unreachable should be nil")
	}
}

func TestDijkstraPicksCheaperOfParallelEdges(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 10)
	g.AddEdge(0, 1, 3)
	if d := g.Dijkstra(0).Dist[1]; d != 3 {
		t.Errorf("dist = %d, want 3", d)
	}
}

func TestDijkstraShorterViaLongerHopPath(t *testing.T) {
	g := New(4)
	g.AddBiEdge(0, 3, 10)
	g.AddBiEdge(0, 1, 2)
	g.AddBiEdge(1, 2, 2)
	g.AddBiEdge(2, 3, 2)
	spt := g.Dijkstra(0)
	if spt.Dist[3] != 6 {
		t.Errorf("dist[3] = %d, want 6", spt.Dist[3])
	}
	if p := spt.PathTo(3); len(p) != 4 {
		t.Errorf("path = %v", p)
	}
}

func randomGraph(seed int64, n, m int, maxW int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	for i := 0; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		g.AddEdge(u, v, 1+rng.Int63n(maxW))
	}
	return g
}

func TestDijkstraAgreesWithBellmanFord(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 20, 60, 50)
		src := int(uint64(seed) % 20)
		d1 := g.Dijkstra(src).Dist
		d2 := g.BellmanFord(src)
		for i := range d1 {
			a, b := d1[i], d2[i]
			if (a >= Inf) != (b >= Inf) {
				return false
			}
			if a < Inf && a != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDijkstraPathCostMatchesDist(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 15, 40, 20)
		spt := g.Dijkstra(0)
		for v := 0; v < g.Len(); v++ {
			p := spt.PathTo(v)
			if p == nil {
				if spt.Dist[v] < Inf && v != 0 {
					return false
				}
				continue
			}
			var cost int64
			for i := 0; i+1 < len(p); i++ {
				best := int64(Inf)
				for _, e := range g.Neighbors(p[i]) {
					if e.To == p[i+1] && e.Weight < best {
						best = e.Weight
					}
				}
				cost += best
			}
			if cost != spt.Dist[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBFS(t *testing.T) {
	g := New(4)
	g.AddBiEdge(0, 1, 100)
	g.AddBiEdge(1, 2, 100)
	g.AddBiEdge(0, 3, 100)
	d := g.BFS(0)
	want := []int64{0, 1, 2, 1}
	for i, w := range want {
		if d[i] != w {
			t.Errorf("BFS dist[%d] = %d, want %d", i, d[i], w)
		}
	}
}

func TestComponents(t *testing.T) {
	g := New(6)
	g.AddBiEdge(0, 1, 1)
	g.AddBiEdge(2, 3, 1)
	g.AddBiEdge(3, 4, 1)
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("components = %v", comps)
	}
	if len(comps[0]) != 2 || len(comps[1]) != 3 || len(comps[2]) != 1 {
		t.Errorf("component sizes wrong: %v", comps)
	}
	if g.Connected() {
		t.Error("graph should not be connected")
	}
	g.AddBiEdge(1, 2, 1)
	g.AddBiEdge(4, 5, 1)
	if !g.Connected() {
		t.Error("graph should now be connected")
	}
}

func TestRemoveEdge(t *testing.T) {
	g := New(3)
	g.AddBiEdge(0, 1, 1)
	g.AddBiEdge(1, 2, 1)
	if !g.RemoveBiEdge(0, 1) {
		t.Error("RemoveBiEdge should report removal")
	}
	if g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Error("edge still present after removal")
	}
	if g.RemoveBiEdge(0, 1) {
		t.Error("second removal should report false")
	}
	if !g.HasEdge(1, 2) {
		t.Error("unrelated edge disturbed")
	}
}

func TestClone(t *testing.T) {
	g := lineGraph(3)
	c := g.Clone()
	c.AddBiEdge(0, 2, 1)
	if g.HasEdge(0, 2) {
		t.Error("mutating clone affected original")
	}
	if !c.HasEdge(0, 2) {
		t.Error("clone edge missing")
	}
}

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(5)
	sets := func() int {
		n := 0
		for i := range uf.parent {
			if uf.Find(i) == i {
				n++
			}
		}
		return n
	}
	if sets() != 5 {
		t.Fatalf("sets = %d", sets())
	}
	if !uf.Union(0, 1) || !uf.Union(2, 3) {
		t.Error("fresh unions should succeed")
	}
	if uf.Union(1, 0) {
		t.Error("repeated union should fail")
	}
	if sets() != 3 {
		t.Errorf("sets = %d, want 3", sets())
	}
	if uf.Find(0) != uf.Find(1) || uf.Find(0) == uf.Find(2) {
		t.Error("find results inconsistent")
	}
}

func TestEnsureNodeAndEdgeCount(t *testing.T) {
	var g Graph
	g.EnsureNode(4)
	if g.Len() != 5 {
		t.Errorf("Len = %d", g.Len())
	}
	g.AddBiEdge(0, 4, 7)
	if !g.HasEdge(0, 4) || !g.HasEdge(4, 0) || len(g.Neighbors(0))+len(g.Neighbors(4)) != 2 {
		t.Errorf("edges after one AddBiEdge: %v, %v", g.Neighbors(0), g.Neighbors(4))
	}
}

func TestNegativeWeightPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on negative weight")
		}
	}()
	New(2).AddEdge(0, 1, -1)
}

func BenchmarkDijkstra(b *testing.B) {
	g := randomGraph(1, 500, 3000, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Dijkstra(i % 500)
	}
}
