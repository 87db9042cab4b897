package graph

// BellmanFord computes single-source shortest distances by relaxation, an
// independent oracle for property-testing Dijkstra.
func (g *Graph) BellmanFord(src int) []int64 {
	n := len(g.adj)
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = Inf
	}
	if src < 0 || src >= n {
		return dist
	}
	dist[src] = 0
	for round := 0; round < n; round++ {
		changed := false
		for u := 0; u < n; u++ {
			if dist[u] >= Inf {
				continue
			}
			for _, e := range g.adj[u] {
				if nd := dist[u] + e.Weight; nd < dist[e.To] {
					dist[e.To] = nd
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

// BFS returns hop counts from src (Inf when unreachable).
func (g *Graph) BFS(src int) []int64 {
	n := len(g.adj)
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = Inf
	}
	if src < 0 || src >= n {
		return dist
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range g.adj[u] {
			if dist[e.To] >= Inf {
				dist[e.To] = dist[u] + 1
				queue = append(queue, e.To)
			}
		}
	}
	return dist
}
