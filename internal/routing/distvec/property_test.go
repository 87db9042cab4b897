package distvec

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/graph"
	"github.com/evolvable-net/evolve/internal/netsim"
)

// randomConnected builds matching protocol adjacency and oracle graphs.
// Metrics stay small so paths never hit Infinity on these sizes.
func randomConnected(seed int64, n int) (map[int]map[int]int, map[int]addr.V4, *graph.Graph) {
	rng := rand.New(rand.NewSource(seed))
	adj := map[int]map[int]int{}
	loops := map[int]addr.V4{}
	g := graph.New(n)
	for i := 0; i < n; i++ {
		adj[i] = map[int]int{}
		loops[i] = addr.V4FromOctets(10, 0, byte(i>>8), byte(i))
	}
	addEdge := func(a, b, w int) {
		adj[a][b] = w
		adj[b][a] = w
		g.AddBiEdge(a, b, int64(w))
	}
	for i := 0; i+1 < n; i++ {
		addEdge(i, i+1, 1+rng.Intn(3))
	}
	for i := 0; i < n; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b && adj[a][b] == 0 {
			addEdge(a, b, 1+rng.Intn(3))
		}
	}
	return adj, loops, g
}

// TestProtocolMatchesBellmanFordOracle: the converged distance-vector
// tables equal the oracle's shortest-path distances for every router
// pair. The oracle is graph.Dijkstra, which graph's tests hold to a
// Bellman-Ford relaxation.
func TestProtocolMatchesBellmanFordOracle(t *testing.T) {
	f := func(seed int64) bool {
		const n = 8
		adj, loops, g := randomConnected(seed, n)
		eng := netsim.NewEngine()
		fab := netsim.NewFabric(eng)
		dom := NewDomain(fab, loops, adj)
		dom.Start()
		eng.Run(0)
		for src := 0; src < n; src++ {
			dist := g.Dijkstra(src).Dist
			for dst := 0; dst < n; dst++ {
				want := int(dist[dst])
				if dist[dst] >= graph.Inf {
					want = Infinity
				}
				if got := dom.Routers[src].DistanceTo(loops[dst]); got != want {
					t.Logf("seed %d: %d→%d protocol %d oracle %d", seed, src, dst, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestAnycastIsArgminOracle: for random member sets, the anycast metric at
// every router equals min over members of the oracle's distance.
func TestAnycastIsArgminOracle(t *testing.T) {
	f := func(seed int64) bool {
		const n = 8
		adj, loops, g := randomConnected(seed, n)
		eng := netsim.NewEngine()
		fab := netsim.NewFabric(eng)
		dom := NewDomain(fab, loops, adj)
		dom.Start()
		eng.Run(0)
		a, err := addr.Option1Address(1)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed ^ 0xacab))
		var members []int
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				members = append(members, i)
				dom.Routers[i].ServeAnycast(a)
			}
		}
		eng.Run(0)
		for src := 0; src < n; src++ {
			got := dom.Routers[src].DistanceTo(a)
			if len(members) == 0 {
				if got != Infinity {
					return false
				}
				continue
			}
			dist := g.Dijkstra(src).Dist
			best := int64(graph.Inf)
			for _, m := range members {
				if dist[m] < best {
					best = dist[m]
				}
			}
			if int64(got) != best {
				t.Logf("seed %d: router %d anycast %d oracle %d", seed, src, got, best)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestNextHopsFormShortestRoutes: following NextHop pointers from any
// router reaches the destination in exactly the advertised metric — no
// inconsistent forwarding state after convergence.
func TestNextHopsFormShortestRoutes(t *testing.T) {
	f := func(seed int64) bool {
		const n = 8
		adj, loops, _ := randomConnected(seed, n)
		eng := netsim.NewEngine()
		fab := netsim.NewFabric(eng)
		dom := NewDomain(fab, loops, adj)
		dom.Start()
		eng.Run(0)
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				e, ok := dom.Routers[src].Lookup(loops[dst])
				if !ok {
					return false // connected graph: everything reachable
				}
				// Walk the chain of next hops (bounded by hop count, not
				// metric sum — paths of n routers have at most n−1 hops).
				cur, walked := src, 0
				for hops := 0; cur != dst && hops < n; hops++ {
					step, ok := dom.Routers[cur].Lookup(loops[dst])
					if !ok {
						return false
					}
					walked += adj[cur][step.NextHop]
					cur = step.NextHop
				}
				if cur != dst || walked != e.Metric {
					t.Logf("seed %d: %d→%d walked %d metric %d", seed, src, dst, walked, e.Metric)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
