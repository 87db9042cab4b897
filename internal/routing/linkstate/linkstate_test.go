package linkstate

import (
	"testing"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/graph"
	"github.com/evolvable-net/evolve/internal/netsim"
)

// buildDomain wires a domain from an undirected edge list and runs it to
// convergence.
func buildDomain(t *testing.T, mode Mode, edges [][3]int64) (*Domain, *netsim.Engine) {
	t.Helper()
	adj := map[int][]Link{}
	for _, e := range edges {
		a, b, c := int(e[0]), int(e[1]), e[2]
		adj[a] = append(adj[a], Link{To: b, Cost: c})
		adj[b] = append(adj[b], Link{To: a, Cost: c})
	}
	eng := netsim.NewEngine()
	fab := netsim.NewFabric(eng)
	d := NewDomain(fab, mode, adj)
	d.Start()
	eng.Run(0)
	return d, eng
}

var diamond = [][3]int64{
	// 0 —1— 1 —1— 3, 0 —10— 2 —1— 3
	{0, 1, 1}, {1, 3, 1}, {0, 2, 10}, {2, 3, 1},
}

func TestSPFDistances(t *testing.T) {
	d, _ := buildDomain(t, ModeExplicitList, diamond)
	r0 := d.Routers[0]
	if got := r0.DistanceTo(3); got != 2 {
		t.Errorf("dist 0→3 = %d, want 2", got)
	}
	if got := r0.DistanceTo(2); got != 3 {
		t.Errorf("dist 0→2 = %d, want 3 (via 1,3)", got)
	}
	if nh := r0.NextHopTo(3); nh != 1 {
		t.Errorf("nexthop 0→3 = %d, want 1", nh)
	}
	if r0.DistanceTo(99) < graph.Inf {
		t.Error("unknown router should be unreachable")
	}
}

func TestAllRoutersAgree(t *testing.T) {
	d, _ := buildDomain(t, ModeExplicitList, diamond)
	// Each router's view of the distance 0→3 computed from its own LSDB
	// must agree (same LSDB after flooding).
	for id, r := range d.Routers {
		if len(r.lsdb) != 4 {
			t.Errorf("router %d LSDB size = %d", id, len(r.lsdb))
		}
	}
	if d.Routers[3].DistanceTo(0) != d.Routers[0].DistanceTo(3) {
		t.Error("asymmetric distances in symmetric topology")
	}
}

func testAnycastClosest(t *testing.T, mode Mode) {
	t.Helper()
	d, eng := buildDomain(t, mode, diamond)
	a, _ := addr.Option1Address(0)
	// Members: router 1 (dist 1 from 0) and router 2 (dist 3 from 0).
	d.Routers[1].ServeAnycast(a)
	d.Routers[2].ServeAnycast(a)
	eng.Run(0)

	member, dist, nh, ok := d.Routers[0].ResolveAnycast(a)
	if !ok || member != 1 || dist != 1 || nh != 1 {
		t.Errorf("resolve from 0 = member %d dist %d nh %d ok %v", member, dist, nh, ok)
	}
	// Router 3 is at distance 1 from both members; tie broken to lower id.
	member, dist, _, ok = d.Routers[3].ResolveAnycast(a)
	if !ok || member != 1 || dist != 1 {
		t.Errorf("resolve from 3 = member %d dist %d ok %v", member, dist, ok)
	}
	// A member resolves to itself at distance 0.
	member, dist, nh, ok = d.Routers[2].ResolveAnycast(a)
	if !ok || member != 2 || dist != 0 || nh != 2 {
		t.Errorf("self resolve = member %d dist %d nh %d ok %v", member, dist, nh, ok)
	}
}

func TestAnycastClosestExplicitList(t *testing.T) { testAnycastClosest(t, ModeExplicitList) }
func TestAnycastClosestHighCostLink(t *testing.T) { testAnycastClosest(t, ModeHighCostLink) }

func TestAnycastMemberDiscovery(t *testing.T) {
	for _, mode := range []Mode{ModeExplicitList, ModeHighCostLink} {
		d, eng := buildDomain(t, mode, diamond)
		a, _ := addr.Option1Address(0)
		d.Routers[0].ServeAnycast(a)
		d.Routers[3].ServeAnycast(a)
		eng.Run(0)
		got := d.Routers[1].AnycastMembers(a)
		if len(got) != 2 || got[0] != 0 || got[1] != 3 {
			t.Errorf("mode %d: members = %v", mode, got)
		}
	}
}

func TestLinkFailureReconverges(t *testing.T) {
	d, eng := buildDomain(t, ModeExplicitList, diamond)
	r0 := d.Routers[0]
	if r0.DistanceTo(3) != 2 {
		t.Fatal("precondition")
	}
	// Fail link 1–3 (both directions, as the endpoints notice).
	d.Routers[1].SetLinkCost(3, -1)
	d.Routers[3].SetLinkCost(1, -1)
	eng.Run(0)
	if got := r0.DistanceTo(3); got != 11 {
		t.Errorf("after failure, dist 0→3 = %d, want 11 (via 2)", got)
	}
	// Anycast re-redirects too.
	a, _ := addr.Option1Address(0)
	d.Routers[3].ServeAnycast(a)
	eng.Run(0)
	if _, dist, _, ok := r0.ResolveAnycast(a); !ok || dist != 11 {
		t.Errorf("anycast after failure: dist %d ok %v", dist, ok)
	}
	// Restore.
	d.Routers[1].SetLinkCost(3, 1)
	d.Routers[3].SetLinkCost(1, 1)
	eng.Run(0)
	if got := r0.DistanceTo(3); got != 2 {
		t.Errorf("after restore, dist = %d", got)
	}
}

func TestOneWayLinkIgnored(t *testing.T) {
	// Only router 0 claims adjacency to 1; the two-way check must reject it.
	eng := netsim.NewEngine()
	fab := netsim.NewFabric(eng)
	fab.Connect(0, 1, 1)
	r0 := NewRouter(0, ModeExplicitList, fab, []Link{{To: 1, Cost: 1}})
	r1 := NewRouter(1, ModeExplicitList, fab, nil) // does not list 0
	r0.Start()
	r1.Start()
	eng.Run(0)
	if r0.DistanceTo(1) < graph.Inf {
		t.Error("one-way adjacency used for forwarding")
	}
}

func TestSequenceNumberSupersedes(t *testing.T) {
	d, eng := buildDomain(t, ModeExplicitList, [][3]int64{{0, 1, 5}})
	d.Routers[0].SetLinkCost(1, 2)
	d.Routers[1].SetLinkCost(0, 2)
	eng.Run(0)
	if got := d.Routers[1].DistanceTo(0); got != 2 {
		t.Errorf("dist after update = %d, want 2", got)
	}
}

func BenchmarkFloodAndSPF(b *testing.B) {
	// 50-router ring with chords.
	adj := map[int][]Link{}
	addEdge := func(a, c int, w int64) {
		adj[a] = append(adj[a], Link{To: c, Cost: w})
		adj[c] = append(adj[c], Link{To: a, Cost: w})
	}
	const n = 50
	for i := 0; i < n; i++ {
		addEdge(i, (i+1)%n, 1)
		if i%5 == 0 {
			addEdge(i, (i+n/2)%n, 3)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := netsim.NewEngine()
		fab := netsim.NewFabric(eng)
		d := NewDomain(fab, ModeExplicitList, adj)
		d.Start()
		eng.Run(0)
		if d.Routers[0].DistanceTo(n/2) >= graph.Inf {
			b.Fatal("did not converge")
		}
	}
}
