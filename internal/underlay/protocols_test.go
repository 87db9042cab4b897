package underlay

import (
	"testing"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/netsim"
	"github.com/evolvable-net/evolve/internal/routing/distvec"
	"github.com/evolvable-net/evolve/internal/routing/linkstate"
	"github.com/evolvable-net/evolve/internal/topology"
)

// linkStateDomain runs routers rs of n as one link-state domain in mode,
// with members serving group, until it is quiescent.
func linkStateDomain(n *topology.Network, rs []topology.RouterID, mode linkstate.Mode, members []topology.RouterID, group addr.V4) *linkstate.Domain {
	adj := map[int][]linkstate.Link{}
	for _, r := range rs {
		for _, e := range n.Intra.Neighbors(int(r)) {
			adj[int(r)] = append(adj[int(r)], linkstate.Link{To: e.To, Cost: e.Weight})
		}
	}
	eng := netsim.NewEngine()
	dom := linkstate.NewDomain(netsim.NewFabric(eng), mode, adj)
	dom.Start()
	eng.Run(0)
	for _, m := range members {
		dom.Routers[int(m)].ServeAnycast(group)
	}
	eng.Run(0)
	return dom
}

// distVecDomain is linkStateDomain for the distance-vector IGP, every
// router advertising its loopback.
func distVecDomain(n *topology.Network, rs []topology.RouterID, members []topology.RouterID, group addr.V4) *distvec.Domain {
	adj := map[int]map[int]int{}
	loops := map[int]addr.V4{}
	for _, r := range rs {
		adj[int(r)] = map[int]int{}
		loops[int(r)] = n.Router(r).Loopback
		for _, e := range n.Intra.Neighbors(int(r)) {
			adj[int(r)][e.To] = int(e.Weight)
		}
	}
	eng := netsim.NewEngine()
	dom := distvec.NewDomain(netsim.NewFabric(eng), loops, adj)
	dom.Start()
	eng.Run(0)
	for _, m := range members {
		dom.Routers[int(m)].ServeAnycast(group)
	}
	eng.Run(0)
	return dom
}

// ripMetric is the distance-vector metric of a path of cost d: d itself
// below distvec.Infinity, Infinity from there on.
func ripMetric(d int64) int {
	if d >= distvec.Infinity {
		return distvec.Infinity
	}
	return int(d)
}

// TestProtocolsMatchView holds intra-domain routing to one truth. Every
// domain of seeded TransitStub internets runs as a link-state domain (in
// both anycast modes) and as a distance-vector one until quiescent, with a
// two-member anycast group, and must route as the view's closed forms say:
// link-state distances equal IntraDist for every router pair and its
// anycast resolution equals ClosestIn on member and distance, the lower id
// winning ties; distance-vector distances and its anycast metric equal
// IntraDist and ClosestIn's distance below distvec.Infinity, and are
// Infinity from there on.
func TestProtocolsMatchView(t *testing.T) {
	group, err := addr.Option1Address(0)
	if err != nil {
		t.Fatal(err)
	}
	lsChecks, dvChecks, ties := 0, 0, 0
	for seed := int64(1); seed <= 5; seed++ {
		n, err := topology.TransitStub(3, 4, 0.5, topology.GenConfig{Seed: seed, RoutersPerDomain: 5})
		if err != nil {
			t.Fatal(err)
		}
		v := NewView(n)
		for _, asn := range n.ASNs() {
			rs := n.Domain(asn).Routers
			members := []topology.RouterID{rs[0], rs[len(rs)-1]}
			for _, mode := range []linkstate.Mode{linkstate.ModeHighCostLink, linkstate.ModeExplicitList} {
				dom := linkStateDomain(n, rs, mode, members, group)
				for _, a := range rs {
					r := dom.Routers[int(a)]
					for _, b := range rs {
						if got, want := r.DistanceTo(int(b)), v.IntraDist(a, b); got != want {
							t.Fatalf("seed %d AS%d mode %d: link-state r%d→r%d = %d, IntraDist %d", seed, asn, mode, a, b, got, want)
						}
						lsChecks++
					}
					m, d, _, ok := r.ResolveAnycast(group)
					wm, wd, wok := v.ClosestIn(a, members)
					if ok != wok || (ok && (topology.RouterID(m) != wm || d != wd)) {
						t.Fatalf("seed %d AS%d mode %d: link-state anycast from r%d = r%d at %d (%v), ClosestIn r%d at %d (%v)",
							seed, asn, mode, a, m, d, ok, wm, wd, wok)
					}
					if v.IntraDist(a, members[0]) == v.IntraDist(a, members[1]) {
						ties++
					}
				}
			}

			dom := distVecDomain(n, rs, members, group)
			for _, a := range rs {
				r := dom.Routers[int(a)]
				for _, b := range rs {
					want := ripMetric(v.IntraDist(a, b))
					if got := r.DistanceTo(n.Router(b).Loopback); got != want {
						t.Fatalf("seed %d AS%d: distance-vector r%d→r%d = %d, want %d", seed, asn, a, b, got, want)
					}
					if want < distvec.Infinity {
						dvChecks++
					}
				}
				want := distvec.Infinity
				if _, wd, ok := v.ClosestIn(a, members); ok {
					want = ripMetric(wd)
				}
				if got := r.DistanceTo(group); got != want {
					t.Fatalf("seed %d AS%d: distance-vector anycast metric at r%d = %d, want %d", seed, asn, a, got, want)
				}
			}
		}
	}
	if ties == 0 {
		t.Error("no router was equidistant from both members: the tie rule went unchecked")
	}
	t.Logf("%d link-state and %d distance-vector distance checks, %d anycast ties", lsChecks, dvChecks, ties)
}
