package underlay

import (
	"fmt"
	"slices"
	"testing"

	"github.com/evolvable-net/evolve/internal/graph"
	"github.com/evolvable-net/evolve/internal/topology"
)

// referenceEarlyExit is hot-potato selection as it was before Exit: one
// IntraDist — a tree probe of its own — per candidate link.
func referenceEarlyExit(v *View, cur topology.RouterID, links []topology.InterLink) (topology.InterLink, bool) {
	if len(links) == 0 {
		return topology.InterLink{}, false
	}
	best := links[0]
	bestDist := v.IntraDist(cur, best.From)
	for _, l := range links[1:] {
		if d := v.IntraDist(cur, l.From); d < bestDist {
			best, bestDist = l, d
		}
	}
	return best, true
}

// referenceIntraPath is IntraPath as it was before it was written from
// the tree's parent array: the tree's PathTo slice, translated into a
// second one.
func referenceIntraPath(v *View, a, b topology.RouterID) []topology.RouterID {
	if v.net.DomainOf(a) != v.net.DomainOf(b) {
		return nil
	}
	dg, t := v.intraFor(a)
	local := t.PathTo(slices.Index(dg.ids, b))
	if local == nil {
		return nil
	}
	out := make([]topology.RouterID, len(local))
	for i, li := range local {
		out[i] = dg.ids[li]
	}
	return out
}

// domainWorlds yields ring, mesh and random domains: whole, with one link
// of each domain's first router failed, and with that router cut off.
func domainWorlds(t *testing.T) map[string]*topology.Network {
	t.Helper()
	out := map[string]*topology.Network{}
	for name, style := range map[string]topology.IntraStyle{"ring": topology.IntraRing, "mesh": topology.IntraGrid, "random": topology.IntraRandom} {
		for _, failures := range []int{0, 1, 100} {
			n, err := topology.TransitStub(2, 3, 0.5, topology.GenConfig{Seed: 5, RoutersPerDomain: 6, Intra: style})
			if err != nil {
				t.Fatal(err)
			}
			for _, asn := range n.ASNs() {
				r := n.Domain(asn).Routers[0]
				for i, ed := range slices.Clone(n.Intra.Neighbors(int(r))) {
					if i < failures {
						n.FailIntraLink(r, topology.RouterID(ed.To))
					}
				}
			}
			out[fmt.Sprintf("%s/%d failed", name, failures)] = n
		}
	}
	return out
}

// TestExitMatchesHotPotato: Exit picks the link the per-link reference
// picks, and reports the reference's distance to it — from every router,
// over candidate lists with several links per local end, link ends in a
// foreign domain, and local ends link failures have cut off.
func TestExitMatchesHotPotato(t *testing.T) {
	unreachable := 0
	for name, n := range domainWorlds(t) {
		v := NewView(n)
		for _, asn := range n.ASNs() {
			rs := n.Domain(asn).Routers
			foreign := n.Domain(n.ASNs()[(int(asn))%len(n.ASNs())]).Routers[0]
			var links []topology.InterLink
			for i, r := range []topology.RouterID{rs[3], rs[1], foreign, rs[5], rs[1], rs[0]} {
				links = append(links, topology.InterLink{From: r, To: topology.RouterID(1000 + i), Latency: int64(i)})
			}
			for _, cur := range rs {
				for lo := 0; lo <= len(links); lo++ {
					for hi := lo; hi <= len(links); hi++ {
						cand := links[lo:hi]
						want, wok := referenceEarlyExit(v, cur, cand)
						got, dist, ok := v.Exit(cur, cand)
						if ok != wok || got != want {
							t.Fatalf("%s AS%d from r%d over %v: Exit = %v, %v; reference %v, %v", name, asn, cur, cand, got, ok, want, wok)
						}
						if !ok {
							continue
						}
						if wd := v.IntraDist(cur, want.From); dist != wd && !(dist >= graph.Inf && wd >= graph.Inf) {
							t.Fatalf("%s AS%d from r%d over %v: Exit distance %d, IntraDist %d", name, asn, cur, cand, dist, wd)
						}
						if dist >= graph.Inf {
							unreachable++
						}
					}
				}
			}
		}
	}
	if unreachable == 0 {
		t.Error("no candidate list was wholly unreachable")
	}
}

// TestIntraPathMatchesReference: the path written from the parent array
// is the reference's, in exact-size storage, and nil for an unreachable
// or foreign b.
func TestIntraPathMatchesReference(t *testing.T) {
	unreachable := 0
	for name, n := range domainWorlds(t) {
		v := NewView(n)
		for _, asn := range n.ASNs() {
			rs := n.Domain(asn).Routers
			foreign := n.Domain(n.ASNs()[(int(asn))%len(n.ASNs())]).Routers[0]
			for _, a := range rs {
				for _, b := range append([]topology.RouterID{foreign}, rs...) {
					want := referenceIntraPath(v, a, b)
					if want == nil {
						unreachable++
					}
					got := v.IntraPath(a, b)
					if !slices.Equal(got, want) || (got == nil) != (want == nil) {
						t.Fatalf("%s AS%d r%d→r%d: IntraPath = %v, reference %v", name, asn, a, b, got, want)
					}
					if cap(got) != len(got) {
						t.Fatalf("%s AS%d r%d→r%d: path has cap %d for len %d", name, asn, a, b, cap(got), len(got))
					}
				}
			}
		}
	}
	if unreachable == 0 {
		t.Error("no pair was unreachable")
	}
}

// TestRouterTablesKeepDomainsApart: the router-indexed tables never let
// one domain answer for another. An Exit candidate whose local end lies
// in another domain is unreachable, though its local index is a
// reachable position in cur's tree; and after InvalidateDomain(D), D's
// routers read D's new subgraph while every other router keeps its tree,
// the same pointer.
func TestRouterTablesKeepDomainsApart(t *testing.T) {
	n, err := topology.TransitStub(2, 3, 0.5, topology.GenConfig{Seed: 5, RoutersPerDomain: 6})
	if err != nil {
		t.Fatal(err)
	}
	v := NewView(n)
	for _, asn := range n.ASNs() {
		rs := n.Domain(asn).Routers
		for _, other := range n.ASNs() {
			if other == asn {
				continue
			}
			for _, foreign := range n.Domain(other).Routers {
				off := topology.InterLink{From: foreign, To: foreign}
				on := topology.InterLink{From: rs[len(rs)-1], To: foreign}
				for _, cur := range rs {
					if l, d, ok := v.Exit(cur, []topology.InterLink{off}); !ok || l != off || d < graph.Inf {
						t.Fatalf("AS%d r%d: Exit over foreign end r%d = %v, %d, %v; want it unreachable", asn, cur, foreign, l, d, ok)
					}
					want := v.IntraDist(cur, on.From)
					if l, d, ok := v.Exit(cur, []topology.InterLink{off, on}); !ok || l != on || d != want {
						t.Fatalf("AS%d r%d: Exit over foreign r%d then local r%d = %v, %d; want the local end at %d", asn, cur, foreign, on.From, l, d, want)
					}
				}
			}
		}
	}

	trees := map[topology.RouterID]*graph.SPT{}
	for _, r := range n.Routers {
		_, trees[r.ID] = v.intraFor(r.ID)
	}
	d := n.ASNs()[0]
	rs := n.Domain(d).Routers
	oldGraph := v.state.Load().graphs[rs[0]]
	n.FailIntraLink(rs[0], topology.RouterID(n.Intra.Neighbors(int(rs[0]))[0].To))
	v.InvalidateDomain(d)
	for _, r := range n.Routers {
		dg, tree := v.intraFor(r.ID)
		if r.Domain != d {
			if tree != trees[r.ID] {
				t.Fatalf("AS%d r%d: tree rebuilt by AS%d's invalidation", r.Domain, r.ID, d)
			}
			continue
		}
		if dg == oldGraph || tree == trees[r.ID] {
			t.Fatalf("AS%d r%d: still on the old subgraph after its invalidation", d, r.ID)
		}
		global := n.Intra.Dijkstra(int(r.ID))
		for _, b := range rs {
			if got := v.IntraDist(r.ID, b); got != global.Dist[b] {
				t.Fatalf("AS%d r%d→r%d: IntraDist %d after the failure, global Dijkstra %d", d, r.ID, b, got, global.Dist[b])
			}
		}
	}
}
