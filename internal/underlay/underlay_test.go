package underlay

import (
	"testing"

	"github.com/evolvable-net/evolve/internal/graph"
	"github.com/evolvable-net/evolve/internal/topology"
)

func build(t *testing.T) (*topology.Network, []topology.RouterID, []topology.RouterID) {
	t.Helper()
	b := topology.NewBuilder()
	x := b.AddDomain("X")
	y := b.AddDomain("Y")
	xr := b.AddRouters(x, 3)
	yr := b.AddRouters(y, 2)
	b.IntraLink(xr[0], xr[1], 2)
	b.IntraLink(xr[1], xr[2], 2)
	b.IntraLink(xr[0], xr[2], 10)
	b.IntraLink(yr[0], yr[1], 3)
	b.Peer(xr[2], yr[0], 7)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n, xr, yr
}

func TestIntraDist(t *testing.T) {
	n, xr, yr := build(t)
	v := NewView(n)
	if got := v.IntraDist(xr[0], xr[2]); got != 4 {
		t.Errorf("intra dist = %d, want 4 (via middle)", got)
	}
	if got := v.IntraDist(xr[0], xr[0]); got != 0 {
		t.Errorf("self dist = %d", got)
	}
	if v.IntraDist(xr[0], yr[0]) < graph.Inf {
		t.Error("cross-domain intra dist should be Inf")
	}
}

func TestIntraPath(t *testing.T) {
	n, xr, _ := build(t)
	v := NewView(n)
	p := v.IntraPath(xr[0], xr[2])
	if len(p) != 3 || p[0] != xr[0] || p[1] != xr[1] || p[2] != xr[2] {
		t.Errorf("path = %v", p)
	}
	if v.IntraPath(xr[0], n.Domains[2].Routers[0]) != nil {
		t.Error("cross-domain path should be nil")
	}
}

func TestClosestIn(t *testing.T) {
	n, xr, _ := build(t)
	v := NewView(n)
	m, d, ok := v.ClosestIn(xr[0], []topology.RouterID{xr[1], xr[2]})
	if !ok || m != xr[1] || d != 2 {
		t.Errorf("closest = %d dist %d ok %v", m, d, ok)
	}
	// Entry itself a member → distance 0.
	m, d, ok = v.ClosestIn(xr[0], []topology.RouterID{xr[0], xr[1]})
	if !ok || m != xr[0] || d != 0 {
		t.Errorf("self member = %d dist %d ok %v", m, d, ok)
	}
	if _, _, ok := v.ClosestIn(xr[0], nil); ok {
		t.Error("no members should not resolve")
	}
}

func TestGroundTruth(t *testing.T) {
	n, xr, yr := build(t)
	v := NewView(n)
	// x0 →2→ x1 →2→ x2 →7→ y0 →3→ y1
	if got := v.GroundTruthDist(xr[0], yr[1]); got != 14 {
		t.Errorf("ground truth = %d, want 14", got)
	}
}

func TestInvalidateReflectsTopologyChange(t *testing.T) {
	n, xr, yr := build(t)
	v := NewView(n)
	if got := v.IntraDist(xr[0], xr[2]); got != 4 {
		t.Fatalf("precondition dist = %d", got)
	}
	before := v.GroundTruthDist(xr[0], yr[1])
	// Cut the cheap intra path; without Invalidate the caches are stale.
	n.FailIntraLink(xr[0], xr[1])
	if got := v.IntraDist(xr[0], xr[2]); got != 4 {
		t.Fatalf("stale cache expected 4, got %d", got)
	}
	v.InvalidateDomain(n.DomainOf(xr[0]))
	if got := v.IntraDist(xr[0], xr[2]); got != 10 {
		t.Errorf("post-invalidate dist = %d, want 10 (direct edge)", got)
	}
	if got := v.GroundTruthDist(xr[0], yr[1]); got <= before {
		t.Errorf("ground truth did not worsen: %d → %d", before, got)
	}
	// Restore and invalidate again.
	n.RestoreIntraLink(xr[0], xr[1], 2)
	v.InvalidateDomain(n.DomainOf(xr[0]))
	if got := v.IntraDist(xr[0], xr[2]); got != 4 {
		t.Errorf("post-restore dist = %d", got)
	}
}

func TestHotPotatoTieBreak(t *testing.T) {
	n, xr, yr := build(t)
	v := NewView(n)
	links := []topology.InterLink{
		{From: xr[2], To: yr[0], Latency: 7},
		{From: xr[1], To: yr[0], Latency: 9},
	}
	// From xr[1], the second link's local end is distance 0: it wins.
	l, d, ok := v.Exit(xr[1], links)
	if !ok || l.From != xr[1] || d != 0 {
		t.Errorf("exit = %+v at %d ok %v", l, d, ok)
	}
	// From xr[2], the first wins.
	l, d, ok = v.Exit(xr[2], links)
	if !ok || l.From != xr[2] || d != 0 {
		t.Errorf("exit = %+v at %d ok %v", l, d, ok)
	}
	// Equidistant candidates: first in list wins (deterministic).
	l, d, _ = v.Exit(xr[0], []topology.InterLink{
		{From: xr[2], To: yr[0], Latency: 7},
		{From: xr[2], To: yr[1], Latency: 9},
	})
	if l.To != yr[0] || d != 4 {
		t.Errorf("tie did not break toward the first candidate: %+v at %d", l, d)
	}
}

func TestCachingConsistent(t *testing.T) {
	n, xr, _ := build(t)
	v := NewView(n)
	a := v.IntraDist(xr[0], xr[2])
	b := v.IntraDist(xr[0], xr[2])
	if a != b {
		t.Error("cached result differs")
	}
	if v.Network() != n {
		t.Error("Network accessor broken")
	}
}

func TestInvalidateDomainPreservesOtherDomains(t *testing.T) {
	n, xr, yr := build(t)
	v := NewView(n)
	// Warm an intra SPT in each domain.
	if got := v.IntraDist(xr[0], xr[2]); got != 4 {
		t.Fatalf("X warm dist = %d", got)
	}
	if got := v.IntraDist(yr[0], yr[1]); got != 3 {
		t.Fatalf("Y warm dist = %d", got)
	}
	base := v.DijkstraRuns()

	n.FailIntraLink(xr[0], xr[1])
	v.InvalidateDomain(n.DomainOf(xr[0]))

	// Y's tree survived the scoped invalidation: no recompute.
	if got := v.IntraDist(yr[0], yr[1]); got != 3 {
		t.Errorf("Y dist after X invalidation = %d", got)
	}
	if runs := v.DijkstraRuns(); runs != base {
		t.Errorf("Y lookup recomputed: %d runs, want %d", runs, base)
	}
	// X's tree was dropped and recomputes against the mutated graph.
	if got := v.IntraDist(xr[0], xr[2]); got != 10 {
		t.Errorf("X dist after invalidation = %d, want 10 (direct edge)", got)
	}
	if runs := v.DijkstraRuns(); runs != base+1 {
		t.Errorf("X lookup ran %d dijkstras, want exactly 1", runs-base)
	}
}

func TestInvalidateInterPreservesIntraTrees(t *testing.T) {
	n, xr, yr := build(t)
	v := NewView(n)
	_ = v.IntraDist(xr[0], xr[2])
	_ = v.IntraDist(yr[0], yr[1])
	before := v.GroundTruthDist(xr[0], yr[1])
	if before >= graph.Inf {
		t.Fatal("precondition: domains connected")
	}
	base := v.DijkstraRuns()

	n.FailInterLink(xr[2], yr[0])
	v.InvalidateInter()

	// Every intra tree survives an inter-only invalidation.
	if got := v.IntraDist(xr[0], xr[2]); got != 4 {
		t.Errorf("X dist = %d", got)
	}
	if got := v.IntraDist(yr[0], yr[1]); got != 3 {
		t.Errorf("Y dist = %d", got)
	}
	if runs := v.DijkstraRuns(); runs != base {
		t.Errorf("intra lookups recomputed: %d runs, want %d", runs, base)
	}
	// The full-graph trees were dropped and see the severed link.
	if got := v.GroundTruthDist(xr[0], yr[1]); got < graph.Inf {
		t.Errorf("ground truth after cut = %d, want Inf", got)
	}
	if runs := v.DijkstraRuns(); runs != base+1 {
		t.Errorf("ground-truth recompute ran %d dijkstras, want 1", v.DijkstraRuns()-base)
	}
}

// TestPerDomainMatchesGlobalDijkstra cross-checks the compact per-domain
// subgraph computation against a Dijkstra run on the global intra graph:
// distances, paths, and tie-breaks must be identical for every router
// pair of every domain.
func TestPerDomainMatchesGlobalDijkstra(t *testing.T) {
	net, err := topology.TransitStub(3, 4, 0.4, topology.GenConfig{
		Seed: 21, RoutersPerDomain: 5, HostsPerDomain: 0, Intra: topology.IntraRandom,
	})
	if err != nil {
		t.Fatal(err)
	}
	v := NewView(net)
	for _, asn := range net.ASNs() {
		d := net.Domain(asn)
		for _, src := range d.Routers {
			spt := net.Intra.Dijkstra(int(src))
			for _, dst := range d.Routers {
				want := spt.Dist[dst]
				if got := v.IntraDist(src, dst); got != want {
					t.Fatalf("AS%d %d→%d: per-domain dist %d, global %d", asn, src, dst, got, want)
				}
				wantPath := spt.PathTo(int(dst))
				gotPath := v.IntraPath(src, dst)
				if len(gotPath) != len(wantPath) {
					t.Fatalf("AS%d %d→%d: path %v, global %v", asn, src, dst, gotPath, wantPath)
				}
				for i := range wantPath {
					if int(gotPath[i]) != wantPath[i] {
						t.Fatalf("AS%d %d→%d: path %v, global %v (tie-break drift)", asn, src, dst, gotPath, wantPath)
					}
				}
			}
		}
	}
}

// TestIntraSPTMemoryIsDomainLocal asserts the SPT arrays are sized to
// the domain, not the internet — the scaling property that makes 10k
// domains affordable.
func TestIntraSPTMemoryIsDomainLocal(t *testing.T) {
	net, err := topology.RingOfDomains(50, topology.GenConfig{Seed: 1, RoutersPerDomain: 3})
	if err != nil {
		t.Fatal(err)
	}
	v := NewView(net)
	d := net.Domain(net.ASNs()[0])
	dg, spt := v.intraFor(d.Routers[0])
	if len(spt.Dist) != len(d.Routers) {
		t.Fatalf("SPT dist array has %d entries, want domain-local %d", len(spt.Dist), len(d.Routers))
	}
	if len(dg.ids) != len(d.Routers) {
		t.Fatalf("domain subgraph has %d ids, want %d", len(dg.ids), len(d.Routers))
	}
}
