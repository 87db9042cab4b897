package topology

import (
	"fmt"
	"testing"

	"github.com/evolvable-net/evolve/internal/graph"
)

// Property tests over every generator at 1k+ domains: the AS-level graph
// is connected, has no self or parallel domain-level links, the provider
// relation is acyclic (Gao-Rexford needs a hierarchy), and generation is
// deterministic per seed.

type genCase struct {
	name string
	gen  func(seed int64) (*Network, error)
}

func scaleCases(n int) []genCase {
	cfg := func(seed int64) GenConfig {
		return GenConfig{Seed: seed, RoutersPerDomain: 2, HostsPerDomain: 1}
	}
	nTransit := n / 100
	if nTransit < 2 {
		nTransit = 2
	}
	return []genCase{
		{"ring", func(s int64) (*Network, error) { return RingOfDomains(n, cfg(s)) }},
		{"transitstub", func(s int64) (*Network, error) {
			return TransitStub(nTransit, n/nTransit-1, 0.3, cfg(s))
		}},
		{"waxman", func(s int64) (*Network, error) { return Waxman(n, 0.12, 0.2, cfg(s)) }},
		{"barabasi", func(s int64) (*Network, error) { return BarabasiAlbert(n, 2, cfg(s)) }},
	}
}

// checkASGraph asserts the domain-level structural properties.
func checkASGraph(t *testing.T, n *Network) {
	t.Helper()
	asns := n.ASNs()
	index := make(map[ASN]int, len(asns))
	for i, a := range asns {
		index[a] = i
	}

	uf := graph.NewUnionFind(len(asns))
	seenPair := make(map[[2]ASN]bool, len(n.Inter))
	indeg := make([]int, len(asns))
	providerAdj := make([][]int, len(asns)) // provider → customers
	for _, l := range n.Inter {
		fd, td := n.DomainOf(l.From), n.DomainOf(l.To)
		if fd == td {
			t.Fatalf("self link: %v inside AS%d", l, fd)
		}
		pair := [2]ASN{fd, td}
		if td < fd {
			pair = [2]ASN{td, fd}
		}
		if seenPair[pair] {
			t.Fatalf("parallel domain-level link between AS%d and AS%d", pair[0], pair[1])
		}
		seenPair[pair] = true
		uf.Union(index[fd], index[td])
		if l.Rel == RelProvider {
			providerAdj[index[fd]] = append(providerAdj[index[fd]], index[td])
			indeg[index[td]]++
		} else if l.Rel == RelCustomer {
			providerAdj[index[td]] = append(providerAdj[index[td]], index[fd])
			indeg[index[fd]]++
		}
	}
	if uf.Sets() != 1 {
		t.Fatalf("AS graph not connected: %d components", uf.Sets())
	}

	// Kahn's algorithm over the provider→customer digraph: if any node
	// remains, the provider relation has a cycle.
	queue := make([]int, 0, len(asns))
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	removed := 0
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		removed++
		for _, v := range providerAdj[u] {
			if indeg[v]--; indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	if removed != len(asns) {
		t.Fatalf("provider relation has a cycle: %d of %d ASes in hierarchy", removed, len(asns))
	}
}

func sameNetwork(a, b *Network) bool {
	if len(a.Routers) != len(b.Routers) || len(a.Hosts) != len(b.Hosts) || len(a.Inter) != len(b.Inter) {
		return false
	}
	for i := range a.Inter {
		if a.Inter[i] != b.Inter[i] {
			return false
		}
	}
	return a.Intra.EdgeCount() == b.Intra.EdgeCount()
}

func TestGeneratorProperties1k(t *testing.T) {
	for _, c := range scaleCases(1000) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			n, err := c.gen(11)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(n.Domains); got < 1000 {
				t.Fatalf("domains = %d, want ≥ 1000", got)
			}
			checkASGraph(t, n)
			n2, err := c.gen(11)
			if err != nil {
				t.Fatal(err)
			}
			if !sameNetwork(n, n2) {
				t.Fatal("same seed generated different networks")
			}
			n3, err := c.gen(12)
			if err != nil {
				t.Fatal(err)
			}
			if sameNetwork(n, n3) {
				t.Fatal("different seeds generated identical networks (suspicious)")
			}
		})
	}
}

func TestTransitStub10kGenerates(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-domain generation in -short mode")
	}
	n, err := TransitStub(100, 99, 0.3, GenConfig{Seed: 5, RoutersPerDomain: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(n.Domains); got != 10000 {
		t.Fatalf("domains = %d, want 10000", got)
	}
	checkASGraph(t, n)
}

func TestAddDomainCeiling(t *testing.T) {
	b := NewBuilder()
	b.nextASN = MaxDomains // pretend MaxDomains-1 domains already exist
	d := b.AddDomain("last")
	if d.ASN != MaxDomains {
		t.Fatalf("last domain ASN = %d, want %d", d.ASN, MaxDomains)
	}
	b.AddRouter(d, "")
	b.AddDomain("overflow")
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error past the domain addressing ceiling")
	}
}

// TestAllNeighborsMatchesNeighbors holds AllNeighbors to Neighbors per
// domain, link order and orientation included, also on RingOfDomains(2,
// …), which peers its two domains twice, once each way. Every slice it
// hands out is capacity-capped: appending to one neighbour's Links, or to
// one domain's entries, changes no other.
func TestAllNeighborsMatchesNeighbors(t *testing.T) {
	ts, err := TransitStub(4, 5, 0.5, GenConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ring, err := RingOfDomains(2, GenConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if nbs := ring.Neighbors(ring.ASNs()[0]); len(nbs) != 1 || len(nbs[0].Links) != 2 {
		t.Fatalf("RingOfDomains(2) neighbours = %+v, want one with two links", nbs)
	}
	// Many parallel links, drawn both ways between three domains, so a
	// sort that does not keep equal keys in link order shows.
	b := NewBuilder()
	var rs [3][]RouterID
	for i := range rs {
		rs[i] = b.AddRouters(b.AddDomain(fmt.Sprint("P", i)), 4)
		for j := 1; j < 4; j++ {
			b.IntraLink(rs[i][j-1], rs[i][j], 1)
		}
	}
	for k := 0; k < 40; k++ {
		x, y := k%3, (k+1+k/3%2)%3
		b.Peer(rs[x][k%4], rs[y][(k/4)%4], int64(k+1))
	}
	parallel, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []*Network{ts, ring, parallel} {
		all := n.AllNeighbors()
		check := func(when string) {
			t.Helper()
			for _, asn := range n.ASNs() {
				want := n.Neighbors(asn)
				got := all[asn]
				if len(got) != len(want) {
					t.Fatalf("%sAS%d: AllNeighbors %d entries, Neighbors %d", when, asn, len(got), len(want))
				}
				for i := range want {
					if got[i].ASN != want[i].ASN || got[i].Rel != want[i].Rel || len(got[i].Links) != len(want[i].Links) {
						t.Fatalf("%sAS%d entry %d: %+v vs %+v", when, asn, i, got[i], want[i])
					}
					for j := range want[i].Links {
						if got[i].Links[j] != want[i].Links[j] {
							t.Fatalf("%sAS%d entry %d link %d differs", when, asn, i, j)
						}
					}
				}
			}
		}
		check("")
		for _, asn := range n.ASNs() {
			nbs := all[asn]
			for i := range nbs {
				_ = append(nbs[i].Links, InterLink{From: -1, To: -1})
			}
			_ = append(nbs, ASNeighbor{ASN: -1})
		}
		check("after appends: ")
	}
}

// TestTransitStubAllocBudget: a fleet-size world (400 domains, 20 000
// hosts) is built from slabs, sized lists and one name string, so its
// allocations are per domain, not per host. One heap Host and one
// formatted name each were about 4.4 allocations per host.
func TestTransitStubAllocBudget(t *testing.T) {
	const domains, hosts = 400, 50
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := TransitStub(4, 99, 0.3, GenConfig{Seed: 42, RoutersPerDomain: 2, HostsPerDomain: hosts}); err != nil {
			t.Fatal(err)
		}
	})
	perHost := allocs / (domains * hosts)
	t.Logf("%.0f allocations, %.3f per host", allocs, perHost)
	if perHost > 0.5 {
		t.Fatalf("%.3f allocations per host, budget 0.5", perHost)
	}
}
