package topology

import (
	"slices"
	"strings"
	"testing"

	"github.com/evolvable-net/evolve/internal/graph"
)

// buildPair returns a two-domain network: X (provider) — Z (customer),
// two routers each.
func buildPair(t *testing.T) (*Network, *Domain, *Domain) {
	t.Helper()
	b := NewBuilder()
	x := b.AddDomain("X")
	z := b.AddDomain("Z")
	xr := b.AddRouters(x, 2)
	zr := b.AddRouters(z, 2)
	b.IntraLink(xr[0], xr[1], 5)
	b.IntraLink(zr[0], zr[1], 5)
	b.Provide(xr[1], zr[0], 20)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n, x, z
}

func TestBuilderBasics(t *testing.T) {
	n, x, z := buildPair(t)
	if len(n.ASNs()) != 2 {
		t.Fatalf("ASNs = %v", n.ASNs())
	}
	if n.Domain(x.ASN).Name != "X" || n.DomainByName("Z").ASN != z.ASN {
		t.Error("domain lookup broken")
	}
	if n.DomainByName("nope") != nil {
		t.Error("missing domain should be nil")
	}
	if len(n.Routers) != 4 {
		t.Errorf("routers = %d", len(n.Routers))
	}
	// Border flags: xr[1] and zr[0] terminate the inter link.
	var borders []RouterID
	for _, rid := range x.Routers {
		if n.Router(rid).Border {
			borders = append(borders, rid)
		}
	}
	if len(borders) != 1 || n.Router(borders[0]).Name != "X-r1" {
		t.Errorf("X borders = %v", borders)
	}
}

// TestRestoreOfUpLinkIsRefused: restoring a link that is up adds no second
// copy — an intra link keeps its one edge (and cost), and one failure takes
// an inter link down — while a failed parallel inter link still comes back.
func TestRestoreOfUpLinkIsRefused(t *testing.T) {
	n, x, _ := buildPair(t)
	xr := x.Routers
	if n.RestoreIntraLink(xr[0], xr[1], 1) {
		t.Error("restoring the live intra link X-r0–X-r1 reported true")
	}
	if es := n.Intra.Neighbors(int(xr[0])); len(es) != 1 || es[0].Weight != 5 {
		t.Errorf("X-r0's edges after restoring a live link: %+v, want one at cost 5", es)
	}
	if !n.FailIntraLink(xr[0], xr[1]) || !n.RestoreIntraLink(xr[0], xr[1], 7) {
		t.Fatal("fail then restore of the intra link refused")
	}
	if es := n.Intra.Neighbors(int(xr[1])); len(es) != 1 || es[0].Weight != 7 {
		t.Errorf("X-r1's edges after fail and restore: %+v, want one at cost 7", es)
	}

	l := n.Inter[0]
	if n.RestoreInterLink(l) {
		t.Error("restoring the live inter link reported true")
	}
	if len(n.Inter) != 1 {
		t.Fatalf("%d inter links after restoring a live one, want 1", len(n.Inter))
	}
	if _, ok := n.FailInterLink(l.From, l.To); !ok || len(n.Inter) != 0 {
		t.Fatalf("fail of the inter link: ok=%v, %d left", ok, len(n.Inter))
	}
	if !n.RestoreInterLink(l) || n.RestoreInterLink(l) || len(n.Inter) != 1 {
		t.Errorf("restore, restore again: %d inter links, want 1", len(n.Inter))
	}

	// A ring of two one-router domains peers the pair twice, once each
	// way: a failed copy comes back beside its live twin, once.
	ring, err := RingOfDomains(2, GenConfig{RoutersPerDomain: 1, Seed: 1})
	if err != nil || len(ring.Inter) != 2 {
		t.Fatalf("ring of two: err=%v, %d inter links, want 2", err, len(ring.Inter))
	}
	twin, ok := ring.FailInterLink(ring.Inter[0].From, ring.Inter[0].To)
	if !ok || !ring.RestoreInterLink(twin) {
		t.Fatalf("fail (ok=%v) then restore of one parallel copy refused", ok)
	}
	if ring.RestoreInterLink(twin) || len(ring.Inter) != 2 {
		t.Errorf("parallel copy restored again: %d inter links, want 2", len(ring.Inter))
	}
}

func TestRouterAddressesUniqueAndInPrefix(t *testing.T) {
	n, _, _ := buildPair(t)
	seen := map[string]bool{}
	for _, r := range n.Routers {
		d := n.Domain(r.Domain)
		if !d.Prefix.Contains(r.Loopback) {
			t.Errorf("router %s loopback %s outside %s", r.Name, r.Loopback, d.Prefix)
		}
		s := r.Loopback.String()
		if seen[s] {
			t.Errorf("duplicate loopback %s", s)
		}
		seen[s] = true
	}
}

func TestNeighbors(t *testing.T) {
	n, x, z := buildPair(t)
	xn := n.Neighbors(x.ASN)
	if len(xn) != 1 || xn[0].ASN != z.ASN || xn[0].Rel != RelProvider {
		t.Fatalf("X neighbors = %+v", xn)
	}
	zn := n.Neighbors(z.ASN)
	if len(zn) != 1 || zn[0].ASN != x.ASN || zn[0].Rel != RelCustomer {
		t.Fatalf("Z neighbors = %+v", zn)
	}
	// Link orientation: From must be inside the subject domain.
	if n.DomainOf(zn[0].Links[0].From) != z.ASN {
		t.Error("neighbor link not reoriented")
	}
}

func TestRelInvert(t *testing.T) {
	if RelProvider.Invert() != RelCustomer || RelCustomer.Invert() != RelProvider || RelPeer.Invert() != RelPeer {
		t.Error("Invert wrong")
	}
	if RelProvider.String() != "provider" || RelCustomer.String() != "customer" || RelPeer.String() != "peer" {
		t.Error("String wrong")
	}
}

func TestIntraGraphStaysInsideDomain(t *testing.T) {
	n, x, z := buildPair(t)
	reach := n.Intra.Dijkstra(int(x.Routers[0])).Dist
	for _, rid := range z.Routers {
		if reach[rid] < graph.Inf {
			t.Error("intra graph leaks across domains")
		}
	}
}

func TestRouterGraphIncludesInterLinks(t *testing.T) {
	n, x, z := buildPair(t)
	g := n.RouterGraph()
	spt := g.Dijkstra(int(x.Routers[0]))
	// X-r0 →5→ X-r1 →20→ Z-r0 →5→ Z-r1
	if spt.Dist[z.Routers[1]] != 30 {
		t.Errorf("cross-domain dist = %d, want 30", spt.Dist[z.Routers[1]])
	}
}

func TestHosts(t *testing.T) {
	b := NewBuilder()
	x := b.AddDomain("X")
	rs := b.AddRouters(x, 1)
	h := b.AddHost(x, rs[0], "c", 3)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if h.Addr == n.Router(rs[0]).Loopback {
		t.Error("host shares router address")
	}
	if !x.Prefix.Contains(h.Addr) {
		t.Error("host address outside domain prefix")
	}
	if got := n.FindHost(h.Addr); got == nil || got.ID != h.ID {
		t.Error("FindHost failed")
	}
	if n.FindHost(0) != nil {
		t.Error("FindHost on unknown address should be nil")
	}
	if got := n.RouterByLoopback(n.Router(rs[0]).Loopback); got == nil || got.ID != rs[0] {
		t.Error("RouterByLoopback failed")
	}
	if hs := n.HostsIn(x.ASN); len(hs) != 1 || hs[0].Name != "c" {
		t.Errorf("HostsIn = %v", hs)
	}
}

// TestHostsInGroupsByDomain: HostsIn is the fleet grouped by domain in id
// order — on a generated internet and on a hand-built one whose AddHost
// calls interleave domains — every host's Rank is its index there, and
// answering it builds no address index.
func TestHostsInGroupsByDomain(t *testing.T) {
	ts, err := TransitStub(3, 4, 0.4, GenConfig{Seed: 7, RoutersPerDomain: 2, HostsPerDomain: 3})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder()
	x, z := b.AddDomain("X"), b.AddDomain("Z")
	rx, rz := b.AddRouter(x, ""), b.AddRouter(z, "")
	b.Peer(rx, rz, 1)
	for i := 0; i < 6; i++ {
		if i%3 == 1 {
			b.AddHost(z, rz, "", 1)
		} else {
			b.AddHost(x, rx, "", 1)
		}
	}
	hand, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []*Network{ts, hand} {
		want := map[ASN][]*Host{}
		for _, h := range n.Hosts {
			want[h.Domain] = append(want[h.Domain], h)
		}
		for _, asn := range n.ASNs() {
			if got := n.HostsIn(asn); !slices.Equal(got, want[asn]) {
				t.Errorf("HostsIn(AS%d) = %v, want %v", asn, got, want[asn])
			}
		}
		for _, h := range n.Hosts {
			if got := n.HostsIn(h.Domain)[h.Rank]; got != h {
				t.Errorf("HostsIn(AS%d)[%d] = %s, want %s", h.Domain, h.Rank, got.Name, h.Name)
			}
		}
		if n.HostsIn(0) != nil {
			t.Error("HostsIn of an unknown domain is not nil")
		}
		if n.hostByAddr != nil || n.routerByLoop != nil {
			t.Error("HostsIn built the address indexes")
		}
	}
}

func TestBuilderRejectsCrossDomainIntraLink(t *testing.T) {
	b := NewBuilder()
	x := b.AddDomain("X")
	z := b.AddDomain("Z")
	xr := b.AddRouter(x, "")
	zr := b.AddRouter(z, "")
	b.IntraLink(xr, zr, 1)
	if _, err := b.Build(); err == nil {
		t.Error("cross-domain intra link accepted")
	}
}

func TestBuilderRejectsIntraDomainInterLink(t *testing.T) {
	b := NewBuilder()
	x := b.AddDomain("X")
	rs := b.AddRouters(x, 2)
	b.IntraLink(rs[0], rs[1], 1)
	b.Peer(rs[0], rs[1], 1)
	if _, err := b.Build(); err == nil {
		t.Error("intra-domain inter link accepted")
	}
}

func TestBuilderRejectsPartitionedDomain(t *testing.T) {
	b := NewBuilder()
	x := b.AddDomain("X")
	b.AddRouters(x, 2) // no intra link between them
	if _, err := b.Build(); err == nil {
		t.Error("partitioned domain accepted")
	}
}

// TestBuilderRejectsProviderCycle: two domains that each provide the
// other, beside a hierarchy, are named in the error.
func TestBuilderRejectsProviderCycle(t *testing.T) {
	b := NewBuilder()
	var rs []RouterID
	for _, name := range []string{"T", "X", "Y"} {
		rs = append(rs, b.AddRouter(b.AddDomain(name), ""))
	}
	b.Provide(rs[0], rs[1], 1)
	b.Provide(rs[1], rs[2], 1)
	b.InterLink(rs[1], rs[2], RelCustomer, 1)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "cycle X → Y → X") {
		t.Errorf("err = %v, want the X–Y cycle", err)
	}
}

func TestBuilderRejectsEmpty(t *testing.T) {
	if _, err := NewBuilder().Build(); err == nil {
		t.Error("empty network accepted")
	}
	b := NewBuilder()
	b.AddDomain("X")
	if _, err := b.Build(); err == nil {
		t.Error("routerless domain accepted")
	}
}

func TestDomainPrefixesDisjoint(t *testing.T) {
	for a := ASN(1); a <= 50; a++ {
		for b := a + 1; b <= 50; b++ {
			if pa, pb := DomainPrefix(a), DomainPrefix(b); pa.Contains(pb.Addr) || pb.Contains(pa.Addr) {
				t.Fatalf("prefixes of AS%d and AS%d overlap", a, b)
			}
		}
	}
}

func checkGenerated(t *testing.T, n *Network, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	// Whole-internet connectivity at the router level.
	if !n.RouterGraph().Connected() {
		t.Error("generated internet not connected")
	}
	// Every inter link terminates at border routers of distinct domains.
	for _, l := range n.Inter {
		if n.DomainOf(l.From) == n.DomainOf(l.To) {
			t.Error("inter link inside a domain")
		}
		if !n.Router(l.From).Border || !n.Router(l.To).Border {
			t.Error("inter link endpoint not marked border")
		}
	}
}

func TestRingOfDomains(t *testing.T) {
	for _, style := range []IntraStyle{IntraRing, IntraStar, IntraGrid, IntraRandom} {
		n, err := RingOfDomains(5, GenConfig{Seed: 7, RoutersPerDomain: 5, HostsPerDomain: 2, Intra: style})
		checkGenerated(t, n, err)
		if len(n.ASNs()) != 5 {
			t.Errorf("style %d: domains = %d", style, len(n.ASNs()))
		}
		if len(n.Inter) != 5 {
			t.Errorf("style %d: inter links = %d, want 5", style, len(n.Inter))
		}
		if len(n.Hosts) != 10 {
			t.Errorf("style %d: hosts = %d", style, len(n.Hosts))
		}
	}
	if _, err := RingOfDomains(1, GenConfig{}); err == nil {
		t.Error("ring of 1 accepted")
	}
}

func TestTransitStub(t *testing.T) {
	n, err := TransitStub(3, 4, 0.5, GenConfig{Seed: 11, RoutersPerDomain: 3, HostsPerDomain: 1})
	checkGenerated(t, n, err)
	if len(n.ASNs()) != 3+12 {
		t.Errorf("domains = %d", len(n.ASNs()))
	}
	// Stubs must not provide transit: every stub is a customer on all its
	// inter-domain links.
	for _, asn := range n.ASNs() {
		d := n.Domain(asn)
		if d.Name[0] != 'S' {
			continue
		}
		for _, nb := range n.Neighbors(asn) {
			if nb.Rel != RelCustomer {
				t.Errorf("stub %s has non-customer relationship %s", d.Name, nb.Rel)
			}
		}
	}
	if _, err := TransitStub(0, 1, 0, GenConfig{}); err == nil {
		t.Error("zero transits accepted")
	}
}

func TestWaxman(t *testing.T) {
	n, err := Waxman(12, 0.6, 0.4, GenConfig{Seed: 3, RoutersPerDomain: 2})
	checkGenerated(t, n, err)
	if len(n.ASNs()) != 12 {
		t.Errorf("domains = %d", len(n.ASNs()))
	}
	if _, err := Waxman(1, 0.5, 0.5, GenConfig{}); err == nil {
		t.Error("waxman of 1 accepted")
	}
}

func TestBarabasiAlbert(t *testing.T) {
	n, err := BarabasiAlbert(15, 2, GenConfig{Seed: 5, RoutersPerDomain: 2})
	checkGenerated(t, n, err)
	if len(n.ASNs()) != 15 {
		t.Errorf("domains = %d", len(n.ASNs()))
	}
	// The first domain should have accumulated high degree (hub).
	first := n.ASNs()[0]
	if len(n.Neighbors(first)) < 2 {
		t.Errorf("hub degree = %d", len(n.Neighbors(first)))
	}
	if _, err := BarabasiAlbert(1, 1, GenConfig{}); err == nil {
		t.Error("BA of 1 accepted")
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a, err1 := TransitStub(2, 3, 0.3, GenConfig{Seed: 42, HostsPerDomain: 1})
	b, err2 := TransitStub(2, 3, 0.3, GenConfig{Seed: 42, HostsPerDomain: 1})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if len(a.Inter) != len(b.Inter) {
		t.Fatal("different inter-link counts for same seed")
	}
	for i := range a.Inter {
		if a.Inter[i] != b.Inter[i] {
			t.Fatalf("inter link %d differs: %+v vs %+v", i, a.Inter[i], b.Inter[i])
		}
	}
	for i := range a.Hosts {
		if a.Hosts[i].Addr != b.Hosts[i].Addr || a.Hosts[i].Attach != b.Hosts[i].Attach {
			t.Fatalf("host %d differs", i)
		}
	}
}

func TestWaxmanAndBADeterministic(t *testing.T) {
	// Every generator draws randomness only from cfg.Seed: equal seeds
	// must reproduce the topology exactly; a different seed must be free
	// to wire the internet differently.
	interLinks := func(n *Network) []InterLink { return n.Inter }

	w1, err1 := Waxman(8, 0.6, 0.4, GenConfig{Seed: 7, HostsPerDomain: 1})
	w2, err2 := Waxman(8, 0.6, 0.4, GenConfig{Seed: 7, HostsPerDomain: 1})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if len(interLinks(w1)) != len(interLinks(w2)) {
		t.Fatal("waxman: same seed, different link counts")
	}
	for i := range w1.Inter {
		if w1.Inter[i] != w2.Inter[i] {
			t.Fatalf("waxman: inter link %d differs", i)
		}
	}

	b1, err1 := BarabasiAlbert(10, 2, GenConfig{Seed: 7, HostsPerDomain: 1})
	b2, err2 := BarabasiAlbert(10, 2, GenConfig{Seed: 7, HostsPerDomain: 1})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if len(b1.Inter) != len(b2.Inter) {
		t.Fatal("ba: same seed, different link counts")
	}
	for i := range b1.Inter {
		if b1.Inter[i] != b2.Inter[i] {
			t.Fatalf("ba: inter link %d differs", i)
		}
	}
}
