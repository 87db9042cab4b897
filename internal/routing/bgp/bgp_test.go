package bgp

import (
	"runtime"
	"testing"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/topology"
)

// chain builds a provider chain T ← M ← S (T provides M, M provides S),
// one router each.
func chain(t *testing.T) (*topology.Network, [3]topology.ASN) {
	t.Helper()
	b := topology.NewBuilder()
	dT := b.AddDomain("T")
	dM := b.AddDomain("M")
	dS := b.AddDomain("S")
	rT := b.AddRouter(dT, "")
	rM := b.AddRouter(dM, "")
	rS := b.AddRouter(dS, "")
	b.Provide(rT, rM, 10)
	b.Provide(rM, rS, 10)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n, [3]topology.ASN{dT.ASN, dM.ASN, dS.ASN}
}

func TestChainPropagation(t *testing.T) {
	n, as := chain(t)
	s := NewSystem(n)
	s.Converge()
	// T reaches S's prefix through M.
	r, ok := s.BestRoute(as[0], n.Domain(as[2]).Prefix)
	if !ok {
		t.Fatal("T has no route to S")
	}
	if len(r.Path) != 2 || r.Path[0] != as[1] || r.Path[1] != as[2] {
		t.Errorf("path = %v", r.Path)
	}
	if r.Origin() != as[2] || r.NextHop() != as[1] {
		t.Errorf("origin %d nexthop %d", r.Origin(), r.NextHop())
	}
	// Everyone reaches everyone in a chain (customer routes export up,
	// provider routes export down).
	for _, a := range as {
		for _, b := range as {
			if _, ok := s.Lookup(a, n.Domain(b).Prefix.Addr+1); !ok {
				t.Errorf("AS%d has no route to AS%d", a, b)
			}
		}
	}
}

func TestSelfRouteWins(t *testing.T) {
	n, as := chain(t)
	s := NewSystem(n)
	r, ok := s.BestRoute(as[1], n.Domain(as[1]).Prefix)
	if !ok || len(r.Path) != 0 || r.LocalPref != prefSelf {
		t.Errorf("self route = %+v ok %v", r, ok)
	}
}

// valleyTopology: two stubs (A, B) both customers of two providers (P, Q);
// P and Q peer. The valley-free property forbids A→P→(peer)Q→B? No —
// peer-learned routes export to customers, so P→Q→B is fine; what is
// forbidden is transit *through* a customer or between two peers via a
// third: build stub X customer of P and Q, and check X never transits
// P→X→Q.
func TestNoCustomerTransit(t *testing.T) {
	b := topology.NewBuilder()
	dP := b.AddDomain("P")
	dQ := b.AddDomain("Q")
	dX := b.AddDomain("X")
	rP := b.AddRouter(dP, "")
	rQ := b.AddRouter(dQ, "")
	rX := b.AddRouter(dX, "")
	// X is a customer of both P and Q. P and Q are NOT directly connected.
	b.Provide(rP, rX, 10)
	b.Provide(rQ, rX, 10)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := NewSystem(n)
	s.Converge()
	// P must have no route to Q: the only physical path is through the
	// shared customer X, which must not provide transit.
	if _, ok := s.BestRoute(dP.ASN, n.Domain(dQ.ASN).Prefix); ok {
		t.Error("customer X leaked transit between its providers")
	}
	// But X reaches both.
	if _, ok := s.BestRoute(dX.ASN, n.Domain(dP.ASN).Prefix); !ok {
		t.Error("X cannot reach P")
	}
	if _, ok := s.BestRoute(dX.ASN, n.Domain(dQ.ASN).Prefix); !ok {
		t.Error("X cannot reach Q")
	}
}

func TestNoPeerToPeerTransit(t *testing.T) {
	// A —peer— B —peer— C: B must not give A a route to C.
	b := topology.NewBuilder()
	dA := b.AddDomain("A")
	dB := b.AddDomain("B")
	dC := b.AddDomain("C")
	rA := b.AddRouter(dA, "")
	rB := b.AddRouter(dB, "")
	rC := b.AddRouter(dC, "")
	b.Peer(rA, rB, 10)
	b.Peer(rB, rC, 10)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := NewSystem(n)
	s.Converge()
	if _, ok := s.BestRoute(dA.ASN, n.Domain(dC.ASN).Prefix); ok {
		t.Error("peer-learned route exported to another peer")
	}
	if _, ok := s.BestRoute(dA.ASN, n.Domain(dB.ASN).Prefix); !ok {
		t.Error("direct peer route missing")
	}
}

func TestPreferCustomerOverPeerOverProvider(t *testing.T) {
	// D originates a prefix reachable by X three ways: via customer C,
	// via peer P, via provider V. X must pick the customer route despite
	// equal path length.
	b := topology.NewBuilder()
	dX := b.AddDomain("X")
	dC := b.AddDomain("C")
	dP := b.AddDomain("P")
	dV := b.AddDomain("V")
	dD := b.AddDomain("D")
	rX := b.AddRouter(dX, "")
	rC := b.AddRouter(dC, "")
	rP := b.AddRouter(dP, "")
	rV := b.AddRouter(dV, "")
	rD := b.AddRouter(dD, "")
	b.Provide(rX, rC, 10) // C is X's customer
	b.Peer(rX, rP, 10)
	b.Provide(rV, rX, 10) // V is X's provider
	// D is a customer of all three of C, P, V, so each of them exports
	// D's prefix to X.
	b.Provide(rC, rD, 10)
	b.Provide(rP, rD, 10)
	b.Provide(rV, rD, 10)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := NewSystem(n)
	r, ok := s.BestRoute(dX.ASN, n.Domain(dD.ASN).Prefix)
	if !ok {
		t.Fatal("no route")
	}
	if r.NextHop() != dC.ASN {
		t.Errorf("next hop = AS%d, want customer AS%d", r.NextHop(), dC.ASN)
	}
	if r.LocalPref != prefCustomer {
		t.Errorf("localpref = %d", r.LocalPref)
	}
}

func TestShorterPathWinsAtEqualPref(t *testing.T) {
	// X's two customers C1 and C2 both lead to D: C1 directly (D customer
	// of C1), C2 via an extra hop (D customer of E, E customer of C2).
	b := topology.NewBuilder()
	dX := b.AddDomain("X")
	dC1 := b.AddDomain("C1")
	dC2 := b.AddDomain("C2")
	dE := b.AddDomain("E")
	dD := b.AddDomain("D")
	rX := b.AddRouter(dX, "")
	rC1 := b.AddRouter(dC1, "")
	rC2 := b.AddRouter(dC2, "")
	rE := b.AddRouter(dE, "")
	rD := b.AddRouter(dD, "")
	b.Provide(rX, rC1, 10)
	b.Provide(rX, rC2, 10)
	b.Provide(rC2, rE, 10)
	b.Provide(rC1, rD, 10)
	b.Provide(rE, rD, 10)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := NewSystem(n)
	r, ok := s.BestRoute(dX.ASN, n.Domain(dD.ASN).Prefix)
	if !ok || r.NextHop() != dC1.ASN || len(r.Path) != 2 {
		t.Errorf("route = %+v ok %v, want via C1", r, ok)
	}
}

func TestAnycastOption1MultiOrigin(t *testing.T) {
	// Ring of 6 peered domains; ASes 1 and 4 originate the same anycast
	// host prefix. Peer routes don't transit, so each AS only hears the
	// anycast from direct peers; adjacent ASes resolve to their neighbour.
	n, err := topology.RingOfDomains(6, topology.GenConfig{Seed: 1, RoutersPerDomain: 1})
	if err != nil {
		t.Fatal(err)
	}
	asns := n.ASNs()
	a, _ := addr.Option1Address(0)
	hp := addr.HostPrefix(a)
	s := NewSystem(n)
	s.Originate(asns[0], hp)
	s.Originate(asns[3], hp)
	s.Converge()
	// Ring is 0-1-2-3-4-5-0, peer links only: each AS hears the anycast
	// only from direct peers and resolves to the adjacent origin.
	r, ok := s.BestRoute(asns[1], hp)
	if !ok || r.Origin() != asns[0] {
		t.Errorf("AS%d anycast route = %+v ok %v", asns[1], r, ok)
	}
	r, ok = s.BestRoute(asns[2], hp)
	if !ok || r.Origin() != asns[3] {
		t.Errorf("AS%d anycast route = %+v ok %v", asns[2], r, ok)
	}
	r, ok = s.BestRoute(asns[4], hp)
	if !ok || r.Origin() != asns[3] {
		t.Errorf("AS%d anycast route = %+v ok %v", asns[4], r, ok)
	}
	// With a single origin, ASes two peer-hops away hear nothing (peer
	// routes are not re-exported to peers). This is exactly why option 1
	// requires ISPs to propagate anycast routes.
	s2 := NewSystem(n)
	s2.Originate(asns[0], hp)
	s2.Converge()
	if _, ok := s2.BestRoute(asns[2], hp); ok {
		t.Error("peer-only ring unexpectedly propagated anycast two hops")
	}
	if _, ok := s2.BestRoute(asns[1], hp); !ok {
		t.Error("adjacent peer lost the anycast route")
	}
}

func TestAnycastOption1ThroughProviders(t *testing.T) {
	// Transit-stub: anycast origin in one stub is reachable from every
	// other stub through the provider hierarchy.
	n, err := topology.TransitStub(2, 3, 0, topology.GenConfig{Seed: 3, RoutersPerDomain: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := addr.Option1Address(0)
	hp := addr.HostPrefix(a)
	origin := n.DomainByName("S0.0").ASN
	s := NewSystem(n)
	s.Originate(origin, hp)
	s.Converge()
	for _, asn := range n.ASNs() {
		r, ok := s.BestRoute(asn, hp)
		if asn == origin {
			continue
		}
		if !ok {
			t.Errorf("AS%d (%s) has no anycast route", asn, n.Domain(asn).Name)
			continue
		}
		if r.Origin() != origin {
			t.Errorf("AS%d anycast origin = %d", asn, r.Origin())
		}
	}
}

func TestOriginateToNoExport(t *testing.T) {
	n, as := chain(t) // T ← M ← S
	s := NewSystem(n)
	p := addr.MustParsePrefix("200.0.0.1/32")
	// S advertises the host route only to M; T must never see it.
	s.OriginateTo(as[2], p, as[1])
	s.Converge()
	r, ok := s.BestRoute(as[1], p)
	if !ok || !r.NoExport || r.Origin() != as[2] {
		t.Errorf("M's selective route = %+v ok %v", r, ok)
	}
	if _, ok := s.BestRoute(as[0], p); ok {
		t.Error("NO_EXPORT route leaked upstream to T")
	}
}

func TestWithdraw(t *testing.T) {
	n, as := chain(t)
	s := NewSystem(n)
	p := addr.MustParsePrefix("200.0.0.1/32")
	s.Originate(as[2], p)
	s.Converge()
	if _, ok := s.BestRoute(as[0], p); !ok {
		t.Fatal("route missing before withdraw")
	}
	if !s.Withdraw(as[2], p) {
		t.Fatal("withdraw reported nothing removed")
	}
	s.Converge()
	if _, ok := s.BestRoute(as[0], p); ok {
		t.Error("route survives withdrawal")
	}
	if s.Withdraw(as[2], p) {
		t.Error("second withdraw reported removal")
	}
}

func TestLookupLongestPrefix(t *testing.T) {
	n, as := chain(t)
	s := NewSystem(n)
	// S originates a /32 inside its own /16; T must pick the /32 route's
	// origin for that host but the /16 for others. (Both originate at S
	// here, but the point is LPM selects the more specific.)
	host := n.Domain(as[2]).Prefix.Addr + 77
	s.Originate(as[2], addr.HostPrefix(host))
	s.Converge()
	r, ok := s.Lookup(as[0], host)
	if !ok || r.Prefix.Len != 32 {
		t.Errorf("lookup host = %+v ok %v", r, ok)
	}
	r, ok = s.Lookup(as[0], host+1)
	if !ok || r.Prefix.Len != 16 {
		t.Errorf("lookup neighbour = %+v ok %v", r, ok)
	}
}

func TestASPath(t *testing.T) {
	n, as := chain(t)
	s := NewSystem(n)
	dst := n.Domain(as[2]).Prefix.Addr + 1
	path, ok := s.ASPath(as[0], dst)
	if !ok || len(path) != 3 || path[0] != as[0] || path[1] != as[1] || path[2] != as[2] {
		t.Errorf("ASPath = %v ok %v", path, ok)
	}
	// Path to self is just the AS.
	self, ok := s.ASPath(as[0], n.Domain(as[0]).Prefix.Addr+1)
	if !ok || len(self) != 1 {
		t.Errorf("self path = %v", self)
	}
}

func TestTableSizeGrowsWithOption1Groups(t *testing.T) {
	// The §3.2 scalability concern: every option-1 anycast group adds a
	// route to every AS's table.
	n, err := topology.TransitStub(2, 2, 0, topology.GenConfig{Seed: 9, RoutersPerDomain: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSystem(n)
	s.Converge()
	base := s.TableSize(n.ASNs()[0])
	origin := n.ASNs()[1]
	const groups = 5
	for g := uint32(0); g < groups; g++ {
		a, _ := addr.Option1Address(g)
		s.Originate(origin, addr.HostPrefix(a))
	}
	s.Converge()
	if got := s.TableSize(n.ASNs()[0]); got != base+groups {
		t.Errorf("table grew %d, want %d", got-base, groups)
	}
}

func TestConvergeDeterministic(t *testing.T) {
	n1, _ := topology.TransitStub(3, 3, 0.4, topology.GenConfig{Seed: 5})
	n2, _ := topology.TransitStub(3, 3, 0.4, topology.GenConfig{Seed: 5})
	s1, s2 := NewSystem(n1), NewSystem(n2)
	s1.Converge()
	s2.Converge()
	for _, asn := range n1.ASNs() {
		for _, other := range n1.ASNs() {
			p := n1.Domain(other).Prefix
			r1, ok1 := s1.BestRoute(asn, p)
			r2, ok2 := s2.BestRoute(asn, p)
			if ok1 != ok2 || (ok1 && !routeEqual(r1, r2)) {
				t.Fatalf("AS%d route to %s differs across identical runs", asn, p)
			}
		}
	}
}

func TestFullReachabilityTransitStub(t *testing.T) {
	n, err := topology.TransitStub(3, 4, 0.5, topology.GenConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSystem(n)
	s.Converge()
	for _, a := range n.ASNs() {
		for _, b := range n.ASNs() {
			if _, ok := s.BestRoute(a, n.Domain(b).Prefix); !ok {
				t.Errorf("AS%d (%s) cannot reach AS%d (%s)",
					a, n.Domain(a).Name, b, n.Domain(b).Name)
			}
		}
	}
}

func BenchmarkConvergeTransitStub(b *testing.B) {
	n, err := topology.TransitStub(4, 8, 0.3, topology.GenConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewSystem(n)
		s.Converge()
	}
}

// TestLazyMatchesEager checks that querying prefixes lazily (no Converge
// call) yields exactly the routing that a full up-front Converge does,
// including across an OriginateTo that invalidates one prefix.
func TestLazyMatchesEager(t *testing.T) {
	n, err := topology.TransitStub(3, 5, 0.4, topology.GenConfig{Seed: 33, RoutersPerDomain: 2, HostsPerDomain: 1})
	if err != nil {
		t.Fatal(err)
	}
	lazy := NewSystem(n)
	eager := NewSystem(n)
	eager.Converge()

	compare := func() {
		t.Helper()
		for _, asn := range n.ASNs() {
			for _, dstASN := range n.ASNs() {
				p := n.Domain(dstASN).Prefix
				lr, lok := lazy.BestRoute(asn, p)
				er, eok := eager.BestRoute(asn, p)
				if lok != eok || (lok && !routeEqual(lr, er)) {
					t.Fatalf("BestRoute(AS%d, %v): lazy %v/%v vs eager %v/%v", asn, p, lr, lok, er, eok)
				}
				dst := n.Domain(dstASN).Prefix.Addr
				lr, lok = lazy.Lookup(asn, dst)
				er, eok = eager.Lookup(asn, dst)
				if lok != eok || (lok && !routeEqual(lr, er)) {
					t.Fatalf("Lookup(AS%d, %v): lazy vs eager differ", asn, dst)
				}
				lp, lok := lazy.ASPath(asn, dst)
				ep, eok := eager.ASPath(asn, dst)
				if lok != eok || len(lp) != len(ep) {
					t.Fatalf("ASPath(AS%d, %v): lazy %v vs eager %v", asn, dst, lp, ep)
				}
				for i := range lp {
					if lp[i] != ep[i] {
						t.Fatalf("ASPath(AS%d, %v): lazy %v vs eager %v", asn, dst, lp, ep)
					}
				}
			}
			if ls, es := lazy.TableSize(asn), eager.TableSize(asn); ls != es {
				t.Fatalf("TableSize(AS%d): lazy %d vs eager %d", asn, ls, es)
			}
		}
	}
	compare()

	// Mutate one prefix on both and re-compare: the lazy system must
	// invalidate exactly that prefix and reconverge it on demand.
	anycastAS := n.ASNs()[0]
	host := addr.Prefix{Addr: n.Domain(anycastAS).Prefix.Addr + 7, Len: 32}
	peer := lazy.net.AllNeighbors()[anycastAS][0].ASN
	lazy.OriginateTo(anycastAS, host, peer)
	eager.OriginateTo(anycastAS, host, peer)
	eager.Converge()
	compare()
}

// TestConvergedStateIsCompact pins what a prefix's state costs at
// cold_start's size (4000 ASes). Asked at one AS, as a walk's first hop
// asks, it retains under 6 KB: the page pointers (8 bytes per 64 ASes),
// the 512-byte pages creation and that fill wrote to, and their few
// paths. Resolved at every AS it retains under 160 KB — every page and one
// arena of path entries, against ≈590 KB for the map of Routes the
// records replaced. On a 400-AS internet, where a partial last page and
// the page pointers weigh most, a state resolved at every AS stays within
// 15 % of the dense layout's one word per AS. A warm Lookup allocates
// nothing.
func TestConvergedStateIsCompact(t *testing.T) {
	if testing.Short() {
		t.Skip("4000-AS internet")
	}
	n, err := topology.TransitStub(40, 99, 0.3, topology.GenConfig{Seed: 11, RoutersPerDomain: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSystem(n)
	asns := n.ASNs()
	const prefixes = 50
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	var dsts []addr.Prefix
	for i := 0; i < prefixes; i++ {
		p := n.Domain(asns[len(asns)-1-i*70]).Prefix
		if _, ok := s.Lookup(asns[i], p.Addr+1); !ok {
			t.Fatalf("AS%d has no route to %v", asns[i], p)
		}
		dsts = append(dsts, p)
	}
	walked := (heap() - before) / prefixes
	t.Logf("%d B retained per prefix asked at one AS", walked)
	if walked > 6<<10 {
		t.Errorf("%d B retained per prefix asked at one AS, want under 6 KB", walked)
	}
	for _, p := range dsts {
		for _, asn := range asns {
			s.BestRoute(asn, p)
		}
	}
	resolved := (heap() - before) / prefixes
	t.Logf("%d B retained per prefix resolved at every AS", resolved)
	if resolved > 160<<10 {
		t.Errorf("%d B retained per prefix resolved at every AS, want under 160 KB", resolved)
	}

	from, dst := asns[0], n.Domain(asns[len(asns)-1]).Prefix.Addr+1
	if allocs := testing.AllocsPerRun(100, func() { s.Lookup(from, dst) }); allocs != 0 {
		t.Errorf("warm Lookup allocates %.0f times, want 0", allocs)
	}
	runtime.KeepAlive(s)

	small, err := topology.TransitStub(4, 99, 0.3, topology.GenConfig{Seed: 11, RoutersPerDomain: 1})
	if err != nil {
		t.Fatal(err)
	}
	s = NewSystem(small)
	asns = small.ASNs()
	before = heap()
	for i := 0; i < prefixes; i++ {
		p := small.Domain(asns[len(asns)-1-i*7]).Prefix
		for _, asn := range asns {
			s.BestRoute(asn, p)
		}
	}
	resolved = (heap() - before) / prefixes
	t.Logf("%d B retained per prefix resolved at every AS of %d", resolved, len(asns))
	// The dense layout retained 12 532 B here; 15 % over it is the bound.
	const bound = 12532 * 115 / 100
	if resolved > bound {
		t.Errorf("%d B retained per prefix resolved at every AS of %d, want under %d B", resolved, len(asns), bound)
	}
	runtime.KeepAlive(s)
}
