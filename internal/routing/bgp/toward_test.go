package bgp

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/topology"
)

// referenceLookupLocked is the per-call lookup Toward replaced, kept as the
// oracle of TestTowardMatchesLookup (Lookup itself is now a view used
// once): it walks the prefix trie for dst and probes the state map per
// prefix, stopping at the first prefix whose state is missing. The caller
// holds s.mu.
func referenceLookupLocked(s *System, i int32, dst addr.V4) (r Route, ok bool, need addr.Prefix, missing bool) {
	s.index.Matches(dst, func(p addr.Prefix, _ []topology.ASN) bool {
		st := s.states[p]
		if st == nil {
			need, missing = p, true
			return false
		}
		r, ok = st.route(p, i)
		return !ok
	})
	return r, ok, need, missing
}

// referenceLookup is the old Lookup: one read lock and one trie walk per
// call, converging what it finds missing.
func referenceLookup(s *System, asn topology.ASN, dst addr.V4) (Route, bool) {
	for {
		s.mu.RLock()
		i, known := s.asIdx[asn]
		if !known {
			s.mu.RUnlock()
			return Route{}, false
		}
		r, ok, need, missing := referenceLookupLocked(s, i, dst)
		s.mu.RUnlock()
		if !missing {
			return r, ok
		}
		s.convergeMissing(need)
	}
}

// referenceLinksBetween is the old LinksBetween: a scan of a's neighbours.
func referenceLinksBetween(s *System, a, b topology.ASN) []topology.InterLink {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, nb := range s.neighbors[a] {
		if nb.ASN == b {
			return nb.Links
		}
	}
	return nil
}

func converged(s *System, p addr.Prefix) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.states[p] != nil
}

// TestRoutePathIsNextHopsPath pins what a forwarding walk relies on when
// its destination's match chain is one prefix (Toward.Prefixes): for
// every prefix and every AS holding a route with a non-empty path, the
// next hop's route for that prefix has exactly the rest of the path. It
// runs on the forwarding reference's worlds — quiescent, after an intra
// and an inter link failure, with selective (NO_EXPORT) adverts and with a
// multi-origin anycast prefix — and on the benchmark fleet's internet.
func TestRoutePathIsNextHopsPath(t *testing.T) {
	check := func(s *System, label string) (routes int) {
		t.Helper()
		var prefixes []addr.Prefix
		s.mu.RLock()
		s.index.Walk(func(p addr.Prefix, _ []topology.ASN) bool {
			prefixes = append(prefixes, p)
			return true
		})
		s.mu.RUnlock()
		for _, p := range prefixes {
			for _, asn := range s.net.ASNs() {
				r, ok := s.BestRoute(asn, p)
				if !ok || len(r.Path) == 0 {
					continue
				}
				next, ok := s.BestRoute(r.Path[0], p)
				if !ok || !slices.Equal(next.Path, r.Path[1:]) {
					t.Fatalf("%s: %v: AS%d holds %v, its next hop AS%d holds %v, %v", label, p, asn, r.Path, r.Path[0], next.Path, ok)
				}
				routes++
			}
		}
		return routes
	}
	for _, rpd := range []int{2, 3} {
		for _, seed := range []int64{1, 2, 3} {
			n, err := topology.TransitStub(3, 4, 0.5, topology.GenConfig{Seed: seed, RoutersPerDomain: rpd, HostsPerDomain: 2})
			if err != nil {
				t.Fatal(err)
			}
			s := NewSystem(n)
			label := func(step string) string { return fmt.Sprintf("rpd=%d seed=%d %s", rpd, seed, step) }
			check(s, label("quiescent"))

			asns := n.ASNs()
			tr := n.Domain(asns[0]).Routers
			n.FailIntraLink(tr[0], tr[1])
			il := n.Inter[len(n.Inter)/2]
			if _, ok := n.FailInterLink(il.From, il.To); !ok {
				t.Fatal("no inter link")
			}
			s.Refresh()
			check(s, label("links failed"))

			stub := n.Domain(asns[len(asns)-1])
			s.OriginateTo(stub.ASN, addr.HostPrefix(n.HostsIn(stub.ASN)[0].Addr), n.DomainOf(n.Inter[len(n.Inter)-1].From))
			foreign := asns[1]
			var nbrs []topology.ASN
			for _, nb := range n.Neighbors(foreign) {
				nbrs = append(nbrs, nb.ASN)
			}
			s.OriginateTo(foreign, addr.HostPrefix(stub.Prefix.Addr+1), nbrs...)
			check(s, label("selective adverts"))

			any1 := addr.HostPrefix(addr.V4FromOctets(240, 0, 0, 1))
			for _, asn := range []topology.ASN{asns[0], asns[len(asns)/2], stub.ASN} {
				s.Originate(asn, any1)
			}
			if check(s, label("anycast")) == 0 {
				t.Fatalf("%s: no route checked", label("anycast"))
			}
		}
	}
	fleet, err := topology.TransitStub(4, 99, 0.3, topology.GenConfig{Seed: 42, RoutersPerDomain: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := check(NewSystem(fleet), "fleet"), 400*399; got != want {
		t.Errorf("fleet: checked %d routes, want %d (every AS to every other's aggregate)", got, want)
	}
}

// TestTowardMatchesLookup holds the per-destination view to the per-call
// lookup it replaced: for every AS and a sample of destinations, through
// origination changes and re-indexing, a view taken while its chain was
// unconverged answers what the reference answers — converging no more
// than the reference would — and a view that outlives a re-index keeps
// answering from its own tables.
func TestTowardMatchesLookup(t *testing.T) {
	n, err := topology.TransitStub(3, 5, 0.5, topology.GenConfig{Seed: 9, RoutersPerDomain: 2, HostsPerDomain: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSystem(n)
	asns := n.ASNs()
	stub := n.Domain(asns[len(asns)-1])
	target := stub.Prefix.Addr + 9

	dsts := []addr.V4{target, addr.MustParseV4("250.1.2.3")}
	for _, asn := range asns {
		dsts = append(dsts, n.Domain(asn).Prefix.Addr+1)
	}
	check := func(step string) {
		t.Helper()
		for _, dst := range dsts {
			// The view is resolved first, so after an invalidating step it
			// holds unconverged links and has to converge them itself.
			var v Toward
			s.Toward(dst, &v)
			for _, asn := range append([]topology.ASN{-5, 9999}, asns...) {
				got, ok := v.Lookup(asn)
				want, wok := referenceLookup(s, asn, dst)
				if ok != wok || (ok && !routeEqual(got, want)) {
					t.Fatalf("%s: Toward(%v).Lookup(AS%d) = %v, %v; reference %v, %v", step, dst, asn, got, ok, want, wok)
				}
				if l, lok := s.Lookup(asn, dst); lok != wok || (lok && !routeEqual(l, want)) {
					t.Fatalf("%s: Lookup(AS%d, %v) = %v, %v; reference %v, %v", step, asn, dst, l, lok, want, wok)
				}
			}
		}
		var v Toward
		s.Toward(target, &v)
		for _, a := range append([]topology.ASN{-5}, asns...) {
			for _, b := range append([]topology.ASN{9999}, asns...) {
				want := referenceLinksBetween(s, a, b)
				if got := v.LinksBetween(a, b); !slices.Equal(got, want) {
					t.Fatalf("%s: view LinksBetween(AS%d, AS%d) = %v, reference %v", step, a, b, got, want)
				}
			}
		}
	}
	check("fresh")
	check("converged")

	// A chain six prefixes deep — past the view's inline array — whose
	// links are each known to a different set of ASes.
	nbrs := func(asn topology.ASN) (out []topology.ASN) {
		for _, nb := range n.AllNeighbors()[asn] {
			out = append(out, nb.ASN)
		}
		return out
	}
	host := addr.HostPrefix(target)
	s.OriginateTo(stub.ASN, host, nbrs(stub.ASN)...)
	for i, l := range []uint8{28, 24, 20} {
		s.OriginateTo(asns[i], addr.MakePrefix(target, l), nbrs(asns[i])[i:]...)
	}
	s.Originate(asns[1], addr.MakePrefix(target, 12))
	check("deep chain")

	// Laziness: an AS the /32 answers leaves the rest of the chain
	// unconverged.
	s.Refresh()
	var lazy Toward
	s.Toward(target, &lazy)
	if r, ok := lazy.Lookup(nbrs(stub.ASN)[0]); !ok || r.Prefix != host {
		t.Fatalf("neighbour's route to %v = %v, %v; want the /32", target, r, ok)
	}
	if !converged(s, host) || converged(s, stub.Prefix) || converged(s, addr.MakePrefix(target, 24)) {
		t.Errorf("after one /32 answer: converged /32 %v, /24 %v, aggregate %v; want only the /32",
			converged(s, host), converged(s, addr.MakePrefix(target, 24)), converged(s, stub.Prefix))
	}
	check("after refresh")

	s.Withdraw(asns[1], addr.MakePrefix(target, 12))
	check("withdrawn /12")
	restore, found := s.SuspendOriginations(stub.ASN, host)
	if !found {
		t.Fatal("no /32 to suspend")
	}
	check("suspended /32")
	restore()
	check("restored /32")
	s.Withdraw(stub.ASN, stub.Prefix)
	check("withdrawn aggregate")
	s.Originate(stub.ASN, stub.Prefix)
	check("re-originated aggregate")

	// A converged view outlives a re-index and every later change: it
	// answers what it answered, from its own tables.
	var old Toward
	s.Toward(target, &old)
	was := map[topology.ASN]Route{}
	for _, asn := range asns {
		if r, ok := old.Lookup(asn); ok {
			was[asn] = r
		}
	}
	upstream := nbrs(stub.ASN)[0]
	oldLinks := old.LinksBetween(stub.ASN, upstream)
	il := n.Inter[len(n.Inter)-1]
	failed, ok := n.FailInterLink(il.From, il.To)
	if !ok {
		t.Fatal("no inter link")
	}
	s.Refresh()
	s.Withdraw(stub.ASN, host)
	check("link failed")
	for _, asn := range asns {
		r, ok := old.Lookup(asn)
		if w, wok := was[asn]; ok != wok || (ok && !routeEqual(r, w)) {
			t.Fatalf("stale view Lookup(AS%d) = %v, %v; it answered %v, %v", asn, r, ok, w, wok)
		}
	}
	if got := old.LinksBetween(stub.ASN, upstream); len(oldLinks) == 0 || !slices.Equal(got, oldLinks) {
		t.Errorf("stale view LinksBetween = %v, was %v", got, oldLinks)
	}

	// A view with an unconverged link, taken before a re-index, resolves
	// again on the new tables instead of indexing across them.
	n.RestoreInterLink(failed)
	s.Refresh()
	var torn Toward
	s.Toward(target, &torn)
	n.FailInterLink(il.From, il.To)
	s.Refresh()
	for _, asn := range asns {
		got, ok := torn.Lookup(asn)
		want, wok := referenceLookup(s, asn, target)
		if ok != wok || (ok && !routeEqual(got, want)) {
			t.Fatalf("re-resolved view Lookup(AS%d) = %v, %v; reference %v, %v", asn, got, ok, want, wok)
		}
	}
	n.RestoreInterLink(failed)
	s.Refresh()
	check("link restored")

	// Views racing mutators (run under -race): answers may come from
	// either side of a change; the views must not race or panic.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var v Toward
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s.Toward(dsts[(i+g)%len(dsts)], &v)
				for _, asn := range asns {
					if r, ok := v.Lookup(asn); ok && r.NextHop() != -1 {
						v.LinksBetween(asn, r.NextHop())
					}
				}
			}
		}(g)
	}
	stubNbrs := nbrs(stub.ASN)
	for i := 0; i < 30; i++ {
		switch i % 3 {
		case 0:
			s.OriginateTo(stub.ASN, host, stubNbrs...)
		case 1:
			s.Refresh()
		case 2:
			s.Withdraw(stub.ASN, host)
		}
	}
	close(stop)
	wg.Wait()
	check("after the race")
}
