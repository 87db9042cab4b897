package bgp

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/topology"
)

// referenceConverge is the round-robin fixpoint fixpointLocked replaced,
// kept as the oracle TestDeltaMatchesReferenceFixpoint compares against:
// every round visits every AS, builds every inbox and allocates every
// advert. It returns each AS's selected route for p (absent = no route)
// and the number of rounds run, the final unchanged one included. The
// caller holds s.mu.
func referenceConverge(s *System, p addr.Prefix) (map[topology.ASN]Route, int) {
	asns := s.net.ASNs()

	// ASes holding an origination of p, with the entries in injection
	// order. Precomputed so each round touches origination state only
	// where it exists.
	origs := map[topology.ASN][]origination{}
	for _, asn := range asns {
		for _, o := range s.originated[asn] {
			if o.prefix == p {
				origs[asn] = append(origs[asn], o)
			}
		}
	}

	best := map[topology.ASN]Route{}
	rounds := 0
	for {
		rounds++
		changed := false
		// Gather adverts destined to each AS from the previous round.
		// Self-originations advertise into one's own inbox at LocalPref
		// prefSelf so they always win locally. Selective originations
		// carry NO_EXPORT so the ordinary export below never
		// re-advertises them; only the dedicated selective-advert loop
		// does.
		inbox := map[topology.ASN][]Route{}
		for _, from := range asns {
			fromOrigs := origs[from]
			for _, o := range fromOrigs {
				inbox[from] = append(inbox[from], Route{
					Prefix:    p,
					LocalPref: prefSelf,
					NoExport:  o.exportTo != nil,
				})
			}
			r, has := best[from]
			if !has && len(fromOrigs) == 0 {
				continue
			}
			for _, nb := range s.neighbors[from] {
				rel := nb.Rel // from's relationship toward nb
				// Ordinary best route.
				if has && exportsTo(r, rel) {
					inbox[nb.ASN] = append(inbox[nb.ASN], Route{
						Prefix:       p,
						Path:         append([]topology.ASN{from}, r.Path...),
						LocalPref:    prefFor(rel.Invert()),
						FromCustomer: rel.Invert() == topology.RelProvider,
					})
				}
				// Selective originations.
				for _, o := range fromOrigs {
					if o.exportTo == nil || !o.exportTo[nb.ASN] {
						continue
					}
					inbox[nb.ASN] = append(inbox[nb.ASN], Route{
						Prefix:       p,
						Path:         []topology.ASN{from},
						LocalPref:    prefFor(rel.Invert()),
						NoExport:     true,
						FromCustomer: rel.Invert() == topology.RelProvider,
					})
				}
			}
		}
		// Decision process per AS: first-seen wins ties, matching the
		// inbox build order above.
		for _, asn := range asns {
			var cur Route
			curOK := false
			for _, cand := range inbox[asn] {
				if cand.hasLoop(asn) {
					continue
				}
				if !curOK || better(cand, cur) {
					cur, curOK = cand, true
				}
			}
			prev, prevOK := best[asn]
			if curOK != prevOK || (curOK && !routeEqual(prev, cur)) {
				changed = true
			}
			if curOK {
				best[asn] = cur
			} else {
				delete(best, asn)
			}
		}
		if !changed {
			break
		}
		if rounds > 4*len(asns)+8 {
			// Gao-Rexford-safe configurations converge in O(diameter);
			// this bound only trips on genuinely unsafe policy.
			panic(fmt.Sprintf("bgp: no convergence after %d rounds", rounds))
		}
	}
	return best, rounds
}

// checkAgainstReference compares fixpointLocked with referenceConverge
// on the given prefixes (nil: every originated prefix): every AS's route
// and the round count.
func checkAgainstReference(t *testing.T, s *System, step string, prefixes ...addr.Prefix) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if prefixes == nil {
		s.index.Walk(func(p addr.Prefix, _ []topology.ASN) bool {
			prefixes = append(prefixes, p)
			return true
		})
	}
	for _, p := range prefixes {
		want, wantRounds := referenceConverge(s, p)
		st, rounds := s.fixpointLocked(p)
		if rounds != wantRounds {
			t.Fatalf("%s: %v converged in %d rounds, reference in %d", step, p, rounds, wantRounds)
		}
		for i, asn := range s.net.ASNs() {
			got, ok := st.route(p, int32(i))
			ref, refOK := want[asn]
			if ok != refOK || (ok && !RouteEqual(got, ref)) {
				t.Fatalf("%s: AS%d route for %v = %+v/%v, reference %+v/%v", step, asn, p, got, ok, ref, refOK)
			}
		}
	}
}

// TestDeltaMatchesReferenceFixpoint drives seeded internets through every
// kind of input the fixpoint reads — multi-origin anycast prefixes,
// selective adverts beside a normal origination at the same AS (in both
// injection orders), withdrawal, suspend/restore, inter-link failure and
// repair — and holds the delta-round fixpoint to the round-robin one.
func TestDeltaMatchesReferenceFixpoint(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var n *topology.Network
		var err error
		if seed%2 == 0 {
			transits := 2 + rng.Intn(5)
			n, err = topology.TransitStub(transits, 4+rng.Intn(190/transits-3), rng.Float64(),
				topology.GenConfig{Seed: seed, RoutersPerDomain: 2})
		} else {
			n, err = topology.BarabasiAlbert(10+rng.Intn(191), 1+rng.Intn(3),
				topology.GenConfig{Seed: seed, RoutersPerDomain: 1})
		}
		if err != nil {
			t.Fatal(err)
		}
		asns := n.ASNs()
		if len(asns) < 10 || len(asns) > 200 {
			t.Fatalf("seed %d: %d ASes, want 10–200", seed, len(asns))
		}
		s := NewSystem(n)
		pick := func() topology.ASN { return asns[rng.Intn(len(asns))] }
		// targets picks up to k of asn's neighbours, plus one AS that may
		// not be adjacent at all (the advert then reaches nobody).
		targets := func(asn topology.ASN, k int) []topology.ASN {
			out := []topology.ASN{pick()}
			nbs := s.neighbors[asn]
			for i := 0; i < k && len(nbs) > 0; i++ {
				out = append(out, nbs[rng.Intn(len(nbs))].ASN)
			}
			return out
		}
		checkAgainstReference(t, s, fmt.Sprintf("seed %d base", seed))

		// Option-1 anycast: one host prefix, several origins; and a second
		// one inside an aggregate, as option 2 places it.
		any1 := addr.HostPrefix(addr.V4FromOctets(240, 0, 0, 1))
		any2 := addr.HostPrefix(n.Domain(pick()).Prefix.Addr + 9)
		first := pick()
		s.Originate(first, any1)
		for i := 0; i < 1+rng.Intn(4); i++ {
			s.Originate(pick(), any1)
		}
		// Normal then selective at one AS, selective then normal at
		// another, selective alone at a third.
		a, b, c := pick(), pick(), pick()
		s.Originate(a, any2)
		s.OriginateTo(a, any2, targets(a, 2)...)
		s.OriginateTo(b, any1, targets(b, 3)...)
		s.Originate(b, any1)
		s.OriginateTo(c, any2, targets(c, 2)...)
		checkAgainstReference(t, s, fmt.Sprintf("seed %d anycast", seed), any1, any2)

		s.Withdraw(first, any1)
		checkAgainstReference(t, s, fmt.Sprintf("seed %d withdraw", seed), any1)

		restore, _ := s.SuspendOriginations(b, any1)
		checkAgainstReference(t, s, fmt.Sprintf("seed %d suspend", seed), any1)
		restore()
		checkAgainstReference(t, s, fmt.Sprintf("seed %d restore", seed), any1)

		var failed []topology.InterLink
		for i := 0; i < 1+len(n.Inter)/10; i++ {
			l := n.Inter[rng.Intn(len(n.Inter))]
			if l, ok := n.FailInterLink(l.From, l.To); ok {
				failed = append(failed, l)
			}
		}
		s.Refresh()
		checkAgainstReference(t, s, fmt.Sprintf("seed %d links failed", seed))
		for _, l := range failed {
			n.RestoreInterLink(l)
		}
		s.Refresh()
		checkAgainstReference(t, s, fmt.Sprintf("seed %d links restored", seed), any1, any2)
	}
}
