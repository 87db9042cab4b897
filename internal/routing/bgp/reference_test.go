package bgp

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/topology"
)

// referenceConverge is the round-robin synchronous fixpoint the prefix
// states replaced, kept as the oracle they are held to: every round visits
// every AS, builds every inbox and allocates every advert, until a round
// changes nothing. Its inputs are the ASes (ascending), their adjacency
// and origs, each AS's originations of p in injection order; it returns
// each AS's selected route for p (absent = no route).
func referenceConverge(asns []topology.ASN, neighbors map[topology.ASN][]topology.ASNeighbor,
	origs map[topology.ASN][]origination, p addr.Prefix) map[topology.ASN]Route {
	best := map[topology.ASN]Route{}
	for rounds := 1; ; rounds++ {
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
			for _, nb := range neighbors[from] {
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
				if slices.Contains(cand.Path, asn) {
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
			return best
		}
		if rounds > 4*len(asns)+8 {
			// Gao-Rexford-safe configurations converge in O(diameter);
			// this bound only trips on genuinely unsafe policy.
			panic(fmt.Sprintf("bgp: no convergence after %d rounds", rounds))
		}
	}
}

// referenceLocked is referenceConverge on the system's current tables and
// originations. The caller holds s.mu.
func referenceLocked(s *System, p addr.Prefix) map[topology.ASN]Route {
	origs := map[topology.ASN][]origination{}
	for _, asn := range s.asns {
		for _, o := range s.originated[asn] {
			if o.prefix == p {
				origs[asn] = append(origs[asn], o)
			}
		}
	}
	return referenceConverge(s.asns, s.neighbors, origs, p)
}

// referenceOfState is referenceConverge on what st captured when it was
// created: its ASes and originations, and neighbors, the adjacency of the
// same generation.
func referenceOfState(st *prefixState, neighbors map[topology.ASN][]topology.ASNeighbor, p addr.Prefix) map[topology.ASN]Route {
	origs := map[topology.ASN][]origination{}
	for _, o := range st.origs {
		asn := st.asns[o.idx]
		origs[asn] = append(origs[asn], origination{prefix: p, exportTo: o.exportTo})
	}
	return referenceConverge(st.asns, neighbors, origs, p)
}

// checkAgainstReference holds on-demand states to referenceConverge on
// the given prefixes (nil: every originated prefix): for each, three
// fresh states are asked for every AS's route, in ascending, descending
// and seeded-random position order, and every answer must be the
// reference's.
func checkAgainstReference(t *testing.T, s *System, rng *rand.Rand, step string, prefixes ...addr.Prefix) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if prefixes == nil {
		s.index.Walk(func(p addr.Prefix, _ []topology.ASN) bool {
			prefixes = append(prefixes, p)
			return true
		})
	}
	ascending := make([]int32, len(s.asns))
	for i := range ascending {
		ascending[i] = int32(i)
	}
	descending := slices.Clone(ascending)
	slices.Reverse(descending)
	for _, p := range prefixes {
		want := referenceLocked(s, p)
		shuffled := slices.Clone(ascending)
		rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
		for k, order := range [][]int32{ascending, descending, shuffled} {
			st := s.newPrefixStateLocked(p)
			for _, i := range order {
				asn := s.asns[i]
				got, ok := st.route(p, i)
				ref, refOK := want[asn]
				if ok != refOK || (ok && !routeEqual(got, ref)) {
					t.Fatalf("%s: order %d: AS%d route for %v = %+v/%v, reference %+v/%v", step, k, asn, p, got, ok, ref, refOK)
				}
			}
		}
	}
}

// TestConcurrentFillsMatchReference races 64 readers through the same
// cold prefixes — every AS, in each reader's own shuffled order, so fills
// of one state collide — against a mutator that originates, withdraws,
// suspends and re-indexes. Every answer must be the reference routing of
// the generation the reader's view holds: the tables and originations its
// states captured, and the view's adjacency. Then 64 readers race the
// first writes to 64 distinct record pages of one cold state.
func TestConcurrentFillsMatchReference(t *testing.T) {
	n, err := topology.BarabasiAlbert(60, 2, topology.GenConfig{Seed: 5, RoutersPerDomain: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSystem(n)
	asns := n.ASNs()
	a, b, stub := asns[3], asns[17], asns[len(asns)-1]
	var stubNbrs []topology.ASN
	for _, nb := range n.Neighbors(stub) {
		stubNbrs = append(stubNbrs, nb.ASN)
	}
	host := addr.HostPrefix(n.Domain(stub).Prefix.Addr + 9)
	any1 := addr.HostPrefix(addr.V4FromOctets(240, 0, 0, 1))
	dsts := []addr.V4{host.Addr, any1.Addr, n.Domain(asns[0]).Prefix.Addr + 1}

	var refMu sync.Mutex
	refs := map[*prefixState]map[topology.ASN]Route{}
	// expect answers Lookup(asn) on v from the reference of each state on
	// v's chain, longest prefix first.
	expect := func(v *Toward, asn topology.ASN) (Route, bool, error) {
		for k := 0; k < v.n; k++ {
			c := v.link(k)
			if c.st == nil {
				return Route{}, false, fmt.Errorf("%v has no state, yet Lookup answered past it", c.prefix)
			}
			refMu.Lock()
			ref, ok := refs[c.st]
			if !ok {
				ref = referenceOfState(c.st, v.neighbors, c.prefix)
				refs[c.st] = ref
			}
			refMu.Unlock()
			if r, ok := ref[asn]; ok {
				return r, true, nil
			}
		}
		return Route{}, false, nil
	}

	var step, views atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			order := slices.Clone(asns)
			var v Toward
			for !stop.Load() {
				rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				s.Toward(dsts[step.Load()%int64(len(dsts))], &v)
				for _, asn := range order {
					got, ok := v.Lookup(asn)
					want, wok, err := expect(&v, asn)
					if err != nil || ok != wok || (ok && !routeEqual(got, want)) {
						t.Errorf("reader %d: Lookup(AS%d) toward %v = %v, %v; reference %v, %v (%v)", g, asn, v.dst, got, ok, want, wok, err)
						stop.Store(true)
						return
					}
				}
				views.Add(1)
			}
		}(g)
	}

	restore := func() {}
	var failed topology.InterLink
	for i := 0; i < 36 && !stop.Load(); i++ {
		switch i % 6 {
		case 0:
			s.Originate(a, any1)
			s.Originate(b, any1)
		case 1:
			s.OriginateTo(stub, host, stubNbrs...)
		case 2:
			restore, _ = s.SuspendOriginations(a, any1)
		case 3:
			restore()
		case 4:
			l := n.Inter[i%len(n.Inter)]
			failed, _ = n.FailInterLink(l.From, l.To)
			s.Refresh()
		case 5:
			n.RestoreInterLink(failed)
			s.Refresh()
			s.Withdraw(a, any1)
			s.Withdraw(b, any1)
			s.Withdraw(stub, host)
		}
		step.Add(1)
		// Every reader takes about one view of this generation before the
		// next change.
		for target := views.Load() + 64; views.Load() < target && !stop.Load(); {
			runtime.Gosched()
		}
	}
	stop.Store(true)
	wg.Wait()

	// Page races: on a cold state whose creation wrote only the first page
	// (the origin's and its one peer's), 64 readers at once first-ask an AS
	// on a page of their own, so each allocates its page while the others
	// load and publish theirs; then each waits for the next reader's page
	// and asks every AS of its own page and the next, which another reader
	// is filling.
	wide, err := topology.TransitStub(2, 32*recPageSize, 0.5, topology.GenConfig{Seed: 5, RoutersPerDomain: 1})
	if err != nil {
		t.Fatal(err)
	}
	ws := NewSystem(wide)
	wasns := wide.ASNs()
	p := wide.Domain(wasns[0]).Prefix
	ws.BestRoute(wasns[0], p)
	st := ws.states[p]
	if len(st.recs) < 65 {
		t.Fatalf("%d pages, want a first page and 64 more", len(st.recs))
	}
	for pg := 1; pg < len(st.recs); pg++ {
		if st.recs[pg].Load() != nil {
			t.Fatalf("page %d was written at creation", pg)
		}
	}
	ref := referenceOfState(st, ws.neighbors, p)
	ask := func(g, i int) bool {
		asn := wasns[i]
		got, ok := ws.BestRoute(asn, p)
		want, wok := ref[asn]
		if ok != wok || (ok && !routeEqual(got, want)) {
			t.Errorf("reader %d: BestRoute(AS%d, %v) = %v, %v; reference %v, %v", g, asn, p, got, ok, want, wok)
			return false
		}
		return true
	}
	start := make(chan struct{})
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			first := (g + 1) * recPageSize
			next := ((g+1)%64 + 1) * recPageSize
			<-start
			if !ask(g, first) {
				return
			}
			// The next reader's first write, read without the state's
			// mutex: often a page published after this reader last held it.
			for !st.resolved(int32(next)) {
				runtime.Gosched()
			}
			for i := first + 1; i < min(first+2*recPageSize, len(wasns)) && ask(g, i); i++ {
			}
		}(g)
	}
	close(start)
	wg.Wait()
}

// TestPageBoundariesMatchReference holds fresh states to the reference on
// internets sized around a records page — one AS, a page short of full,
// exactly full, one AS onto a second page, one AS onto a third — with an
// anycast prefix originated on the first and last pages and a selective
// advert, asked in the three orders of checkAgainstReference. A state
// holds exactly the pages its ASes span.
func TestPageBoundariesMatchReference(t *testing.T) {
	for _, size := range []int{1, recPageSize - 1, recPageSize, recPageSize + 1, 2*recPageSize + 1} {
		var n *topology.Network
		var err error
		if size == 1 {
			b := topology.NewBuilder()
			b.AddRouter(b.AddDomain("A"), "")
			n, err = b.Build()
		} else {
			n, err = topology.BarabasiAlbert(size, 2, topology.GenConfig{Seed: int64(size), RoutersPerDomain: 1})
		}
		if err != nil {
			t.Fatal(err)
		}
		asns := n.ASNs()
		if len(asns) != size {
			t.Fatalf("%d ASes, want %d", len(asns), size)
		}
		s := NewSystem(n)
		any1 := addr.HostPrefix(addr.V4FromOctets(240, 0, 0, 1))
		s.Originate(asns[0], any1)
		s.Originate(asns[size-1], any1)
		last := asns[size-1]
		var lastNbrs []topology.ASN
		for _, nb := range n.Neighbors(last) {
			lastNbrs = append(lastNbrs, nb.ASN)
		}
		s.OriginateTo(last, addr.HostPrefix(n.Domain(last).Prefix.Addr+9), lastNbrs...)
		rng := rand.New(rand.NewSource(int64(size)))
		checkAgainstReference(t, s, rng, fmt.Sprintf("%d ASes", size))

		s.BestRoute(asns[0], any1)
		if pages, want := len(s.states[any1].recs), (size+recPageSize-1)/recPageSize; pages != want {
			t.Errorf("%d ASes: state holds %d pages, want %d", size, pages, want)
		}
	}
}

// TestOnDemandMatchesReferenceFixpoint drives seeded transit-stub,
// Barabási–Albert, Waxman and ring internets through every kind of input
// a prefix state reads — multi-origin anycast prefixes, selective adverts
// beside a normal origination at the same AS (in both injection orders),
// withdrawal, suspend/restore, inter-link failure and repair — and holds
// states asked in three orders to the round-robin fixpoint at every AS.
func TestOnDemandMatchesReferenceFixpoint(t *testing.T) {
	for seed := int64(1); seed <= 32; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var n *topology.Network
		var err error
		switch seed % 4 {
		case 0:
			transits := 2 + rng.Intn(5)
			n, err = topology.TransitStub(transits, 4+rng.Intn(190/transits-3), rng.Float64(),
				topology.GenConfig{Seed: seed, RoutersPerDomain: 2})
		case 1:
			n, err = topology.BarabasiAlbert(10+rng.Intn(191), 1+rng.Intn(3),
				topology.GenConfig{Seed: seed, RoutersPerDomain: 1})
		case 2:
			n, err = topology.Waxman(10+rng.Intn(111), 0.2+0.6*rng.Float64(), 0.1+0.3*rng.Float64(),
				topology.GenConfig{Seed: seed, RoutersPerDomain: 1})
		default:
			n, err = topology.RingOfDomains(10+rng.Intn(61), topology.GenConfig{Seed: seed, RoutersPerDomain: 1})
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
		checkAgainstReference(t, s, rng, fmt.Sprintf("seed %d base", seed))

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
		checkAgainstReference(t, s, rng, fmt.Sprintf("seed %d anycast", seed), any1, any2)

		s.Withdraw(first, any1)
		checkAgainstReference(t, s, rng, fmt.Sprintf("seed %d withdraw", seed), any1)

		restore, _ := s.SuspendOriginations(b, any1)
		checkAgainstReference(t, s, rng, fmt.Sprintf("seed %d suspend", seed), any1)
		restore()
		checkAgainstReference(t, s, rng, fmt.Sprintf("seed %d restore", seed), any1)

		var failed []topology.InterLink
		for i := 0; i < 1+len(n.Inter)/10; i++ {
			l := n.Inter[rng.Intn(len(n.Inter))]
			if l, ok := n.FailInterLink(l.From, l.To); ok {
				failed = append(failed, l)
			}
		}
		s.Refresh()
		checkAgainstReference(t, s, rng, fmt.Sprintf("seed %d links failed", seed))
		for _, l := range failed {
			n.RestoreInterLink(l)
		}
		s.Refresh()
		checkAgainstReference(t, s, rng, fmt.Sprintf("seed %d links restored", seed), any1, any2)
	}
}
