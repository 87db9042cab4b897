package bgp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/netsim"
	"github.com/evolvable-net/evolve/internal/topology"
)

// TestAllPathsValleyFree property-tests the safety invariant: every
// selected BGP path in every randomly generated internet is valley-free.
// This is the global guarantee that no customer or peer is ever used for
// transit it isn't paid for.
func TestAllPathsValleyFree(t *testing.T) {
	f := func(seed int64) bool {
		n, err := topology.TransitStub(1+int(uint64(seed)%3), 2+int(uint64(seed)%3), 0.5,
			topology.GenConfig{Seed: seed, RoutersPerDomain: 2})
		if err != nil {
			return false
		}
		s := NewSystem(n)
		s.Converge()
		for _, holder := range n.ASNs() {
			for _, origin := range n.ASNs() {
				r, ok := s.BestRoute(holder, n.Domain(origin).Prefix)
				if !ok {
					continue
				}
				full := append([]topology.ASN{holder}, r.Path...)
				if !ValleyFree(n, full) {
					t.Logf("seed %d: valley in path %v (holder %d → origin %d)",
						seed, full, holder, origin)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestAllPathsValleyFreeBarabasiAlbert repeats the invariant on the
// heavy-tailed hierarchy, where long provider chains exist.
func TestAllPathsValleyFreeBarabasiAlbert(t *testing.T) {
	f := func(seed int64) bool {
		n, err := topology.BarabasiAlbert(8+int(uint64(seed)%8), 1+int(uint64(seed)%2),
			topology.GenConfig{Seed: seed, RoutersPerDomain: 1})
		if err != nil {
			return false
		}
		s := NewSystem(n)
		s.Converge()
		for _, holder := range n.ASNs() {
			for _, origin := range n.ASNs() {
				r, ok := s.BestRoute(holder, n.Domain(origin).Prefix)
				if !ok {
					continue
				}
				full := append([]topology.ASN{holder}, r.Path...)
				if !ValleyFree(n, full) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPathsAreLoopFree: no AS ever appears twice in a selected path.
func TestPathsAreLoopFree(t *testing.T) {
	f := func(seed int64) bool {
		n, err := topology.Waxman(10, 0.7, 0.5, topology.GenConfig{Seed: seed, RoutersPerDomain: 1})
		if err != nil {
			return false
		}
		s := NewSystem(n)
		s.Converge()
		for _, holder := range n.ASNs() {
			for _, origin := range n.ASNs() {
				r, ok := s.BestRoute(holder, n.Domain(origin).Prefix)
				if !ok {
					continue
				}
				seen := map[topology.ASN]bool{holder: true}
				for _, a := range r.Path {
					if seen[a] {
						return false
					}
					seen[a] = true
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestCustomerRoutesAlwaysUsable: in a fully provider-connected hierarchy
// (every stub has a provider path to every other), customer-originated
// prefixes must be globally reachable — the reachability side of policy.
func TestCustomerRoutesAlwaysUsable(t *testing.T) {
	f := func(seed int64) bool {
		n, err := topology.BarabasiAlbert(10, 1, topology.GenConfig{Seed: seed, RoutersPerDomain: 1})
		if err != nil {
			return false
		}
		// BA with m=1 builds a provider tree: full reachability expected.
		s := NewSystem(n)
		s.Converge()
		for _, a := range n.ASNs() {
			for _, b := range n.ASNs() {
				if _, ok := s.BestRoute(a, n.Domain(b).Prefix); !ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestSessionChurnMatchesFixpoint is the session-vs-fixpoint
// differential under churn: random policy-safe internets with
// originations, mid-stream withdrawals, and link flaps (some shorter
// than the hold timer, exercising the sequence-gap resync; some longer,
// exercising the Down/flush/replay path) injected while UPDATE traffic
// is still in flight. Because every flap restores its link, the unique
// stable routing of the final configuration is the fixpoint's answer —
// at quiescence every speaker's loc-RIB must match it exactly.
func TestSessionChurnMatchesFixpoint(t *testing.T) {
	// Seeds that exposed real bugs during bring-up stay pinned.
	for _, seed := range []int64{-2872183867963412414, -8071402118913251605} {
		if !churnDifferential(t, seed) {
			t.Errorf("pinned regression seed %d failed", seed)
		}
	}
	f := func(seed int64) bool { return churnDifferential(t, seed) }
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

var debugChurn bool

func churnDifferential(t *testing.T, seed int64) bool {
	{
		rng := rand.New(rand.NewSource(seed))
		net, err := topology.TransitStub(1+rng.Intn(3), 2+rng.Intn(3), 0.4,
			topology.GenConfig{Seed: seed, RoutersPerDomain: 1})
		if err != nil {
			return false
		}
		asns := net.ASNs()

		fix := NewSystem(net)
		eng := netsim.NewEngine()
		fab := netsim.NewFabric(eng)
		ss := NewSessionSystemConfig(net, fab, DefaultSessionConfig())
		if _, ok := ss.RunToConvergence(0); !ok {
			t.Log("cold start did not quiesce")
			return false
		}
		base := eng.Now()

		// Link flaps mid-stream: pick adjacent AS pairs, down for windows
		// straddling the hold timer both ways.
		hold := ss.Config().Hold
		for i := 0; i < 1+rng.Intn(4); i++ {
			a := asns[rng.Intn(len(asns))]
			nbrs := net.Neighbors(a)
			if len(nbrs) == 0 {
				continue
			}
			b := nbrs[rng.Intn(len(nbrs))].ASN
			at := base + netsim.Time(rng.Intn(8000))
			downFor := netsim.Time(1 + rng.Intn(int(3*hold)))
			if debugChurn {
				t.Logf("flap %d-%d at %d for %d", a, b, at, downFor)
			}
			eng.At(at, func() { fab.FlapLink(int(a), int(b), downFor) })
		}

		// Originations (occasionally anycast from two ASes) with
		// mid-stream withdrawals, mirrored into the fixpoint config.
		var prefixes []addr.Prefix
		for i := 0; i < 2+rng.Intn(4); i++ {
			a4, aerr := addr.Option1Address(uint32(i))
			if aerr != nil {
				return false
			}
			hp := addr.HostPrefix(a4)
			prefixes = append(prefixes, hp)
			origins := []topology.ASN{asns[rng.Intn(len(asns))]}
			if second := asns[rng.Intn(len(asns))]; rng.Intn(3) == 0 && second != origins[0] {
				origins = append(origins, second)
			}
			for _, origin := range origins {
				at := base + netsim.Time(rng.Intn(6000))
				eng.At(at, func() { ss.Speakers[origin].Originate(hp) })
				if rng.Intn(2) == 0 {
					wAt := at + netsim.Time(500+rng.Intn(8000))
					if debugChurn {
						t.Logf("originate AS%d %s at %d, withdraw at %d", origin, hp, at, wAt)
					}
					eng.At(wAt, func() { ss.Speakers[origin].Withdraw(hp) })
				} else {
					if debugChurn {
						t.Logf("originate AS%d %s at %d (kept)", origin, hp, at)
					}
					fix.Originate(origin, hp)
				}
			}
		}
		fix.Converge()

		// Drive past every scheduled event (flap restores included), then
		// settle to quiescence.
		eng.RunUntil(base + 8000 + 3*hold + 1)
		if _, ok := ss.RunToConvergence(0); !ok {
			t.Logf("seed %d: churn run did not quiesce", seed)
			return false
		}

		if detail, diverged := ss.Diverges(fix, prefixes...); diverged {
			t.Logf("seed %d: %s", seed, detail)
			return false
		}
		return true
	}
}
