package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/evolvable-net/evolve/internal/anycast"
	"github.com/evolvable-net/evolve/internal/topology"
	"github.com/evolvable-net/evolve/internal/trace"
)

// egressDetailOf sends src→dst traced and returns the delivery with the
// egress decision's detail ("registered-/128", "native" or the policy).
func egressDetailOf(e *Evolution, src, dst *topology.Host) (Delivery, string, error) {
	rec := trace.NewRecorder()
	d, err := e.SendTraced(src, dst, []byte("twin"), rec)
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindEgress {
			return d, ev.Detail, err
		}
	}
	return d, "", err
}

// TestResolutionSharedPerAttachRouter: the redirect decision belongs to
// the attach router. Two hosts behind one router share one cache entry —
// the second host's first send is a hit — yet each delivery carries its
// own host's access-link cost; and a registration fills the same cache,
// so a registered host's first send is a hit too.
func TestResolutionSharedPerAttachRouter(t *testing.T) {
	b := topology.NewBuilder()
	dP := b.AddDomain("P")
	dC := b.AddDomain("C")
	rP := b.AddRouters(dP, 2)
	rC := b.AddRouters(dC, 2)
	b.IntraLink(rP[0], rP[1], 2)
	b.IntraLink(rC[0], rC[1], 3)
	b.Provide(rP[1], rC[0], 10)
	near := b.AddHost(dC, rC[1], "near", 1)
	far := b.AddHost(dC, rC[1], "far", 7)
	other := b.AddHost(dC, rC[0], "other", 2)
	dst := b.AddHost(dP, rP[0], "server", 1)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	evo, err := New(net, Config{Option: anycast.Option1})
	if err != nil {
		t.Fatal(err)
	}
	evo.DeployDomain(dP.ASN, 0)

	send := func(src *topology.Host, wantHit bool) {
		t.Helper()
		before := evo.Snapshot()
		d, err := evo.Send(src, dst, []byte("x"))
		if err != nil {
			t.Fatalf("send from %s: %v", src.Name, err)
		}
		delta := evo.Snapshot().Sub(before)
		if hit := delta.RedirectCacheHits == 1; delta.Redirects != 1 || hit != wantHit {
			t.Errorf("first send from %s: %d redirect decisions, cache hit=%v, want hit=%v", src.Name, delta.Redirects, hit, wantHit)
		}
		want, err := evo.Anycast.ResolveFromRouterVia(evo.Dep, src.Attach)
		if err != nil {
			t.Fatal(err)
		}
		if wantCost := want.Cost + src.AccessLatency; d.Ingress.Member != want.Member || d.Ingress.Cost != wantCost {
			t.Errorf("%s: ingress r%d cost %d, ResolveFromRouterVia + access link says r%d cost %d",
				src.Name, d.Ingress.Member, d.Ingress.Cost, want.Member, wantCost)
		}
	}
	send(near, false)
	send(far, true)
	if err := evo.RegisterEndhost(other); err != nil {
		t.Fatal(err)
	}
	send(other, true)
}

// TestSingleRegistrationCopiesOneBitset: on a world with 20 000
// registered hosts, registering one more host allocates one copy of the
// registered set (one bit per host) and a fresh flow cache — no route
// table, and nothing per registered host.
func TestSingleRegistrationCopiesOneBitset(t *testing.T) {
	if testing.Short() {
		t.Skip("20 000-host world")
	}
	net, err := topology.TransitStub(4, 99, 0.3, topology.GenConfig{Seed: 5, RoutersPerDomain: 2, HostsPerDomain: 50})
	if err != nil {
		t.Fatal(err)
	}
	evo, err := New(net, Config{Option: anycast.Option2, DefaultAS: net.DomainByName("T0").ASN})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		evo.DeployDomain(net.DomainByName(fmt.Sprintf("T%d", i)).ASN, 0)
	}
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	one := net.Hosts[len(net.Hosts)-1]
	fleet := allocated(func() {
		if err := evo.RegisterEndhosts(net.Hosts); err != nil {
			t.Fatal(err)
		}
	})
	evo.UnregisterEndhost(one)
	single := allocated(func() {
		if err := evo.RegisterEndhost(one); err != nil {
			t.Fatal(err)
		}
	})
	if _, detail, err := egressDetailOf(evo, net.Hosts[0], one); err != nil || detail != trace.EgressRegistered {
		t.Fatalf("send to the re-registered host: egress %q, err %v", detail, err)
	}
	bitset := uint64(8 * ((len(net.Hosts) + 63) / 64))
	t.Logf("RegisterEndhosts(%d hosts) allocated %d B, one RegisterEndhost %d B (the set is %d B)", len(net.Hosts), fleet, single, bitset)
	if single > bitset+4096 {
		t.Errorf("one registration allocated %d B, more than the %d B set plus 4 KB", single, bitset)
	}
}

// TestRegistrationStormBesideSenders: 64 senders loop Send while one
// goroutine registers and unregisters hosts singly and in batches. No
// send may fail, and every delivery to a toggled host must be whole: via
// its registered /128 with the egress native routing picks, or via the
// configured egress policy with the egress that policy picks — never the
// detail of one epoch with the egress of another.
func TestRegistrationStormBesideSenders(t *testing.T) {
	net, evo := transitStubEvo(t)
	// Hosts of the five undeployed stubs are self-addressed: registering
	// them changes how they are reached.
	var toggled []*topology.Host
	for _, asn := range net.ASNs()[7:] {
		toggled = append(toggled, net.HostsIn(asn)...)
	}
	srcs := net.Hosts[:8]

	// Both whole answers per (src, dst), learned with the fleet fully
	// unregistered and fully registered; registrations do not interact.
	type answer struct {
		detail string
		egress topology.RouterID
		total  int64
	}
	type pair struct{ src, dst topology.HostID }
	learn := func() map[pair]answer {
		out := map[pair]answer{}
		for _, s := range srcs {
			for _, d := range toggled {
				dl, detail, err := egressDetailOf(evo, s, d)
				if err != nil {
					t.Fatalf("learning h%d→h%d: %v", s.ID, d.ID, err)
				}
				out[pair{s.ID, d.ID}] = answer{detail, dl.Egress.Member, dl.TotalCost}
			}
		}
		return out
	}
	unregistered := learn()
	if err := evo.RegisterEndhosts(toggled); err != nil {
		t.Fatal(err)
	}
	registered := learn()
	for _, h := range toggled {
		evo.UnregisterEndhost(h)
	}
	for p, a := range registered {
		if a.detail != trace.EgressRegistered || unregistered[p].detail != evo.Config().Egress.String() {
			t.Fatalf("h%d→h%d: details %q / %q", p.src, p.dst, a.detail, unregistered[p].detail)
		}
	}

	// stop ends the senders; a sender that fails sets it too, so the storm
	// below never waits on senders that have given up.
	var stop atomic.Bool
	var wg sync.WaitGroup
	var sends atomic.Int64
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; !stop.Load(); i++ {
				s, d := srcs[i%len(srcs)], toggled[(i/len(srcs))%len(toggled)]
				dl, detail, err := egressDetailOf(evo, s, d)
				if err != nil {
					t.Errorf("send h%d→h%d beside the storm: %v", s.ID, d.ID, err)
					stop.Store(true)
					return
				}
				got := answer{detail, dl.Egress.Member, dl.TotalCost}
				p := pair{s.ID, d.ID}
				if got != registered[p] && got != unregistered[p] {
					t.Errorf("torn delivery h%d→h%d: %+v is neither the registered %+v nor the policy %+v",
						s.ID, d.ID, got, registered[p], unregistered[p])
					stop.Store(true)
					return
				}
				sends.Add(1)
			}
		}(g)
	}
	// At least 300 mutations, and as many more as it takes for the senders
	// to have got 5000 sends in beside them.
	rng := rand.New(rand.NewSource(7))
	for round := 0; (round < 300 || sends.Load() < 5000) && !stop.Load(); round++ {
		switch rng.Intn(3) {
		case 0:
			_ = evo.RegisterEndhost(toggled[rng.Intn(len(toggled))])
		case 1:
			evo.UnregisterEndhost(toggled[rng.Intn(len(toggled))])
		case 2:
			lo := rng.Intn(len(toggled))
			hi := lo + rng.Intn(len(toggled)-lo)
			_ = evo.RegisterEndhosts(toggled[lo:hi])
		}
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()
}
