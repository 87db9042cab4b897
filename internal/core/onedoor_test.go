package core

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"github.com/evolvable-net/evolve/internal/anycast"
	"github.com/evolvable-net/evolve/internal/topology"
)

// peeringWorld builds the option-2 world the one-door tests share: a
// seeded transit–stub internet with the default transit and two stubs
// participating. advertise has every participant advertise the anycast
// host route to all its neighbours through the Evolution.
func peeringWorld(t *testing.T) (evo *Evolution, advertise func()) {
	t.Helper()
	net, err := topology.TransitStub(3, 4, 0.4, topology.GenConfig{Seed: 42, RoutersPerDomain: 3, HostsPerDomain: 2})
	if err != nil {
		t.Fatal(err)
	}
	participants := []topology.ASN{net.DomainByName("T0").ASN, net.DomainByName("S1.1").ASN, net.DomainByName("S2.2").ASN}
	evo, err = New(net, Config{Option: anycast.Option2, DefaultAS: participants[0]})
	if err != nil {
		t.Fatal(err)
	}
	for _, asn := range participants {
		evo.DeployDomain(asn, 0)
	}
	return evo, func() {
		t.Helper()
		for _, asn := range participants {
			var nbrs []topology.ASN
			for _, nb := range net.Neighbors(asn) {
				nbrs = append(nbrs, nb.ASN)
			}
			if err := evo.AdvertiseToNeighbors(asn, nbrs...); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// allPairs sends between every ordered host pair and returns the
// deliveries keyed by (src, dst).
func allPairs(t *testing.T, evo *Evolution) map[[2]topology.HostID]Delivery {
	t.Helper()
	out := map[[2]topology.HostID]Delivery{}
	for _, src := range evo.Net.Hosts {
		for _, dst := range evo.Net.Hosts {
			if src.ID == dst.ID {
				continue
			}
			d, err := evo.Send(src, dst, []byte("door"))
			if err != nil {
				t.Fatalf("send h%d→h%d: %v", src.ID, dst.ID, err)
			}
			out[[2]topology.HostID{src.ID, dst.ID}] = d
		}
	}
	return out
}

// TestAdvertiseToNeighborsMatchesFromScratch: a world that warmed its
// redirect and flow caches before Figure 2's peering advert delivers
// exactly like one that advertised before its first send — the advert is
// a mutation, so nothing resolved before it survives it.
func TestAdvertiseToNeighborsMatchesFromScratch(t *testing.T) {
	warm, advertiseWarm := peeringWorld(t)
	before := allPairs(t, warm)
	advertiseWarm()

	cold, advertiseCold := peeringWorld(t)
	advertiseCold()

	got, want := allPairs(t, warm), allPairs(t, cold)
	moved := map[topology.HostID]bool{}
	for k, w := range want {
		g := got[k]
		if g.Ingress.Member != w.Ingress.Member || g.TotalCost != w.TotalCost {
			t.Errorf("h%d→h%d: advertised after sends: ingress r%d total %d; advertised first: ingress r%d total %d",
				k[0], k[1], g.Ingress.Member, g.TotalCost, w.Ingress.Member, w.TotalCost)
		}
		if before[k].Ingress.Member != w.Ingress.Member {
			moved[k[0]] = true
		}
	}
	if len(moved) == 0 {
		t.Fatal("the advert moved no host's ingress: the topology does not exercise it")
	}

	if err := warm.AdvertiseToNeighbors(warm.Net.DomainByName("S0.0").ASN); err == nil {
		t.Error("advert from a domain with no members: want an error")
	}
	if d, err := warm.Send(warm.Net.Hosts[0], warm.Net.Hosts[1], nil); err != nil || d.Ingress.Member != got[[2]topology.HostID{0, 1}].Ingress.Member {
		t.Errorf("send after a refused advert: %+v, %v", d.Ingress, err)
	}
}

// TestResolveAnycastReadsTheEpoch: ResolveAnycast is the walk over the
// epoch's frozen deployment for every router, turns a unicast address and
// an undeployed world away with their sentinels, and is safe beside
// membership and link mutators.
func TestResolveAnycastReadsTheEpoch(t *testing.T) {
	evo, advertise := peeringWorld(t)
	advertise()
	a := evo.AnycastAddr()
	for _, r := range evo.Net.Routers {
		got, err := evo.ResolveAnycast(r.ID, a)
		want, wantErr := evo.Anycast.ResolveFromRouterVia(evo.epoch.Load().dep, r.ID)
		if !errors.Is(err, wantErr) || !reflect.DeepEqual(got, want) {
			t.Errorf("r%d: ResolveAnycast = %+v, %v; walk on the frozen deployment = %+v, %v", r.ID, got, err, want, wantErr)
		}
	}
	before := evo.Snapshot()
	if _, err := evo.ResolveAnycast(0, evo.Net.Hosts[0].Addr); !errors.Is(err, ErrNotAnycast) {
		t.Errorf("unicast address: err = %v, want ErrNotAnycast", err)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = evo.ResolveAnycast(0, evo.Net.Hosts[0].Addr) }); n != 0 {
		t.Errorf("turning a unicast address away allocates %v times", n)
	}
	if delta := evo.Snapshot().Sub(before); delta.Redirects != 0 || delta.Sends != 0 {
		t.Errorf("ResolveAnycast counted: %d redirects, %d sends", delta.Redirects, delta.Sends)
	}

	bare, err := New(evo.Net, evo.Config())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bare.ResolveAnycast(0, bare.AnycastAddr()); !errors.Is(err, ErrNotDeployed) {
		t.Errorf("undeployed world: err = %v, want ErrNotDeployed", err)
	}

	// Beside mutators: every answer is a member of some epoch's deployment.
	s := evo.Net.DomainByName("S1.1")
	link := evo.Net.Neighbors(s.ASN)[0].Links[0]
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, mutate := range []func(){
		func() {
			evo.UndeployRouter(s.Routers[0])
			evo.DeployRouters(s.Routers[:1])
		},
		func() {
			if l, ok := evo.FailInterLink(link.From, link.To); ok {
				evo.RestoreInterLink(l)
			}
		},
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					mutate()
				}
			}
		}()
	}
	for i := 0; i < 300; i++ {
		r := evo.Net.Routers[i%len(evo.Net.Routers)]
		if res, err := evo.ResolveAnycast(r.ID, a); err == nil && len(res.ASPath) == 0 {
			t.Errorf("r%d: resolved to r%d with an empty path", r.ID, res.Member)
		}
	}
	close(stop)
	wg.Wait()
}
