package experiments

import (
	"errors"
	"testing"

	"github.com/evolvable-net/evolve/internal/anycast"
	"github.com/evolvable-net/evolve/internal/forward"
	"github.com/evolvable-net/evolve/internal/redirect"
	"github.com/evolvable-net/evolve/internal/routing/bgp"
	"github.com/evolvable-net/evolve/internal/underlay"
)

// TestBrokerReferralIsCheapest: on E6's world, before and after its churn,
// every referral a full-coverage broker makes costs the minimum, over its
// directory (the members at its one Refresh), of the unicast cost from the
// host's router plus the host's access link. After the churn a referral to
// the withdrawn member is stale; every other one must still be the
// cheapest.
func TestBrokerReferralIsCheapest(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		net, err := sweepNetwork(seed)
		if err != nil {
			t.Fatal(err)
		}
		igp, bgpSys := underlay.NewView(net), bgp.NewSystem(net)
		svc := anycast.NewService(net, bgpSys, igp)
		dep, err := svc.DeployOption1(0)
		if err != nil {
			t.Fatal(err)
		}
		fwd := forward.NewEngine(net, bgpSys, igp)
		first := net.DomainByName("S0.0").Routers[0]
		svc.AddMember(dep, first)
		svc.AddMember(dep, net.DomainByName("S1.0").Routers[0])
		broker := redirect.NewBroker(net, fwd, dep, 1.0, seed)
		broker.Refresh()
		directory := dep.Members()

		check := func(phase string) (stale int) {
			for _, h := range net.Hosts {
				cheapest := int64(-1)
				for _, m := range directory {
					c, err := fwd.FromRouter(h.Attach, net.Router(m).Loopback)
					if err != nil {
						continue
					}
					if c += h.AccessLatency; cheapest < 0 || c < cheapest {
						cheapest = c
					}
				}
				res, err := broker.Redirect(h)
				if errors.Is(err, redirect.ErrStaleReferral) {
					stale++
					continue
				}
				if err != nil {
					t.Fatalf("seed %d %s: %s: %v", seed, phase, h.Name, err)
				}
				if res.Cost != cheapest {
					t.Errorf("seed %d %s: %s referred to r%d at cost %d, cheapest in the directory is %d",
						seed, phase, h.Name, res.Member, res.Cost, cheapest)
				}
			}
			return stale
		}
		if n := check("stable"); n != 0 {
			t.Errorf("seed %d: %d stale referrals before any churn", seed, n)
		}
		svc.RemoveMember(dep, first)
		svc.AddMember(dep, net.DomainByName("T0").Routers[0])
		check("after churn")
	}
}
