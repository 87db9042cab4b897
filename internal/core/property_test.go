package core

import (
	"testing"
	"testing/quick"

	"github.com/evolvable-net/evolve/internal/anycast"
	"github.com/evolvable-net/evolve/internal/routing/bgpvn"
	"github.com/evolvable-net/evolve/internal/topology"
)

// TestUniversalAccessProperty is the repository's headline property:
// across random internets, random single-ISP deployments and both anycast
// options, EVERY host pair exchanges IPvN packets. This is the paper's
// central requirement quantified as an invariant.
func TestUniversalAccessProperty(t *testing.T) {
	f := func(seed int64) bool {
		nT := 2 + int(uint64(seed)%2)
		nS := 2 + int(uint64(seed)%3)
		net, err := topology.TransitStub(nT, nS, 0.4, topology.GenConfig{
			Seed: seed, RoutersPerDomain: 2, HostsPerDomain: 1,
		})
		if err != nil {
			return false
		}
		asns := net.ASNs()
		deployer := asns[int(uint64(seed)>>8)%len(asns)]
		for _, opt := range []anycast.Option{anycast.Option1, anycast.Option2} {
			evo, err := New(net, Config{Option: opt, DefaultAS: deployer})
			if err != nil {
				return false
			}
			evo.DeployDomain(deployer, 0)
			_, failures, err := evo.StretchSample(60)
			if err != nil || failures > 0 {
				t.Logf("seed %d opt %d deployer %d: err=%v failures=%d",
					seed, opt, deployer, err, failures)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestPayloadIntegrityProperty: arbitrary payloads survive the full
// encapsulation pipeline bit-for-bit.
func TestPayloadIntegrityProperty(t *testing.T) {
	net, err := topology.TransitStub(2, 2, 0.3, topology.GenConfig{
		Seed: 3, RoutersPerDomain: 2, HostsPerDomain: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	evo, err := New(net, Config{Option: anycast.Option1, Egress: bgpvn.ProxyInformed})
	if err != nil {
		t.Fatal(err)
	}
	evo.DeployDomain(net.DomainByName("T0").ASN, 0)
	src, dst := net.Hosts[0], net.Hosts[len(net.Hosts)-1]

	f := func(payload []byte) bool {
		if len(payload) > 60000 {
			payload = payload[:60000]
		}
		d, err := evo.Send(src, dst, payload)
		if err != nil {
			return false
		}
		if len(d.Payload) != len(payload) {
			return false
		}
		for i := range payload {
			if d.Payload[i] != payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestCostDecompositionProperty: TotalCost is exactly the sum of its
// three legs for every delivery — the accounting never drifts.
func TestCostDecompositionProperty(t *testing.T) {
	f := func(seed int64) bool {
		net, err := topology.TransitStub(2, 2, 0.5, topology.GenConfig{
			Seed: seed, RoutersPerDomain: 2, HostsPerDomain: 1,
		})
		if err != nil {
			return false
		}
		evo, err := New(net, Config{Option: anycast.Option2, DefaultAS: net.ASNs()[0]})
		if err != nil {
			return false
		}
		evo.DeployDomain(net.ASNs()[0], 0)
		evo.DeployDomain(net.ASNs()[2], 0)
		for _, src := range net.Hosts[:3] {
			for _, dst := range net.Hosts[len(net.Hosts)-3:] {
				if src.ID == dst.ID {
					continue
				}
				d, err := evo.Send(src, dst, nil)
				if err != nil {
					return false
				}
				if d.TotalCost != d.Ingress.Cost+d.Egress.BoneCost+d.TailCost {
					t.Logf("seed %d: %d != %d+%d+%d", seed,
						d.TotalCost, d.Ingress.Cost, d.Egress.BoneCost, d.TailCost)
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
