package vncast

import (
	"errors"
	"testing"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/anycast"
	"github.com/evolvable-net/evolve/internal/core"
	"github.com/evolvable-net/evolve/internal/topology"
)

func world(t *testing.T) (*topology.Network, *core.Evolution, *Service) {
	t.Helper()
	net, err := topology.TransitStub(3, 3, 0.4, topology.GenConfig{
		Seed: 17, RoutersPerDomain: 3, HostsPerDomain: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	evo, err := core.New(net, core.Config{Option: anycast.Option1})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"T0", "T1", "T2"} {
		evo.DeployDomain(net.DomainByName(name).ASN, 0)
	}
	return net, evo, New(evo)
}

func TestMulticastAddressForm(t *testing.T) {
	a := addr.MulticastVN(7)
	if !a.IsMulticast() || a.IsSelf() {
		t.Errorf("flags wrong: %s", a)
	}
	if addr.SelfAddress(1).IsMulticast() {
		t.Error("self address reported multicast")
	}
	if (addr.VN{Hi: 1}).IsMulticast() {
		t.Error("native address reported multicast")
	}
	if addr.MulticastVN(1) == addr.MulticastVN(2) {
		t.Error("groups collide")
	}
}

func TestSubscribeAndDeliver(t *testing.T) {
	net, _, svc := world(t)
	grp := svc.CreateGroup(1)
	src := net.Hosts[0]
	// Subscribe one host from every stub except the source's.
	for _, asn := range net.ASNs() {
		if net.Domain(asn).Name[0] != 'S' || asn == src.Domain {
			continue
		}
		if err := svc.Subscribe(grp, net.HostsIn(asn)[0]); err != nil {
			t.Fatal(err)
		}
	}
	if len(grp.subs) < 5 {
		t.Fatalf("subscribers = %d", len(grp.subs))
	}
	d, err := svc.Deliver(grp, src, []byte("stream"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Subscribers != len(grp.subs) {
		t.Errorf("delivered to %d", d.Subscribers)
	}
	if d.TotalCost <= 0 || d.UnicastCost <= 0 {
		t.Errorf("costs: %+v", d)
	}
	// The multicast argument: the tree never costs more than repeated
	// unicast, and with many subscribers it should cost strictly less.
	if d.TotalCost > d.UnicastCost {
		t.Errorf("multicast (%d) beat by unicast (%d)", d.TotalCost, d.UnicastCost)
	}
	if d.Saving <= 0 {
		t.Errorf("no saving with %d subscribers: %+v", d.Subscribers, d)
	}
}

func TestSavingGrowsWithGroupSize(t *testing.T) {
	net, _, svc := world(t)
	src := net.Hosts[0]
	var candidates []*topology.Host
	for _, h := range net.Hosts {
		if h.Domain != src.Domain {
			candidates = append(candidates, h)
		}
	}
	small := svc.CreateGroup(10)
	for _, h := range candidates[:2] {
		if err := svc.Subscribe(small, h); err != nil {
			t.Fatal(err)
		}
	}
	large := svc.CreateGroup(11)
	for _, h := range candidates {
		if err := svc.Subscribe(large, h); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := svc.Deliver(small, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	dl, err := svc.Deliver(large, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The robust amortization claim: the *shared* component (ingress +
	// tree) per subscriber falls as the group grows — tails are paid per
	// subscriber under any scheme and don't amortize.
	perSmall := float64(ds.IngressCost+ds.TreeCost) / float64(ds.Subscribers)
	perLarge := float64(dl.IngressCost+dl.TreeCost) / float64(dl.Subscribers)
	if perLarge >= perSmall {
		t.Errorf("shared cost did not amortize: %.1f (n=%d) → %.1f (n=%d)",
			perSmall, ds.Subscribers, perLarge, dl.Subscribers)
	}
	if dl.Saving <= 0.2 {
		t.Errorf("large-group saving only %.3f", dl.Saving)
	}
}

func TestUniversalAccessForSubscribers(t *testing.T) {
	// Subscribers in NON-deploying stubs join anyway: the group
	// capability inherits universal access.
	net, _, svc := world(t)
	grp := svc.CreateGroup(2)
	for _, asn := range net.ASNs() {
		if net.Domain(asn).Name[0] != 'S' {
			continue
		}
		for _, h := range net.HostsIn(asn) {
			if err := svc.Subscribe(grp, h); err != nil {
				t.Fatalf("stub host %s could not subscribe: %v", h.Name, err)
			}
		}
	}
	src := net.HostsIn(net.DomainByName("T0").ASN)[0]
	d, err := svc.Deliver(grp, src, []byte("everyone"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Subscribers != 18 {
		t.Errorf("subscribers = %d, want all 18 stub hosts", d.Subscribers)
	}
}

func TestUnsubscribeAndErrors(t *testing.T) {
	net, _, svc := world(t)
	grp := svc.CreateGroup(3)
	h := net.Hosts[1]
	if err := svc.Subscribe(grp, h); err != nil {
		t.Fatal(err)
	}
	delete(grp.subs, h.ID) // unsubscribe
	if _, err := svc.Deliver(grp, net.Hosts[0], nil); !errors.Is(err, ErrEmptyGroup) {
		t.Errorf("err = %v", err)
	}
	bad := &Group{Addr: addr.VN{Hi: 1}, subs: map[topology.HostID]subscription{}}
	if err := svc.Subscribe(bad, h); !errors.Is(err, ErrNotMulticast) {
		t.Errorf("err = %v", err)
	}
	// CreateGroup is idempotent.
	if svc.CreateGroup(3) != grp {
		t.Error("CreateGroup not idempotent")
	}
}

func TestResubscribeAfterDeploymentChange(t *testing.T) {
	net, evo, svc := world(t)
	grp := svc.CreateGroup(4)
	stub := net.DomainByName("S2.2")
	h := net.HostsIn(stub.ASN)[0]
	if err := svc.Subscribe(grp, h); err != nil {
		t.Fatal(err)
	}
	before := grp.subs[h.ID].egress
	// The subscriber's own stub deploys; on refresh its egress moves home.
	evo.DeployDomain(stub.ASN, 0)
	if err := svc.Subscribe(grp, h); err != nil { // the host re-joins
		t.Fatal(err)
	}
	after := grp.subs[h.ID].egress
	if net.DomainOf(after) != stub.ASN {
		t.Errorf("egress stayed at %d after home deployment", after)
	}
	if before == after {
		t.Error("egress did not move")
	}
	// Delivery still works.
	if _, err := svc.Deliver(grp, net.Hosts[0], nil); err != nil {
		t.Fatal(err)
	}
}
