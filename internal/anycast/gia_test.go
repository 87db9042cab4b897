package anycast

import (
	"errors"
	"testing"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/topology"
)

// giaWorld: home domain H (provides X and Q), Q provides Z — the Figure-2
// shape so GIA behaviour is directly comparable to option 2.
func giaWorld(t *testing.T) (*topology.Network, *Service, *Deployment) {
	t.Helper()
	b := topology.NewBuilder()
	dH := b.AddDomain("H")
	dQ := b.AddDomain("Q")
	dX := b.AddDomain("X")
	dZ := b.AddDomain("Z")
	rH := b.AddRouters(dH, 2)
	rQ := b.AddRouters(dQ, 2)
	rX := b.AddRouter(dX, "")
	rZ := b.AddRouter(dZ, "")
	b.IntraLink(rH[0], rH[1], 2)
	b.IntraLink(rQ[0], rQ[1], 2)
	b.Provide(rH[0], rX, 10)
	b.Provide(rH[1], rQ[0], 10)
	b.Provide(rQ[1], rZ, 10)
	for _, d := range []*topology.Domain{dX, dZ} {
		b.AddHost(d, d.Routers[0], "h"+d.Name, 1)
	}
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := newService(t, n)
	dep, err := s.DeployGIA(0, dH.ASN)
	if err != nil {
		t.Fatal(err)
	}
	s.AddMember(dep, rH[1])
	s.AddMember(dep, rQ[1])
	return n, s, dep
}

func TestGIAAddressShape(t *testing.T) {
	_, _, dep := giaWorld(t)
	if dep.Option != OptionGIA {
		t.Fatal("wrong option")
	}
	if !addr.GIAIndicator.Contains(dep.Addr) {
		t.Errorf("%s does not carry the GIA indicator", dep.Addr)
	}
	if addr.AnycastReserved.Contains(dep.Addr) {
		t.Error("GIA address inside the option-1 block")
	}
}

func TestGIAHomeFallback(t *testing.T) {
	// X has no anycast route for the GIA address (no search adverts):
	// the fallback carries the packet toward home H, captured there.
	n, s, dep := giaWorld(t)
	hX := n.HostsIn(n.DomainByName("X").ASN)[0]
	res, err := s.ResolveFromHost(hX, dep.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.DomainOf(res.Member); got != n.DomainByName("H").ASN {
		t.Errorf("X landed in %s, want home H", n.Domain(got).Name)
	}
	// Z's fallback path to H transits participant Q: captured en route.
	hZ := n.HostsIn(n.DomainByName("Z").ASN)[0]
	res, err = s.ResolveFromHost(hZ, dep.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.DomainOf(res.Member); got != n.DomainByName("Q").ASN {
		t.Errorf("Z landed in %s, want Q capture", n.Domain(got).Name)
	}
}

func TestGIASearchImprovesCapture(t *testing.T) {
	// Add a direct Q–X peering; without search X still goes home, with
	// the search advert X is captured by Q over the shortcut.
	b := topology.NewBuilder()
	dH := b.AddDomain("H")
	dQ := b.AddDomain("Q")
	dX := b.AddDomain("X")
	rH := b.AddRouter(dH, "")
	rQ := b.AddRouters(dQ, 2)
	rX := b.AddRouter(dX, "")
	b.IntraLink(rQ[0], rQ[1], 2)
	b.Provide(rH, rX, 30)
	b.Provide(rH, rQ[0], 10)
	b.Peer(rQ[0], rX, 5)
	hX := b.AddHost(dX, rX, "hx", 1)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := newService(t, n)
	dep, err := s.DeployGIA(0, dH.ASN)
	if err != nil {
		t.Fatal(err)
	}
	s.AddMember(dep, rH)
	s.AddMember(dep, rQ[1])

	res, err := s.ResolveFromHost(hX, dep.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.DomainOf(res.Member); got != dH.ASN {
		t.Fatalf("pre-search X landed in %s", n.Domain(got).Name)
	}
	costBefore := res.Cost

	// GIA search: Q pushes a host route to its BGP neighbours.
	if err := s.AdvertiseToNeighbors(dep, dQ.ASN, dX.ASN); err != nil {
		t.Fatal(err)
	}
	res, err = s.ResolveFromHost(hX, dep.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.DomainOf(res.Member); got != dQ.ASN {
		t.Errorf("post-search X landed in %s, want Q", n.Domain(got).Name)
	}
	if res.Cost >= costBefore {
		t.Errorf("search did not improve proximity: %d → %d", costBefore, res.Cost)
	}
}

func TestGIADeadEndWithoutHomeMember(t *testing.T) {
	b := topology.NewBuilder()
	dH := b.AddDomain("H")
	dX := b.AddDomain("X")
	rH := b.AddRouter(dH, "")
	rX := b.AddRouter(dX, "")
	b.Provide(rH, rX, 10)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := newService(t, n)
	dep, err := s.DeployGIA(0, dH.ASN)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ResolveFromRouter(rX, dep.Addr); !errors.Is(err, ErrDeadEnd) {
		t.Errorf("err = %v, want ErrDeadEnd (GIA requires a home member)", err)
	}
}

func TestGIADeployValidation(t *testing.T) {
	_, s, _ := giaWorld(t)
	if _, err := s.DeployGIA(1, topology.ASN(999)); err == nil {
		t.Error("unknown home AS accepted")
	}
}
