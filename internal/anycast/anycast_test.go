package anycast

import (
	"errors"
	"testing"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/routing/bgp"
	"github.com/evolvable-net/evolve/internal/topology"
	"github.com/evolvable-net/evolve/internal/underlay"
)

func newService(t *testing.T, n *topology.Network) *Service {
	t.Helper()
	return NewService(n, bgp.NewSystem(n), underlay.NewView(n))
}

// figure2 builds the world of the paper's Figure 2:
//
//	D (default) provides X, Y and Q; Q provides Z. Later Q peers with Y.
//
// Domains X, Y, Z are clients; D and Q will deploy IPvN.
func figure2(t *testing.T, withQYPeering bool) (*topology.Network, *Service, *Deployment) {
	t.Helper()
	b := topology.NewBuilder()
	dD := b.AddDomain("D")
	dQ := b.AddDomain("Q")
	dX := b.AddDomain("X")
	dY := b.AddDomain("Y")
	dZ := b.AddDomain("Z")
	rD := b.AddRouters(dD, 2)
	rQ := b.AddRouters(dQ, 2)
	rX := b.AddRouters(dX, 1)
	rY := b.AddRouters(dY, 1)
	rZ := b.AddRouters(dZ, 1)
	b.IntraLink(rD[0], rD[1], 2)
	b.IntraLink(rQ[0], rQ[1], 2)
	b.Provide(rD[0], rX[0], 10)
	b.Provide(rD[0], rY[0], 10)
	b.Provide(rD[1], rQ[0], 10)
	b.Provide(rQ[1], rZ[0], 10)
	if withQYPeering {
		b.Peer(rQ[0], rY[0], 5)
	}
	for _, d := range []*topology.Domain{dX, dY, dZ} {
		b.AddHost(d, d.Routers[0], "h-"+d.Name, 1)
	}
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := newService(t, n)
	dep, err := s.DeployOption2(0, dD.ASN)
	if err != nil {
		t.Fatal(err)
	}
	// D and Q each deploy one IPvN router.
	s.AddMember(dep, rD[1])
	s.AddMember(dep, rQ[1])
	return n, s, dep
}

func TestOption2Figure2BeforePeering(t *testing.T) {
	n, s, dep := figure2(t, false)
	// X's and Y's anycast packets terminate in D (their provider, the
	// default domain).
	for _, name := range []string{"X", "Y"} {
		h := n.HostsIn(n.DomainByName(name).ASN)[0]
		res, err := s.ResolveFromHost(h, dep.Addr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := n.DomainOf(res.Member); got != n.DomainByName("D").ASN {
			t.Errorf("%s resolved into %s, want D", name, n.Domain(got).Name)
		}
	}
	// Z's packets are captured by Q on the way to D.
	h := n.HostsIn(n.DomainByName("Z").ASN)[0]
	res, err := s.ResolveFromHost(h, dep.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.DomainOf(res.Member); got != n.DomainByName("Q").ASN {
		t.Errorf("Z resolved into %s, want Q", n.Domain(got).Name)
	}
}

func TestOption2Figure2AfterPeering(t *testing.T) {
	n, s, dep := figure2(t, true)
	dQ := n.DomainByName("Q")
	dY := n.DomainByName("Y")
	// Before the advert, Y still lands in D (the peering link exists but
	// carries no anycast route).
	hY := n.HostsIn(dY.ASN)[0]
	res, err := s.ResolveFromHost(hY, dep.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.DomainOf(res.Member); got != n.DomainByName("D").ASN {
		t.Fatalf("pre-advert Y resolved into %s", n.Domain(got).Name)
	}
	costBefore := res.Cost

	// "Q can peer with Y to advertise its path for the anycast address;
	// Y's packets will then be delivered to Q rather than D."
	if err := s.AdvertiseToNeighbors(dep, dQ.ASN, dY.ASN); err != nil {
		t.Fatal(err)
	}
	res, err = s.ResolveFromHost(hY, dep.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.DomainOf(res.Member); got != dQ.ASN {
		t.Errorf("post-advert Y resolved into %s, want Q", n.Domain(got).Name)
	}
	if res.Cost >= costBefore {
		t.Errorf("peering advert did not improve proximity: %d → %d", costBefore, res.Cost)
	}
	// X is unaffected.
	hX := n.HostsIn(n.DomainByName("X").ASN)[0]
	res, err = s.ResolveFromHost(hX, dep.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.DomainOf(res.Member); got != n.DomainByName("D").ASN {
		t.Errorf("X resolved into %s, want D", n.Domain(got).Name)
	}
}

func TestOption2NoExportDoesNotLeak(t *testing.T) {
	n, s, dep := figure2(t, true)
	dQ := n.DomainByName("Q")
	dY := n.DomainByName("Y")
	if err := s.AdvertiseToNeighbors(dep, dQ.ASN, dY.ASN); err != nil {
		t.Fatal(err)
	}
	s.bgp.Converge()
	// X must not see the host route Y received (NO_EXPORT via D anyway).
	if _, ok := s.bgp.BestRoute(n.DomainByName("X").ASN, addr.HostPrefix(dep.Addr)); ok {
		t.Error("selective anycast advert leaked beyond the peering")
	}
}

func TestOption2DeadEndWithoutDefaultMember(t *testing.T) {
	b := topology.NewBuilder()
	dD := b.AddDomain("D")
	dX := b.AddDomain("X")
	rD := b.AddRouter(dD, "")
	rX := b.AddRouter(dX, "")
	b.Provide(rD, rX, 10)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := newService(t, n)
	dep, err := s.DeployOption2(0, dD.ASN)
	if err != nil {
		t.Fatal(err)
	}
	// No members anywhere: X's packet rides to D and dies there.
	_, err = s.ResolveFromRouter(rX, dep.Addr)
	if !errors.Is(err, ErrDeadEnd) {
		t.Errorf("err = %v, want ErrDeadEnd", err)
	}
	// Adding the required default-domain member fixes it.
	s.AddMember(dep, rD)
	res, err := s.ResolveFromRouter(rX, dep.Addr)
	if err != nil || res.Member != rD {
		t.Errorf("res = %+v err %v", res, err)
	}
}

func TestOption1UniversalAccess(t *testing.T) {
	// One participating stub in a transit-stub internet: every host in
	// every domain must reach it (the paper's universal access).
	n, err := topology.TransitStub(3, 3, 0.4, topology.GenConfig{
		Seed: 21, RoutersPerDomain: 3, HostsPerDomain: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := newService(t, n)
	dep, err := s.DeployOption1(0)
	if err != nil {
		t.Fatal(err)
	}
	origin := n.DomainByName("S1.1")
	member := origin.Routers[0]
	s.AddMember(dep, member)

	for _, h := range n.Hosts {
		res, err := s.ResolveFromHost(h, dep.Addr)
		if err != nil {
			t.Fatalf("host %s: %v", h.Name, err)
		}
		if res.Member != member {
			t.Errorf("host %s landed at %d", h.Name, res.Member)
		}
		if res.Cost <= 0 && h.Domain != origin.ASN {
			t.Errorf("host %s zero-cost cross-domain path", h.Name)
		}
	}
}

func TestOption1ClosestParticipantWins(t *testing.T) {
	// Provider chain A←B←C (A provides B, B provides C). Participants in
	// A and C; a client in B resolves to whichever is policy-preferred:
	// the customer route (C) beats the provider route (A).
	b := topology.NewBuilder()
	dA := b.AddDomain("A")
	dB := b.AddDomain("B")
	dC := b.AddDomain("C")
	rA := b.AddRouter(dA, "")
	rB := b.AddRouter(dB, "")
	rC := b.AddRouter(dC, "")
	b.Provide(rA, rB, 10)
	b.Provide(rB, rC, 10)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := newService(t, n)
	dep, _ := s.DeployOption1(0)
	s.AddMember(dep, rA)
	s.AddMember(dep, rC)
	res, err := s.ResolveFromRouter(rB, dep.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Member != rC {
		t.Errorf("B resolved to %d, want customer-side member %d", res.Member, rC)
	}
}

func TestSeamlessSpreadMovesCapture(t *testing.T) {
	// Figure 1 dynamics, inter-domain: client in Z, deployment spreads
	// X → Y → Z along Z's provider chain; capture moves closer, cost
	// drops monotonically, and the client's anycast address never
	// changes.
	b := topology.NewBuilder()
	dX := b.AddDomain("X")
	dY := b.AddDomain("Y")
	dZ := b.AddDomain("Z")
	rX := b.AddRouter(dX, "")
	rY := b.AddRouter(dY, "")
	rZ := b.AddRouters(dZ, 2)
	b.IntraLink(rZ[0], rZ[1], 2)
	b.Provide(rX, rY, 10)
	b.Provide(rY, rZ[0], 10)
	h := b.AddHost(dZ, rZ[1], "C", 1)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := newService(t, n)
	dep, _ := s.DeployOption2(0, dX.ASN) // X is first mover and default
	s.AddMember(dep, rX)

	res1, err := s.ResolveFromHost(h, dep.Addr)
	if err != nil || n.DomainOf(res1.Member) != dX.ASN {
		t.Fatalf("stage 1: %+v err %v", res1, err)
	}
	s.AddMember(dep, rY)
	res2, err := s.ResolveFromHost(h, dep.Addr)
	if err != nil || n.DomainOf(res2.Member) != dY.ASN {
		t.Fatalf("stage 2: %+v err %v", res2, err)
	}
	s.AddMember(dep, rZ[0])
	res3, err := s.ResolveFromHost(h, dep.Addr)
	if err != nil || n.DomainOf(res3.Member) != dZ.ASN {
		t.Fatalf("stage 3: %+v err %v", res3, err)
	}
	if !(res3.Cost < res2.Cost && res2.Cost < res1.Cost) {
		t.Errorf("costs not monotone: %d, %d, %d", res1.Cost, res2.Cost, res3.Cost)
	}
}

func TestRemoveMemberMovesCapture(t *testing.T) {
	n, s, dep := figure2(t, false)
	dQ := n.DomainByName("Q")
	hZ := n.HostsIn(n.DomainByName("Z").ASN)[0]
	res, _ := s.ResolveFromHost(hZ, dep.Addr)
	if n.DomainOf(res.Member) != dQ.ASN {
		t.Fatal("precondition: Z captured by Q")
	}
	// Q's only member leaves: Z falls through to D.
	s.RemoveMember(dep, dep.MembersIn(dQ.ASN)[0])
	res, err := s.ResolveFromHost(hZ, dep.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.DomainOf(res.Member); got != n.DomainByName("D").ASN {
		t.Errorf("after removal Z resolved into %s", n.Domain(got).Name)
	}
}

func TestOption1WithdrawOnLastMember(t *testing.T) {
	b := topology.NewBuilder()
	dA := b.AddDomain("A")
	dB := b.AddDomain("B")
	rA := b.AddRouter(dA, "")
	rB := b.AddRouter(dB, "")
	b.Peer(rA, rB, 10)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := newService(t, n)
	dep, _ := s.DeployOption1(0)
	s.AddMember(dep, rA)
	if _, err := s.ResolveFromRouter(rB, dep.Addr); err != nil {
		t.Fatal(err)
	}
	s.RemoveMember(dep, rA)
	if _, err := s.ResolveFromRouter(rB, dep.Addr); !errors.Is(err, ErrNoRoute) {
		t.Errorf("err = %v, want ErrNoRoute", err)
	}
}

func TestResolutionPathIsConnected(t *testing.T) {
	n, s, dep := figure2(t, false)
	g := n.RouterGraph()
	for _, h := range n.Hosts {
		res, err := s.ResolveFromHost(h, dep.Addr)
		if err != nil {
			t.Fatal(err)
		}
		if res.RouterPath[0] != h.Attach {
			t.Errorf("path starts at %d, want attach %d", res.RouterPath[0], h.Attach)
		}
		if res.RouterPath[len(res.RouterPath)-1] != res.Member {
			t.Error("path does not end at member")
		}
		for i := 0; i+1 < len(res.RouterPath); i++ {
			if !g.HasEdge(int(res.RouterPath[i]), int(res.RouterPath[i+1])) {
				t.Errorf("path hop %d→%d is not a link", res.RouterPath[i], res.RouterPath[i+1])
			}
		}
	}
}

func TestMembersAccessors(t *testing.T) {
	n, s, dep := figure2(t, false)
	if got := len(dep.Members()); got != 2 {
		t.Errorf("Members = %d", got)
	}
	if got := len(dep.ParticipatingASes()); got != 2 {
		t.Errorf("ParticipatingASes = %d", got)
	}
	dD := n.DomainByName("D")
	if got := dep.MembersIn(dD.ASN); len(got) != 1 {
		t.Errorf("MembersIn(D) = %v", got)
	}
	// Idempotent add.
	s.AddMember(dep, dep.MembersIn(dD.ASN)[0])
	if got := len(dep.Members()); got != 2 {
		t.Errorf("idempotent add broke Members: %d", got)
	}
	// Removing an unknown member is a no-op.
	s.RemoveMember(dep, 9999)
}

// TestRestricted: a provider deployment derived from the main one answers
// to its own address with exactly the main deployment's members in its
// domain, captures there, and is not reached by later churn on the main
// deployment.
func TestRestricted(t *testing.T) {
	n, s, dep := figure2(t, false)
	dQ := n.DomainByName("Q")
	pd, err := s.DeployOption2(1, dQ.ASN)
	if err != nil {
		t.Fatal(err)
	}
	r := dep.Restricted(dQ.ASN, pd)
	if r.Option != pd.Option || r.Addr != pd.Addr || r.Group != pd.Group || r.DefaultAS != pd.DefaultAS {
		t.Errorf("identity %v %s %d AS%d, want %v %s %d AS%d", r.Option, r.Addr, r.Group, r.DefaultAS, pd.Option, pd.Addr, pd.Group, pd.DefaultAS)
	}
	want := dep.MembersIn(dQ.ASN)
	if got := r.Members(); len(got) != 1 || got[0] != want[0] {
		t.Errorf("members %v, want %v", got, want)
	}
	res, err := s.ResolveFromRouterVia(r, n.DomainByName("X").Routers[0])
	if err != nil || res.Member != want[0] {
		t.Errorf("resolution from X: r%d, %v; want r%d", res.Member, err, want[0])
	}
	s.AddMember(dep, dQ.Routers[0])
	if got := r.MembersIn(dQ.ASN); len(got) != 1 {
		t.Errorf("main deployment churn reached the restricted one: %v", got)
	}
}

func TestCatchment(t *testing.T) {
	n, s, dep := figure2(t, false)
	c := s.Catchment(dep)
	if len(c[-1]) != 0 {
		t.Errorf("unresolved domains: %v", c[-1])
	}
	dD := n.DomainByName("D").ASN
	dQ := n.DomainByName("Q").ASN
	// Every domain lands in D or Q; Z and Q land in Q.
	var total int
	for p, srcs := range c {
		if p != dD && p != dQ {
			t.Errorf("capture by non-participant AS%d", p)
		}
		total += len(srcs)
	}
	if total != len(n.ASNs()) {
		t.Errorf("catchment covers %d/%d domains", total, len(n.ASNs()))
	}
	inQ := map[topology.ASN]bool{}
	for _, a := range c[dQ] {
		inQ[a] = true
	}
	if !inQ[n.DomainByName("Z").ASN] || !inQ[dQ] {
		t.Errorf("Q's catchment = %v", c[dQ])
	}
}

func TestBootstrapFindsOtherParticipant(t *testing.T) {
	n, s, dep := figure2(t, false)
	dQ := n.DomainByName("Q")
	dD := n.DomainByName("D")
	qMember := dep.MembersIn(dQ.ASN)[0]
	// Q bootstraps from its own member: must land on D's member, not
	// capture at home.
	res, err := s.Bootstrap(dep, dQ.ASN, qMember)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.DomainOf(res.Member); got != dD.ASN {
		t.Errorf("bootstrap landed in %s, want D", n.Domain(got).Name)
	}
	// Membership state must be restored afterwards.
	if len(dep.MembersIn(dQ.ASN)) != 1 {
		t.Error("bootstrap did not restore membership")
	}
	res2, err := s.ResolveFromRouter(qMember, dep.Addr)
	if err != nil || res2.Member != qMember {
		t.Errorf("post-bootstrap resolve = %+v err %v", res2, err)
	}
	// The default domain cannot bootstrap off itself.
	if _, err := s.Bootstrap(dep, dD.ASN, dep.MembersIn(dD.ASN)[0]); err == nil {
		t.Error("default-domain bootstrap accepted")
	}
}

func TestBootstrapOption1RestoresOrigination(t *testing.T) {
	b := topology.NewBuilder()
	dA := b.AddDomain("A")
	dB := b.AddDomain("B")
	dC := b.AddDomain("C")
	rA := b.AddRouter(dA, "")
	rB := b.AddRouter(dB, "")
	rC := b.AddRouter(dC, "")
	b.Provide(rA, rB, 10)
	b.Provide(rB, rC, 10)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := newService(t, n)
	dep, _ := s.DeployOption1(0)
	s.AddMember(dep, rA)
	s.AddMember(dep, rC)
	res, err := s.Bootstrap(dep, dC.ASN, rC)
	if err != nil {
		t.Fatal(err)
	}
	if res.Member != rA {
		t.Errorf("bootstrap member = %d, want %d", res.Member, rA)
	}
	// C's origination must be back: B resolves to its customer-side C.
	res, err = s.ResolveFromRouter(rB, dep.Addr)
	if err != nil || res.Member != rC {
		t.Errorf("post-bootstrap resolve = %+v err %v", res, err)
	}
}

func TestResolveErrors(t *testing.T) {
	n, s, _ := figure2(t, false)
	if _, err := s.ResolveFromRouter(0, addr.MustParseV4("9.9.9.9")); err == nil {
		t.Error("undeployed address resolved")
	}
	if s.deployments[addr.MustParseV4("9.9.9.9")] != nil {
		t.Error("unknown deployment not nil")
	}
	if _, err := s.DeployOption2(0, topology.ASN(999)); err == nil {
		t.Error("unknown default AS accepted")
	}
	dep2, err := s.DeployOption1(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AdvertiseToNeighbors(dep2, n.ASNs()[0]); err == nil {
		t.Error("peering advert on option-1 deployment accepted")
	}
}

// TestSeveredBorderIsNoRoute: when intra-domain failures cut a
// non-participant domain's router off from its border, the anycast walk
// reports no route (the unicast walk's "unreachable", under anycast's own
// sentinel).
func TestSeveredBorderIsNoRoute(t *testing.T) {
	b := topology.NewBuilder()
	dA := b.AddDomain("A")
	dB := b.AddDomain("B")
	rA := b.AddRouters(dA, 2)
	rB := b.AddRouter(dB, "")
	b.IntraLink(rA[0], rA[1], 1)
	b.Provide(rB, rA[1], 10) // A's border is rA[1]
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := newService(t, n)
	dep, err := s.DeployOption1(0)
	if err != nil {
		t.Fatal(err)
	}
	s.AddMember(dep, rB)
	if res, err := s.ResolveFromRouter(rA[0], dep.Addr); err != nil || res.Member != rB || res.Cost != 11 {
		t.Fatalf("precondition: %+v, %v", res, err)
	}
	n.FailIntraLink(rA[0], rA[1])
	s.igp.InvalidateDomain(n.DomainOf(rA[0]))
	if _, err := s.ResolveFromRouter(rA[0], dep.Addr); !errors.Is(err, ErrNoRoute) {
		t.Errorf("err = %v, want ErrNoRoute", err)
	}
}
