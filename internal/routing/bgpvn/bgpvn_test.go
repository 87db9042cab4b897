package bgpvn

import (
	"errors"
	"testing"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/anycast"
	"github.com/evolvable-net/evolve/internal/forward"
	"github.com/evolvable-net/evolve/internal/routing/bgp"
	"github.com/evolvable-net/evolve/internal/topology"
	"github.com/evolvable-net/evolve/internal/trace"
	"github.com/evolvable-net/evolve/internal/underlay"
	"github.com/evolvable-net/evolve/internal/vnbone"
)

type env struct {
	net  *topology.Network
	igp  *underlay.View
	svc  *anycast.Service
	fwd  *forward.Engine
	dep  *anycast.Deployment
	bone *vnbone.Bone
	sys  *System
}

func buildEnv(t *testing.T, n *topology.Network, members []topology.RouterID) *env {
	t.Helper()
	igp := underlay.NewView(n)
	bgpSys := bgp.NewSystem(n)
	svc := anycast.NewService(n, bgpSys, igp)
	dep, err := svc.DeployOption1(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range members {
		svc.AddMember(dep, m)
	}
	bone, err := vnbone.Build(svc, igp, dep, vnbone.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fwd := forward.NewEngine(n, bgpSys, igp)
	return &env{net: n, igp: igp, svc: svc, fwd: fwd, dep: dep, bone: bone, sys: New(bone, fwd, n)}
}

// figure3 builds the world of the paper's Figure 3: participant domains M
// and O, destination client C in non-participant domain NC, where M's
// underlay path to NC transits O.
func figure3(t *testing.T) (*env, topology.RouterID, *topology.Host) {
	t.Helper()
	b := topology.NewBuilder()
	dM := b.AddDomain("M")
	dO := b.AddDomain("O")
	dNC := b.AddDomain("NC")
	rM := b.AddRouters(dM, 2)
	rO := b.AddRouters(dO, 2)
	rNC := b.AddRouter(dNC, "")
	b.IntraLink(rM[0], rM[1], 1)
	b.IntraLink(rO[0], rO[1], 1)
	b.Peer(rM[1], rO[0], 10)
	b.Provide(rO[1], rNC, 10)
	c := b.AddHost(dNC, rNC, "C", 1)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// X = M's member (ingress); Y = O's member.
	e := buildEnv(t, n, []topology.RouterID{rM[0], rO[1]})
	return e, rM[0], c
}

func TestFigure3ExitEarly(t *testing.T) {
	e, x, c := figure3(t)
	eg, err := e.sys.SelectEgress(x, c.Addr, ExitEarly)
	if err != nil {
		t.Fatal(err)
	}
	if eg.Member != x {
		t.Errorf("exit-early egress = %d, want ingress %d", eg.Member, x)
	}
	if eg.BoneCost != 0 || len(eg.BonePath) != 1 {
		t.Errorf("exit-early path = %v cost %d", eg.BonePath, eg.BoneCost)
	}
}

func TestFigure3PathInformed(t *testing.T) {
	e, x, c := figure3(t)
	y := e.dep.MembersIn(e.net.DomainByName("O").ASN)[0]
	eg, err := e.sys.SelectEgress(x, c.Addr, PathInformed)
	if err != nil {
		t.Fatal(err)
	}
	if eg.Member != y {
		t.Errorf("path-informed egress = %d, want O's member %d", eg.Member, y)
	}
	if len(eg.BonePath) < 2 || eg.BonePath[0] != x || eg.BonePath[len(eg.BonePath)-1] != y {
		t.Errorf("bone path = %v", eg.BonePath)
	}
	// The informed exit shortens the remaining underlay distance: from Y
	// the packet reaches C's domain in one AS hop instead of two from X.
	dFromX, _ := e.fwd.DomainDistance(e.net.DomainOf(x), c.Addr)
	dFromY, _ := e.fwd.DomainDistance(e.net.DomainOf(y), c.Addr)
	if dFromY >= dFromX {
		t.Errorf("informed egress did not reduce domain distance: %d → %d", dFromX, dFromY)
	}
}

func TestFigure3TotalCostImproves(t *testing.T) {
	// The paper's claim: riding the vN-Bone further (more vN hops) yields
	// a better overall path when the bone is congruent. Verify the
	// informed policy's total underlay cost (bone + tail) is no worse
	// than exit-early's.
	e, x, c := figure3(t)
	var costs [2]int64
	for i, pol := range []EgressPolicy{ExitEarly, PathInformed} {
		eg, err := e.sys.SelectEgress(x, c.Addr, pol)
		if err != nil {
			t.Fatal(err)
		}
		tail, err := e.fwd.FromRouter(eg.Member, c.Addr)
		if err != nil {
			t.Fatal(err)
		}
		costs[i] = eg.BoneCost + tail
	}
	if costs[1] > costs[0] {
		t.Errorf("path-informed total %d worse than exit-early %d", costs[1], costs[0])
	}
}

// figure4 builds the world of the paper's Figure 4: participants A, B, C
// (bone: A–B–C via peering); non-participants M, N, Z. A's underlay path
// to Z is long (A→M→N→Z); C sits next to Z.
func figure4(t *testing.T) (*env, topology.RouterID, *topology.Host) {
	t.Helper()
	b := topology.NewBuilder()
	dA := b.AddDomain("A")
	dB := b.AddDomain("B")
	dC := b.AddDomain("C")
	dM := b.AddDomain("M")
	dN := b.AddDomain("N")
	dZ := b.AddDomain("Z")
	rA := b.AddRouter(dA, "")
	rB := b.AddRouter(dB, "")
	rC := b.AddRouter(dC, "")
	rM := b.AddRouter(dM, "")
	rN := b.AddRouter(dN, "")
	rZ := b.AddRouter(dZ, "")
	// Bone substrate: A–B–C peerings.
	b.Peer(rA, rB, 10)
	b.Peer(rB, rC, 10)
	// Underlay to Z from A: M provides A, N customer of M, Z customer of N.
	b.Provide(rM, rA, 10)
	b.Provide(rM, rN, 10)
	b.Provide(rN, rZ, 10)
	// C provides Z directly.
	b.Provide(rC, rZ, 10)
	z := b.AddHost(dZ, rZ, "hz", 1)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := buildEnv(t, n, []topology.RouterID{rA, rB, rC})
	return e, rA, z
}

func TestFigure4WithoutProxyExitsAtA(t *testing.T) {
	e, a, z := figure4(t)
	// Path-informed sees A's own underlay path A→M→N→Z, which contains no
	// other participant, so it exits at A — exactly the figure's "without
	// advertising-by-proxy" trajectory.
	eg, err := e.sys.SelectEgress(a, z.Addr, PathInformed)
	if err != nil {
		t.Fatal(err)
	}
	if eg.Member != a {
		t.Errorf("egress = %d, want ingress %d", eg.Member, a)
	}
}

func TestFigure4ProxyRoutesViaC(t *testing.T) {
	e, a, z := figure4(t)
	cMember := e.dep.MembersIn(e.net.DomainByName("C").ASN)[0]
	eg, err := e.sys.SelectEgress(a, z.Addr, ProxyInformed)
	if err != nil {
		t.Fatal(err)
	}
	if eg.Member != cMember {
		t.Errorf("proxy egress = %d, want C's member %d", eg.Member, cMember)
	}
	// Bone path is A → B → C.
	bMember := e.dep.MembersIn(e.net.DomainByName("B").ASN)[0]
	if len(eg.BonePath) != 3 || eg.BonePath[1] != bMember {
		t.Errorf("bone path = %v, want A→B→C", eg.BonePath)
	}
	// And the advertised remaining distance from C is 1 AS hop vs 3 from A.
	dA, _ := e.fwd.DomainDistance(e.net.DomainByName("A").ASN, z.Addr)
	dC, _ := e.fwd.DomainDistance(e.net.DomainByName("C").ASN, z.Addr)
	if dA != 3 || dC != 1 {
		t.Errorf("domain distances: A=%d C=%d", dA, dC)
	}
}

func TestRouteNative(t *testing.T) {
	e, x, _ := figure3(t)
	// O's native block: a destination inside it routes to O's member.
	oASN := e.net.DomainByName("O").ASN
	y := e.dep.MembersIn(oASN)[0]
	dst := addr.NativeVN(int(oASN), 0)
	eg, err := e.sys.RouteNative(x, dst)
	if err != nil {
		t.Fatal(err)
	}
	if eg.Member != y {
		t.Errorf("native egress = %d, want %d", eg.Member, y)
	}
	if len(eg.BonePath) < 2 {
		t.Errorf("bone path = %v", eg.BonePath)
	}
	// Local native destination: egress in own domain at zero bone cost.
	mASN := e.net.DomainByName("M").ASN
	localDst := addr.NativeVN(int(mASN), 0)
	eg, err = e.sys.RouteNative(x, localDst)
	if err != nil || eg.Member != x || eg.BoneCost != 0 {
		t.Errorf("local native egress = %+v err %v", eg, err)
	}
}

func TestRouteNativeNoRoute(t *testing.T) {
	e, x, _ := figure3(t)
	// A native address of a domain that never joined.
	stranger := addr.DomainVNPrefix(9999)
	if _, err := e.sys.RouteNative(x, stranger.Addr); !errors.Is(err, ErrNoVNRoute) {
		t.Errorf("err = %v", err)
	}
	// Self-addresses are not native either.
	if _, err := e.sys.RouteNative(x, addr.SelfAddress(1)); !errors.Is(err, ErrNoVNRoute) {
		t.Errorf("self addr err = %v", err)
	}
}

func TestAdvertiseNativeHostRoute(t *testing.T) {
	e, x, c := figure3(t)
	// O agrees to carry a /128 for C's temporary address (the paper's
	// anycast-advertised endhost option, which we support but don't
	// default to).
	oASN := e.net.DomainByName("O").ASN
	self := addr.SelfAddress(c.Addr)
	e.sys.AdvertiseNative(addr.HostVNPrefix(self), oASN)
	eg, err := e.sys.RouteNative(x, self)
	if err != nil {
		t.Fatal(err)
	}
	if e.net.DomainOf(eg.Member) != oASN {
		t.Errorf("host-route egress in %d", e.net.DomainOf(eg.Member))
	}
}

// TestRouteRuleOrder walks Route's rules on Figure 3: a native
// destination routes by prefix whatever origin it is handed; a
// self-addressed one falls to the egress policy (exit-early: out at the
// ingress) unless it has a registered origin or an advertised /128, and
// the origin outranks the /128; a native destination nothing advertises
// has no policy to fall back on.
func TestRouteRuleOrder(t *testing.T) {
	e, x, c := figure3(t)
	mASN, oASN := e.net.DomainByName("M").ASN, e.net.DomainByName("O").ASN
	y := e.dep.MembersIn(oASN)[0]
	self := addr.SelfAddress(c.Addr)
	native := addr.NativeVN(int(oASN), 0)

	check := func(dst addr.VN, origin topology.ASN, wantMember topology.RouterID, wantRule string) {
		t.Helper()
		eg, rule, err := e.sys.Route(x, dst, c.Addr, origin, ExitEarly)
		if err != nil {
			t.Fatal(err)
		}
		if eg.Member != wantMember || rule != wantRule {
			t.Errorf("Route(%s, origin AS%d) = member %d by %q, want %d by %q", dst, origin, eg.Member, rule, wantMember, wantRule)
		}
	}
	check(native, -1, y, trace.EgressNative)
	check(native, mASN, y, trace.EgressNative)
	check(self, -1, x, ExitEarly.String())
	check(self, oASN, y, trace.EgressRegistered)
	e.sys.AdvertiseNative(addr.HostVNPrefix(self), oASN)
	check(self, -1, y, trace.EgressRegistered)
	check(self, mASN, x, trace.EgressRegistered)

	if _, _, err := e.sys.Route(x, addr.DomainVNPrefix(9999).Addr, c.Addr, -1, ExitEarly); !errors.Is(err, ErrNoVNRoute) {
		t.Errorf("unadvertised native destination: err = %v, want ErrNoVNRoute", err)
	}
}

func TestParticipates(t *testing.T) {
	e, _, _ := figure3(t)
	if !e.sys.participants[e.net.DomainByName("M").ASN] {
		t.Error("M should participate")
	}
	if e.sys.participants[e.net.DomainByName("NC").ASN] {
		t.Error("NC should not participate")
	}
}

func TestSelectEgressUnknownPolicy(t *testing.T) {
	e, x, c := figure3(t)
	if _, err := e.sys.SelectEgress(x, c.Addr, EgressPolicy(99)); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestProxyFallsBackWhenNoProxyHasRoute(t *testing.T) {
	e, x, _ := figure3(t)
	// A destination no AS routes to: proxies advertise nothing, so the
	// packet exits at the ingress (and the underlay will report the
	// failure authoritatively).
	eg, err := e.sys.SelectEgress(x, addr.MustParseV4("250.0.0.1"), ProxyInformed)
	if err != nil {
		t.Fatal(err)
	}
	if eg.Member != x {
		t.Errorf("egress = %d, want ingress fallback", eg.Member)
	}
}

// TestHostRouteBeatsCoveringBlock: a /128 inside O's native block,
// advertised by M, wins over the block (it is the longest possible
// match); withdrawing it falls back to the block, and withdrawing a /128
// nothing covers falls back to ErrNoVNRoute.
func TestHostRouteBeatsCoveringBlock(t *testing.T) {
	e, x, c := figure3(t)
	mASN, oASN := e.net.DomainByName("M").ASN, e.net.DomainByName("O").ASN
	y := e.dep.MembersIn(oASN)[0]
	inO := addr.NativeVN(int(oASN), 0)

	e.sys.AdvertiseNative(addr.HostVNPrefix(inO), mASN)
	if eg, err := e.sys.RouteNative(x, inO); err != nil || eg.Member != x {
		t.Fatalf("/128 in M under O's block: egress %+v err %v, want M's member %d", eg, err, x)
	}
	if !e.sys.natives.Delete(addr.HostVNPrefix(inO)) {
		t.Fatal("withdrawing an advertised /128 reported nothing withdrawn")
	}
	if eg, err := e.sys.RouteNative(x, inO); err != nil || eg.Member != y {
		t.Fatalf("after withdrawal: egress %+v err %v, want the block's member %d", eg, err, y)
	}
	if e.sys.natives.Delete(addr.HostVNPrefix(inO)) {
		t.Error("second withdrawal reported a route")
	}

	self := addr.SelfAddress(c.Addr)
	e.sys.AdvertiseNative(addr.HostVNPrefix(self), oASN)
	if eg, err := e.sys.RouteNative(x, self); err != nil || eg.Member != y {
		t.Fatalf("registered self-address: egress %+v err %v", eg, err)
	}
	e.sys.natives.Delete(addr.HostVNPrefix(self))
	if _, err := e.sys.RouteNative(x, self); !errors.Is(err, ErrNoVNRoute) {
		t.Errorf("withdrawn uncovered /128: err = %v, want ErrNoVNRoute", err)
	}

	// A block withdraws like a host route.
	if !e.sys.natives.Delete(addr.DomainVNPrefix(int(oASN))) {
		t.Fatal("withdrawing O's block reported nothing withdrawn")
	}
	if _, err := e.sys.RouteNative(x, inO); !errors.Is(err, ErrNoVNRoute) {
		t.Errorf("withdrawn block: err = %v, want ErrNoVNRoute", err)
	}
}
