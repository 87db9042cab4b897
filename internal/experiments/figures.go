package experiments

import (
	"fmt"

	"github.com/evolvable-net/evolve/internal/anycast"
	"github.com/evolvable-net/evolve/internal/core"
	"github.com/evolvable-net/evolve/internal/forward"
	"github.com/evolvable-net/evolve/internal/routing/bgp"
	"github.com/evolvable-net/evolve/internal/routing/bgpvn"
	"github.com/evolvable-net/evolve/internal/topology"
	"github.com/evolvable-net/evolve/internal/underlay"
	"github.com/evolvable-net/evolve/internal/vnbone"
)

// Fig1SeamlessSpread reproduces Figure 1: IPv8 deployed successively in
// ISPs X, then Y, then Z; throughout, client C (in Z) is seamlessly
// redirected to the closest IPv8 provider without any reconfiguration.
// ISP W peers with both X and Y to exhibit the policy-choice remark.
func Fig1SeamlessSpread(seed int64) (*Table, error) {
	t := &Table{
		ID:    "E1",
		Title: "Figure 1 — anycast enables the seamless spread of deployment",
		Claim: "as deployment spreads X→Y→Z, client C is redirected to the closest provider with no endhost reconfiguration",
		Columns: []string{
			"stage", "deployed", "C's ingress ISP", "redirection cost", "endhost reconfig",
		},
	}
	b := topology.NewBuilder()
	dX := b.AddDomain("X")
	dY := b.AddDomain("Y")
	dZ := b.AddDomain("Z")
	dW := b.AddDomain("W")
	rX := b.AddRouters(dX, 2)
	rY := b.AddRouters(dY, 2)
	rZ := b.AddRouters(dZ, 2)
	rW := b.AddRouter(dW, "")
	b.IntraLink(rX[0], rX[1], 2)
	b.IntraLink(rY[0], rY[1], 2)
	b.IntraLink(rZ[0], rZ[1], 2)
	// Provider chain X → Y → Z, with W peered to X and Y.
	b.Provide(rX[1], rY[0], 10)
	b.Provide(rY[1], rZ[0], 10)
	b.Peer(rW, rX[0], 10)
	b.Peer(rW, rY[0], 10)
	c := b.AddHost(dZ, rZ[1], "C", 1)
	net, err := b.Build()
	if err != nil {
		return nil, err
	}

	evo, err := core.New(net, core.Config{
		Option:    anycast.Option2,
		DefaultAS: dX.ASN, // X is the first mover and default domain
	})
	if err != nil {
		return nil, err
	}
	anycastAddr := evo.AnycastAddr()

	stages := []struct {
		name   string
		deploy []topology.RouterID
		want   topology.ASN
	}{
		{"1: X deploys", []topology.RouterID{rX[0], rX[1]}, dX.ASN},
		{"2: Y deploys", []topology.RouterID{rY[0], rY[1]}, dY.ASN},
		{"3: Z deploys", []topology.RouterID{rZ[0], rZ[1]}, dZ.ASN},
	}
	var lastCost int64 = 1 << 62
	okSequence := true
	deployedNames := ""
	for i, st := range stages {
		for _, r := range st.deploy {
			evo.DeployRouter(r)
		}
		if i > 0 {
			deployedNames += "+"
		}
		deployedNames += net.Domain(st.want).Name
		res, err := evo.ResolveAnycast(c.Attach, anycastAddr)
		if err != nil {
			return nil, fmt.Errorf("stage %s: %w", st.name, err)
		}
		res.Cost += c.AccessLatency
		ingress := net.Domain(net.DomainOf(res.Member)).Name
		// The endhost's configuration is the anycast address; it never
		// changes across stages.
		reconf := "none"
		if evo.AnycastAddr() != anycastAddr {
			reconf = "CHANGED"
		}
		t.AddRow(st.name, deployedNames, ingress, fmt.Sprintf("%d", res.Cost), reconf)
		if net.DomainOf(res.Member) != st.want || res.Cost >= lastCost {
			okSequence = false
		}
		lastCost = res.Cost
	}

	if okSequence {
		t.pass("ingress moved X→Y→Z with strictly decreasing cost and zero endhost reconfiguration")
	} else {
		t.fail("ingress sequence or cost monotonicity violated")
	}
	return t, nil
}

// fig2World builds the Figure 2 scenario shared by E2.
type fig2World struct {
	net *topology.Network
	svc *anycast.Service
	dep *anycast.Deployment
	dQ  *topology.Domain
	dY  *topology.Domain
}

func buildFig2() (*fig2World, error) {
	b := topology.NewBuilder()
	dD := b.AddDomain("D")
	dQ := b.AddDomain("Q")
	dP := b.AddDomain("P")
	dX := b.AddDomain("X")
	dY := b.AddDomain("Y")
	dZ := b.AddDomain("Z")
	rD := b.AddRouters(dD, 2)
	rQ := b.AddRouters(dQ, 2)
	rP := b.AddRouter(dP, "")
	rX := b.AddRouter(dX, "")
	rY := b.AddRouter(dY, "")
	rZ := b.AddRouter(dZ, "")
	b.IntraLink(rD[0], rD[1], 2)
	b.IntraLink(rQ[0], rQ[1], 2)
	b.Provide(rD[0], rX, 10)
	b.Provide(rD[0], rY, 10)
	b.Provide(rD[1], rQ[0], 10)
	b.Provide(rQ[1], rZ, 10)
	b.Peer(rP, rQ[0], 10) // P, as in the figure, sits beside Q
	b.Peer(rQ[0], rY, 5)  // the physical Q–Y link the later advert uses
	for _, d := range []*topology.Domain{dX, dY, dZ, dP} {
		b.AddHost(d, d.Routers[0], "h"+d.Name, 1)
	}
	net, err := b.Build()
	if err != nil {
		return nil, err
	}
	igp := underlay.NewView(net)
	svc := anycast.NewService(net, bgp.NewSystem(net), igp)
	dep, err := svc.DeployOption2(0, dD.ASN)
	if err != nil {
		return nil, err
	}
	svc.AddMember(dep, rD[1])
	svc.AddMember(dep, rQ[1])
	return &fig2World{net: net, svc: svc, dep: dep, dQ: dQ, dY: dY}, nil
}

// Fig2DefaultRoutes reproduces Figure 2: option-2 anycast with
// ISP-rooted unicast addresses and default routes; then ISP Q peers with
// Y to advertise its anycast route and Y's traffic moves from D to Q.
func Fig2DefaultRoutes(seed int64) (*Table, error) {
	t := &Table{
		ID:    "E2",
		Title: "Figure 2 — inter-domain anycast via default ISP + peering advertisements",
		Claim: "before the advert X,Y terminate in D and Z reaches Q; after Q advertises to Y, Y's packets are delivered to Q; others unchanged",
		Columns: []string{
			"phase", "client ISP", "lands in", "cost",
		},
	}
	w, err := buildFig2()
	if err != nil {
		return nil, err
	}
	landing := func(phase string) (map[string]string, error) {
		out := map[string]string{}
		for _, name := range []string{"X", "Y", "Z"} {
			h := w.net.HostsIn(w.net.DomainByName(name).ASN)[0]
			res, err := w.svc.ResolveFromHost(h, w.dep.Addr)
			if err != nil {
				return nil, fmt.Errorf("%s from %s: %w", phase, name, err)
			}
			in := w.net.Domain(w.net.DomainOf(res.Member)).Name
			out[name] = in
			t.AddRow(phase, name, in, fmt.Sprintf("%d", res.Cost))
		}
		return out, nil
	}

	before, err := landing("before advert")
	if err != nil {
		return nil, err
	}
	if err := w.svc.AdvertiseToNeighbors(w.dep, w.dQ.ASN, w.dY.ASN); err != nil {
		return nil, err
	}
	after, err := landing("after advert")
	if err != nil {
		return nil, err
	}

	ok := before["X"] == "D" && before["Y"] == "D" && before["Z"] == "Q" &&
		after["X"] == "D" && after["Y"] == "Q" && after["Z"] == "Q"
	if ok {
		t.pass("X→D, Y→D, Z→Q before; Y moves to Q after the peering advert; X and Z unchanged")
	} else {
		t.fail("landing pattern %v → %v does not match the figure", before, after)
	}
	return t, nil
}

// Fig3EgressSelection reproduces Figure 3: with only BGPvN the packet
// exits the vN-Bone at ingress domain M's router X; importing BGPv(N-1)
// lets it ride the bone to Y in ISP O, next to destination C.
func Fig3EgressSelection(seed int64) (*Table, error) {
	t := &Table{
		ID:    "E3",
		Title: "Figure 3 — egress selection with imported BGPv(N-1)",
		Claim: "with BGPv(N-1)+BGPvN the last IPvN hop moves from X (ISP M) to Y (ISP O) and the total path cost does not increase",
		Columns: []string{
			"routing", "last IPvN hop", "vN hops", "bone cost", "tail cost", "total",
		},
	}
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
	net, err := b.Build()
	if err != nil {
		return nil, err
	}
	igp := underlay.NewView(net)
	bgpSys := bgp.NewSystem(net)
	svc := anycast.NewService(net, bgpSys, igp)
	dep, err := svc.DeployOption1(0)
	if err != nil {
		return nil, err
	}
	x := rM[0]
	y := rO[1]
	svc.AddMember(dep, x)
	svc.AddMember(dep, y)
	bone, err := vnbone.Build(svc, igp, dep, vnbone.Config{})
	if err != nil {
		return nil, err
	}
	fwd := forward.NewEngine(net, bgpSys, igp)
	vn := bgpvn.New(bone, fwd, net)

	var totals [2]int64
	var egressNames [2]string
	for i, pol := range []bgpvn.EgressPolicy{bgpvn.ExitEarly, bgpvn.PathInformed} {
		eg, err := vn.SelectEgress(x, c.Addr, pol)
		if err != nil {
			return nil, err
		}
		tail, err := fwd.FromRouter(eg.Member, c.Addr)
		if err != nil {
			return nil, err
		}
		total := eg.BoneCost + tail
		totals[i] = total
		egressNames[i] = net.Router(eg.Member).Name
		label := "BGPvN only"
		if pol == bgpvn.PathInformed {
			label = "BGPvN + BGPv(N-1)"
		}
		t.AddRow(label, egressNames[i],
			fmt.Sprintf("%d", len(eg.BonePath)-1),
			fmt.Sprintf("%d", eg.BoneCost),
			fmt.Sprintf("%d", tail),
			fmt.Sprintf("%d", total))
	}

	wantX, wantY := net.Router(x).Name, net.Router(y).Name
	if egressNames[0] == wantX && egressNames[1] == wantY && totals[1] <= totals[0] {
		t.pass("last IPvN hop moved %s → %s; total cost %d → %d", wantX, wantY, totals[0], totals[1])
	} else {
		t.fail("egress %v totals %v", egressNames, totals)
	}
	return t, nil
}

// Fig4AdvByProxy reproduces Figure 4: participants A, B, C; destination Z
// behind non-participants. Without advertising-by-proxy the packet exits
// at A; with it, B and C advertise their BGPv(N-1) distance to Z into
// BGPvN and the packet rides the bone A→B→C before exiting beside Z.
func Fig4AdvByProxy(seed int64) (*Table, error) {
	t := &Table{
		ID:    "E4",
		Title: "Figure 4 — advertising-by-proxy",
		Claim: "with advertising-by-proxy the egress moves from A to C (1 AS hop from Z) and the underlay tail shortens",
		Columns: []string{
			"mode", "egress ISP", "bone path", "remaining AS hops", "tail cost", "total",
		},
	}
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
	b.Peer(rA, rB, 10)
	b.Peer(rB, rC, 10)
	b.Provide(rM, rA, 10)
	b.Provide(rM, rN, 10)
	b.Provide(rN, rZ, 10)
	b.Provide(rC, rZ, 10)
	z := b.AddHost(dZ, rZ, "hZ", 1)
	net, err := b.Build()
	if err != nil {
		return nil, err
	}
	igp := underlay.NewView(net)
	bgpSys := bgp.NewSystem(net)
	svc := anycast.NewService(net, bgpSys, igp)
	dep, err := svc.DeployOption1(0)
	if err != nil {
		return nil, err
	}
	for _, r := range []topology.RouterID{rA, rB, rC} {
		svc.AddMember(dep, r)
	}
	bone, err := vnbone.Build(svc, igp, dep, vnbone.Config{})
	if err != nil {
		return nil, err
	}
	fwd := forward.NewEngine(net, bgpSys, igp)
	vn := bgpvn.New(bone, fwd, net)

	var totals [2]int64
	var egress [2]string
	modes := []struct {
		label string
		pol   bgpvn.EgressPolicy
	}{
		{"without proxy", bgpvn.PathInformed},
		{"with proxy", bgpvn.ProxyInformed},
	}
	for i, m := range modes {
		eg, err := vn.SelectEgress(rA, z.Addr, m.pol)
		if err != nil {
			return nil, err
		}
		tail, err := fwd.FromRouter(eg.Member, z.Addr)
		if err != nil {
			return nil, err
		}
		rem, _ := fwd.DomainDistance(net.DomainOf(eg.Member), z.Addr)
		pathStr := ""
		for j, p := range eg.BonePath {
			if j > 0 {
				pathStr += "→"
			}
			pathStr += net.Domain(net.DomainOf(p)).Name
		}
		totals[i] = eg.BoneCost + tail
		egress[i] = net.Domain(net.DomainOf(eg.Member)).Name
		t.AddRow(m.label, egress[i], pathStr,
			fmt.Sprintf("%d", rem),
			fmt.Sprintf("%d", tail),
			fmt.Sprintf("%d", totals[i]))
	}

	if egress[0] == "A" && egress[1] == "C" && totals[1] <= totals[0] {
		t.pass("egress moved A → C; total cost %d → %d", totals[0], totals[1])
	} else {
		t.fail("egress %v totals %v", egress, totals)
	}
	return t, nil
}
