package experiments

import (
	"fmt"

	"github.com/evolvable-net/evolve/internal/anycast"
	"github.com/evolvable-net/evolve/internal/core"
	"github.com/evolvable-net/evolve/internal/routing/bgpvn"
	"github.com/evolvable-net/evolve/internal/topology"
)

// EndhostRegistration is E14: the §3.3.2 anycast-based endhost route
// advertisement — the option the paper finds "appealing" but sets aside —
// compared against the egress policies it would replace.
func EndhostRegistration(seed int64) (*Table, error) {
	t := &Table{
		ID:    "E14",
		Title: "endhost /128 registration vs egress policies (§3.3.2)",
		Claim: "a registered endhost's deliveries egress at its nearby participant and cost no more than any egress policy; registration renews as deployment spreads",
		Columns: []string{
			"mechanism", "egress ISP", "total cost", "stretch",
		},
	}
	// The Figure-3 world: src in participant M; destination C in
	// non-participant NC behind participant O.
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
	src := b.AddHost(dM, rM[0], "src", 1)
	c := b.AddHost(dNC, rNC, "C", 1)
	net, err := b.Build()
	if err != nil {
		return nil, err
	}

	run := func(pol bgpvn.EgressPolicy, register bool) (core.Delivery, error) {
		evo, err := core.New(net, core.Config{Option: anycast.Option1, Egress: pol})
		if err != nil {
			return core.Delivery{}, err
		}
		evo.DeployRouter(rM[0])
		evo.DeployRouter(rO[1])
		if register {
			if err := evo.RegisterEndhost(c); err != nil {
				return core.Delivery{}, err
			}
		}
		return evo.Send(src, c, []byte("x"))
	}

	costs := map[string]int64{}
	for _, m := range []struct {
		name     string
		pol      bgpvn.EgressPolicy
		register bool
	}{
		{"exit-early", bgpvn.ExitEarly, false},
		{"path-informed", bgpvn.PathInformed, false},
		{"proxy-informed", bgpvn.ProxyInformed, false},
		{"registered /128", bgpvn.ExitEarly, true},
	} {
		d, err := run(m.pol, m.register)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.name, err)
		}
		egName := net.Domain(net.DomainOf(d.Egress.Member)).Name
		costs[m.name] = d.TotalCost
		t.AddRow(m.name, egName, fmt.Sprintf("%d", d.TotalCost), fmt.Sprintf("%.3f", d.Stretch))
	}

	ok := costs["registered /128"] <= costs["exit-early"] &&
		costs["registered /128"] <= costs["path-informed"] &&
		costs["registered /128"] <= costs["proxy-informed"]
	if ok {
		t.pass("registration (cost %d) matches or beats every egress policy (%d/%d/%d)",
			costs["registered /128"], costs["exit-early"], costs["path-informed"], costs["proxy-informed"])
	} else {
		t.fail("costs: %v", costs)
	}
	return t, nil
}

// ProviderChoice is E15: §2.1's user-choice extension — "offer users the
// choice of which IPvN service provider their IPvN packets are redirected
// to" — and what that choice costs and pays.
func ProviderChoice(seed int64) (*Table, error) {
	t := &Table{
		ID:    "E15",
		Title: "user choice of IPvN service provider (§2.1 extension)",
		Claim: "with provider-specific anycast addresses the user's packets ingress at the chosen provider regardless of proximity; the default address still picks the closest; choice shifts traffic (revenue) between providers",
		Columns: []string{
			"selection", "ingress ISP", "ingress cost", "total cost",
		},
	}
	b := topology.NewBuilder()
	dP1 := b.AddDomain("P1")
	dP2 := b.AddDomain("P2")
	dC := b.AddDomain("C")
	rP1 := b.AddRouter(dP1, "")
	rP2 := b.AddRouter(dP2, "")
	rC := b.AddRouter(dC, "")
	b.Peer(rP1, rP2, 40)
	b.Provide(rP1, rC, 10)
	b.Provide(rP2, rC, 25)
	user := b.AddHost(dC, rC, "user", 1)
	srv := b.AddHost(dP2, rP2, "server", 1)
	net, err := b.Build()
	if err != nil {
		return nil, err
	}
	evo, err := core.New(net, core.Config{Option: anycast.Option1})
	if err != nil {
		return nil, err
	}
	evo.DeployRouter(rP1)
	evo.DeployRouter(rP2)
	if _, err := evo.EnableProviderChoice(dP1.ASN); err != nil {
		return nil, err
	}
	if _, err := evo.EnableProviderChoice(dP2.ASN); err != nil {
		return nil, err
	}

	type result struct {
		ingress topology.ASN
		d       core.Delivery
	}
	runs := map[string]result{}
	record := func(name string, d core.Delivery, err error) error {
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		asn := net.DomainOf(d.Ingress.Member)
		runs[name] = result{ingress: asn, d: d}
		t.AddRow(name, net.Domain(asn).Name,
			fmt.Sprintf("%d", d.Ingress.Cost),
			fmt.Sprintf("%d", d.TotalCost))
		return nil
	}
	d, err := evo.Send(user, srv, nil)
	if err := record("network picks (default)", d, err); err != nil {
		return nil, err
	}
	d, err = evo.SendVia(user, srv, dP1.ASN, nil)
	if err := record("user picks P1", d, err); err != nil {
		return nil, err
	}
	d, err = evo.SendVia(user, srv, dP2.ASN, nil)
	if err := record("user picks P2", d, err); err != nil {
		return nil, err
	}

	ok := runs["network picks (default)"].ingress == dP1.ASN &&
		runs["user picks P1"].ingress == dP1.ASN &&
		runs["user picks P2"].ingress == dP2.ASN &&
		runs["user picks P2"].d.Ingress.Cost > runs["user picks P1"].d.Ingress.Cost
	if ok {
		t.pass("default lands at closest (P1); explicit choices land exactly where directed; picking the far provider costs %d vs %d",
			runs["user picks P2"].d.Ingress.Cost, runs["user picks P1"].d.Ingress.Cost)
	} else {
		t.fail("ingress pattern unexpected: %v/%v/%v",
			runs["network picks (default)"].ingress, runs["user picks P1"].ingress, runs["user picks P2"].ingress)
	}
	return t, nil
}
