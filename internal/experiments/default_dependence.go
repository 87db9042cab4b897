package experiments

import (
	"fmt"

	"github.com/evolvable-net/evolve/internal/anycast"
	"github.com/evolvable-net/evolve/internal/core"
	"github.com/evolvable-net/evolve/internal/topology"
)

// DefaultDomainDependence is E20: the paper's own admitted failing of
// option 2 — "the default provider owns the anycast address and receives
// a larger than normal share of IPvN traffic" — taken to its limit: what
// happens when the default domain stops serving? Clients whose paths meet
// no other participant lose IPvN entirely under option 2; option 1 (and
// option 2 widened by peering advertisements) survive the default's
// disappearance.
func DefaultDomainDependence(seed int64) (*Table, error) {
	t := &Table{
		ID:    "E20",
		Title: "option 2's default-domain dependence (the paper's admitted failing)",
		Claim: "when the default domain withdraws, option-2 clients with no en-route participant dead-end; option 1 and peering-widened option 2 keep universal access",
		Columns: []string{
			"variant", "default serving", "delivery success", "failed clients",
		},
	}
	// D (default) provides X and Q; Q provides Z. Participants: D and Q.
	// X's path to the anycast meets no participant except D itself.
	build := func() (*topology.Network, error) {
		b := topology.NewBuilder()
		dD := b.AddDomain("D")
		dQ := b.AddDomain("Q")
		dX := b.AddDomain("X")
		dZ := b.AddDomain("Z")
		rD := b.AddRouters(dD, 2)
		rQ := b.AddRouters(dQ, 2)
		rX := b.AddRouter(dX, "")
		rZ := b.AddRouter(dZ, "")
		b.IntraLink(rD[0], rD[1], 2)
		b.IntraLink(rQ[0], rQ[1], 2)
		b.Provide(rD[0], rX, 10)
		b.Provide(rD[1], rQ[0], 10)
		b.Provide(rQ[1], rZ, 10)
		b.AddHost(dX, rX, "hX", 1)
		b.AddHost(dZ, rZ, "hZ", 1)
		return b.Build()
	}

	type variant struct {
		name   string
		option anycast.Option
		widen  bool
	}
	variants := []variant{
		{"option 2", anycast.Option2, false},
		{"option 2 + peering adverts", anycast.Option2, true},
		{"option 1", anycast.Option1, false},
	}

	// Each variant builds its own private network.
	okExpected := true
	for _, v := range variants {
		net, err := build()
		if err != nil {
			return nil, err
		}
		dD := net.DomainByName("D")
		dQ := net.DomainByName("Q")
		dX := net.DomainByName("X")
		evo, err := core.New(net, core.Config{Option: v.option, DefaultAS: dD.ASN})
		if err != nil {
			return nil, err
		}
		evo.DeployDomain(dD.ASN, 0)
		evo.DeployDomain(dQ.ASN, 0)
		if v.widen {
			// Q advertises the anycast host route to every neighbour,
			// including D. NO_EXPORT stops D from re-advertising it, but
			// D still *forwards* along it — which is what rescues X
			// below: X's packets ride to D as before and D relays them
			// to Q instead of dead-ending.
			var nbrs []topology.ASN
			for _, nb := range net.Neighbors(dQ.ASN) {
				nbrs = append(nbrs, nb.ASN)
			}
			if err := evo.AdvertiseToNeighbors(dQ.ASN, nbrs...); err != nil {
				return nil, err
			}
		}

		measure := func(phase string) (okN int, failed []string) {
			for _, h := range net.Hosts {
				if _, err := evo.ResolveAnycast(h.Attach, evo.AnycastAddr()); err != nil {
					failed = append(failed, net.Domain(h.Domain).Name)
					continue
				}
				okN++
			}
			failStr := "-"
			if len(failed) > 0 {
				failStr = fmt.Sprint(failed)
			}
			t.AddRow(v.name, phase, fmt.Sprintf("%d/%d", okN, len(net.Hosts)), failStr)
			return okN, failed
		}

		if n, _ := measure("yes"); n != len(net.Hosts) {
			okExpected = false // everyone must work while D serves
		}
		// The default domain withdraws entirely.
		for _, r := range dD.Routers {
			evo.UndeployRouter(r)
		}
		okN, failed := measure("no")
		switch {
		case v.option == anycast.Option1:
			// Global routes: universal access survives.
			if okN != len(net.Hosts) {
				okExpected = false
			}
		case v.widen:
			// Q's advert gives D a forwarding route it cannot re-export:
			// X's packets still flow to D and are relayed onward to Q —
			// universal access survives the default's withdrawal.
			if okN != len(net.Hosts) {
				okExpected = false
			}
		default:
			// Pure option 2: X must dead-end (its path ends in the empty
			// default domain); Z survives via en-route capture at Q.
			if okN != 1 || len(failed) != 1 || failed[0] != net.Domain(dX.ASN).Name {
				okExpected = false
			}
		}
	}

	if okExpected {
		t.pass("option 2 stranded X when the default withdrew (the paper's admitted failing); option 1 kept 100%% access — quantifying why §3.2 keeps option 1 'open to eventual' adoption")
	} else {
		t.fail("outcome pattern did not match the architectural prediction")
	}
	return t, nil
}
