package experiments

import (
	"fmt"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/anycast"
	"github.com/evolvable-net/evolve/internal/core"
	"github.com/evolvable-net/evolve/internal/econ"
	"github.com/evolvable-net/evolve/internal/netsim"
	"github.com/evolvable-net/evolve/internal/routing/distvec"
	"github.com/evolvable-net/evolve/internal/routing/linkstate"
)

// AdoptionDynamics is E9: the §2.1 incentive story — with universal
// access a virtuous cycle completes adoption; without it the IP-Multicast
// chicken-and-egg stall recurs.
func AdoptionDynamics(seed int64) (*Table, error) {
	t := &Table{
		ID:    "E9",
		Title: "adoption dynamics with and without universal access",
		Claim: "with UA a single first mover triggers a virtuous cycle that completes adoption; without UA demand never takes off and deployment collapses",
		Columns: []string{
			"scenario", "round", "demand", "reach", "deployed ISPs",
		},
	}
	net, err := sweepNetwork(seed)
	if err != nil {
		return nil, err
	}
	sampleRounds := []int{0, 10, 25, 50, 119}
	var outcomes [2]econ.Outcome
	for i, ua := range []bool{true, false} {
		m, err := econ.NewModelFromNetwork(econ.Params{UniversalAccess: ua}, net)
		if err != nil {
			return nil, err
		}
		hist := m.Run()
		name := "with UA"
		if !ua {
			name = "without UA"
		}
		for _, r := range sampleRounds {
			if r >= len(hist) {
				r = len(hist) - 1
			}
			row := hist[r]
			t.AddRow(name, fmt.Sprintf("%d", row.T),
				fmt.Sprintf("%.3f", row.Demand),
				fmt.Sprintf("%.3f", row.Reach),
				fmt.Sprintf("%d/%d", row.DeployedCount, len(m.ISPs)))
		}
		outcomes[i] = m.Outcome()
	}
	if outcomes[0].Completed && !outcomes[1].Completed && outcomes[1].Stalled {
		t.pass("UA completed (demand %.2f, %d ISPs); without UA stalled (demand %.3f, %d ISPs)",
			outcomes[0].FinalDemand, outcomes[0].FinalDeployed,
			outcomes[1].FinalDemand, outcomes[1].FinalDeployed)
	} else {
		t.fail("outcomes: UA %+v, non-UA %+v", outcomes[0], outcomes[1])
	}
	return t, nil
}

// SelfAddressing is E10: the §3.3.2 temporary self-addressing scheme —
// uniqueness, embedded underlay extraction, and relabelling on adoption.
func SelfAddressing(seed int64) (*Table, error) {
	t := &Table{
		ID:    "E10",
		Title: "self-addressing for hosts of non-participant providers",
		Claim: "every such host derives a unique temporary IPvN address embedding its IPv(N-1) address, and relabels to a native address when its provider adopts",
		Columns: []string{
			"check", "hosts", "result",
		},
	}
	net, err := sweepNetwork(seed)
	if err != nil {
		return nil, err
	}
	evo, err := core.New(net, core.Config{Option: anycast.Option2, DefaultAS: net.ASNs()[0]})
	if err != nil {
		return nil, err
	}
	evo.DeployDomain(net.ASNs()[0], 0)

	seen := map[addr.VN]bool{}
	unique, embeds, flagged := true, true, true
	var selfCount int
	for _, h := range net.Hosts {
		v, err := evo.HostVNAddr(h)
		if err != nil {
			return nil, err
		}
		if h.Domain == net.ASNs()[0] {
			continue // natively addressed
		}
		selfCount++
		if seen[v] {
			unique = false
		}
		seen[v] = true
		if !v.IsSelf() {
			flagged = false
		}
		if u, ok := v.Underlay(); !ok || u != h.Addr {
			embeds = false
		}
	}
	t.AddRow("self-flag set", fmt.Sprintf("%d", selfCount), fmt.Sprintf("%v", flagged))
	t.AddRow("addresses unique", fmt.Sprintf("%d", selfCount), fmt.Sprintf("%v", unique))
	t.AddRow("underlay embedded", fmt.Sprintf("%d", selfCount), fmt.Sprintf("%v", embeds))

	// Relabelling: a stub adopts; all its hosts switch to native.
	stub := net.DomainByName("S0.0")
	evo.DeployDomain(stub.ASN, 1)
	relabel := true
	for _, h := range net.HostsIn(stub.ASN) {
		v, err := evo.HostVNAddr(h)
		if err != nil {
			return nil, err
		}
		if v.IsSelf() || !addr.DomainVNPrefix(int(stub.ASN)).Contains(v) {
			relabel = false
		}
	}
	t.AddRow("relabel on adoption", fmt.Sprintf("%d", len(net.HostsIn(stub.ASN))), fmt.Sprintf("%v", relabel))

	if unique && embeds && flagged && relabel {
		t.pass("all %d self-addresses unique with embedded underlay; relabelling verified", selfCount)
	} else {
		t.fail("flag=%v unique=%v embed=%v relabel=%v", flagged, unique, embeds, relabel)
	}
	return t, nil
}

// IntraDomainAnycast is E12: the §3.2 intra-domain anycast extensions —
// link-state with a high-cost virtual link, link-state with explicit
// listing, and distance-vector with a zero-distance advertisement — all
// deliver to the closest member; member discovery works in the link-state
// modes and (as the paper notes) not under distance-vector.
func IntraDomainAnycast(seed int64) (*Table, error) {
	t := &Table{
		ID:    "E12",
		Title: "intra-domain anycast protocol variants",
		Claim: "every variant routes to the closest IPvN router; link-state permits member discovery, distance-vector does not",
		Columns: []string{
			"variant", "closest member found", "dist from r0", "member discovery",
		},
	}
	// Shared 6-router line domain: members at routers 1 and 4; resolving
	// from router 0 must find router 1 at distance 1.
	a, err := addr.Option1Address(0)
	if err != nil {
		return nil, err
	}
	okAll := true

	for _, mode := range []linkstate.Mode{linkstate.ModeHighCostLink, linkstate.ModeExplicitList} {
		eng := netsim.NewEngine()
		fab := netsim.NewFabric(eng)
		adj := map[int][]linkstate.Link{}
		for i := 0; i < 6; i++ {
			if i > 0 {
				adj[i] = append(adj[i], linkstate.Link{To: i - 1, Cost: 1})
			}
			if i < 5 {
				adj[i] = append(adj[i], linkstate.Link{To: i + 1, Cost: 1})
			}
		}
		dom := linkstate.NewDomain(fab, mode, adj)
		dom.Start()
		eng.Run(0)
		dom.Routers[1].ServeAnycast(a)
		dom.Routers[4].ServeAnycast(a)
		eng.Run(0)
		member, dist, _, ok := dom.Routers[0].ResolveAnycast(a)
		members := dom.Routers[0].AnycastMembers(a)
		name := "link-state high-cost link"
		if mode == linkstate.ModeExplicitList {
			name = "link-state explicit listing"
		}
		discovery := fmt.Sprintf("yes (%d members)", len(members))
		t.AddRow(name, fmt.Sprintf("%v (router %d)", ok && member == 1, member),
			fmt.Sprintf("%d", dist), discovery)
		if !ok || member != 1 || dist != 1 || len(members) != 2 {
			okAll = false
		}
	}

	// Distance-vector.
	eng := netsim.NewEngine()
	fab := netsim.NewFabric(eng)
	adjDV := map[int]map[int]int{}
	loops := map[int]addr.V4{}
	for i := 0; i < 6; i++ {
		adjDV[i] = map[int]int{}
		loops[i] = addr.V4FromOctets(10, 0, 0, byte(i+1))
	}
	for i := 0; i+1 < 6; i++ {
		adjDV[i][i+1] = 1
		adjDV[i+1][i] = 1
	}
	dom := distvec.NewDomain(fab, loops, adjDV)
	dom.Start()
	eng.Run(0)
	dom.Routers[1].ServeAnycast(a)
	dom.Routers[4].ServeAnycast(a)
	eng.Run(0)
	e, ok := dom.Routers[0].Lookup(a)
	t.AddRow("distance-vector dist-0", fmt.Sprintf("%v (nexthop %d)", ok && e.Metric == 1, e.NextHop),
		fmt.Sprintf("%d", e.Metric), "no (protocol limitation)")
	if !ok || e.Metric != 1 {
		okAll = false
	}

	if okAll {
		t.pass("all three variants resolved the closest member at distance 1; discovery only under link-state")
	} else {
		t.fail("a variant failed to resolve the closest member")
	}
	return t, nil
}
