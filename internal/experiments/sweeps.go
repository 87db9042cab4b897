package experiments

import (
	"fmt"
	"math"

	"github.com/evolvable-net/evolve/internal/anycast"
	"github.com/evolvable-net/evolve/internal/core"
	"github.com/evolvable-net/evolve/internal/forward"
	"github.com/evolvable-net/evolve/internal/metrics"
	"github.com/evolvable-net/evolve/internal/redirect"
	"github.com/evolvable-net/evolve/internal/routing/bgp"
	"github.com/evolvable-net/evolve/internal/topology"
	"github.com/evolvable-net/evolve/internal/underlay"
	"github.com/evolvable-net/evolve/internal/vnbone"
)

// sweepNetwork is the standard internet for the quantitative sweeps.
func sweepNetwork(seed int64) (*topology.Network, error) {
	return topology.TransitStub(3, 4, 0.4, topology.GenConfig{
		Seed: seed, RoutersPerDomain: 3, HostsPerDomain: 2,
	})
}

// UAStretchVsDeployment is E5: universal access and redirection stretch as
// a function of deployment fraction, for the §3.2 anycast options.
func UAStretchVsDeployment(seed int64) (*Table, error) {
	t := &Table{
		ID:    "E5",
		Title: "universal access and stretch vs deployment fraction",
		Claim: "delivery succeeds for every pair at any deployment ≥ 1 ISP; stretch falls as deployment spreads; the proximity optimizations (option 1's global routes, option 2's peering adverts) usually help and never regress badly — BGP optimizes policy, not latency, so they are heuristics",
		Columns: []string{
			"deployed ISPs", "option", "success", "mean stretch", "p95 stretch", "mean ingress cost",
		},
	}
	net, err := sweepNetwork(seed)
	if err != nil {
		return nil, err
	}
	// Deploy stubs first (reverse ASN order): early participants then sit
	// at the edge rather than on everyone's transit path, which is what
	// separates the anycast options — option 1 finds the policy-nearest
	// participant anywhere, option 2 only captures en route to the
	// default stub unless peering advertisements widen participants'
	// reach.
	asns := net.ASNs()
	order := make([]topology.ASN, len(asns))
	for i, a := range asns {
		order[len(asns)-1-i] = a
	}
	fractions := []int{1, len(asns) / 4, len(asns) / 2, len(asns)}
	type variant struct {
		name    string
		option  anycast.Option
		peering bool
	}
	variants := []variant{
		{"option 1", anycast.Option1, false},
		{"option 2", anycast.Option2, false},
		{"option 2 + peering", anycast.Option2, true},
	}

	okAll := true
	meansAtFull := map[string]float64{}
	meansAtMid := map[string]float64{}
	meansAtOne := map[string]float64{}
	// Each (deployment count, option) cell builds its own Evolution over
	// the shared topology.
	for _, count := range fractions {
		count = max(count, 1)
		for _, v := range variants {
			evo, err := core.New(net, core.Config{Option: v.option, DefaultAS: order[0]})
			if err != nil {
				return nil, err
			}
			for _, asn := range order[:count] {
				evo.DeployDomain(asn, 0)
			}
			if v.peering {
				// Every participant advertises the anycast host route to
				// all its neighbours.
				for _, asn := range order[:count] {
					var nbrs []topology.ASN
					for _, nb := range net.Neighbors(asn) {
						nbrs = append(nbrs, nb.ASN)
					}
					if err := evo.AdvertiseToNeighbors(asn, nbrs...); err != nil {
						return nil, err
					}
				}
			}
			sample, failures, err := evo.StretchSample(0)
			if err != nil {
				return nil, err
			}
			if failures > 0 {
				okAll = false
			}
			stats := metrics.Summarize(sample)
			// Redirection proximity: mean anycast resolution cost over
			// all hosts — the §3.2 quantity the options differ on.
			var ingressSum int64
			var ingressN int
			for _, h := range net.Hosts {
				res, err := evo.ResolveAnycast(h.Attach, evo.AnycastAddr())
				if err != nil {
					okAll = false
					continue
				}
				ingressSum += res.Cost + h.AccessLatency
				ingressN++
			}
			ingress := float64(ingressSum) / float64(ingressN)
			t.AddRow(
				fmt.Sprintf("%d/%d", count, len(asns)),
				v.name,
				fmt.Sprintf("%.1f%%", float64(len(sample))/float64(len(sample)+failures)*100),
				fmt.Sprintf("%.3f", stats.Mean),
				fmt.Sprintf("%.3f", stats.P95),
				fmt.Sprintf("%.1f", ingress),
			)
			if count == 1 {
				meansAtOne[v.name] = stats.Mean
			}
			if count == len(asns)/2 {
				meansAtMid[v.name] = ingress
			}
			if count == len(asns) {
				meansAtFull[v.name] = stats.Mean
			}
		}
	}
	for _, v := range variants {
		if meansAtFull[v.name] > meansAtOne[v.name]+1e-9 {
			okAll = false
		}
	}
	// Verdict asserts only the structural claims: universal access and
	// stretch improvement with deployment. The proximity effect of
	// option 1 / peering adverts is reported as data: BGP selects by
	// *policy* (customer ≻ peer ≻ provider, then AS hops), not latency,
	// and a more-specific host route overrides an aggregate even when
	// the aggregate's en-route capture was latency-closer — so the §3.2
	// optimizations are heuristics that usually help but can regress on
	// particular topologies (an honest finding of this reproduction).
	heuristic := "helped"
	if meansAtMid["option 2 + peering"] > meansAtMid["option 2"] {
		heuristic = fmt.Sprintf("REGRESSED %.0f%% on this topology (policy ≠ latency)",
			(meansAtMid["option 2 + peering"]/meansAtMid["option 2"]-1)*100)
	}
	if okAll {
		t.pass("100%% delivery at every level; full-deployment stretch %.3f; mid-deployment ingress cost %.1f (opt1) / %.1f (opt2+peering) / %.1f (opt2) — advert heuristic %s",
			meansAtFull["option 2"],
			meansAtMid["option 1"], meansAtMid["option 2 + peering"], meansAtMid["option 2"],
			heuristic)
	} else {
		t.fail("a delivery failed or stretch grew with deployment (mid ingress: %v)", meansAtMid)
	}
	return t, nil
}

// RedirectorComparison is E6: §2.2 application-level redirection (brokers,
// ISP lookup) vs §2.3 network-level anycast, under deployment churn.
func RedirectorComparison(seed int64) (*Table, error) {
	t := &Table{
		ID:    "E6",
		Title: "application-level vs network-level redirection",
		Claim: "anycast never fails and adapts instantly; brokers fail under staleness and partial coverage; ISP lookup fails outside participants",
		Columns: []string{
			"redirector", "phase", "success", "mean cost",
		},
	}
	net, err := sweepNetwork(seed)
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
	fwd := forward.NewEngine(net, bgpSys, igp)
	// Initial deployment: two stubs.
	first := net.DomainByName("S0.0")
	second := net.DomainByName("S1.0")
	svc.AddMember(dep, first.Routers[0])
	svc.AddMember(dep, second.Routers[0])

	brokerFull := redirect.NewBroker(net, fwd, dep, 1.0, seed)
	brokerHalf := redirect.NewBroker(net, fwd, dep, 0.5, seed)
	brokerFull.Refresh()
	brokerHalf.Refresh()
	rds := []redirect.Redirector{
		&redirect.AnycastRedirector{Svc: svc, Dep: dep},
		brokerFull,
		brokerHalf,
		&redirect.ISPLookupRedirector{Dep: dep, Igp: igp},
	}

	measure := func(phase string) map[string]float64 {
		rates := map[string]float64{}
		for _, rd := range rds {
			var ok, total int
			var costSum int64
			for _, h := range net.Hosts {
				total++
				res, err := rd.Redirect(h)
				if err != nil {
					continue
				}
				ok++
				costSum += res.Cost
			}
			success := float64(ok) / float64(total) * 100
			meanCost := "-"
			if ok > 0 {
				meanCost = fmt.Sprintf("%.1f", float64(costSum)/float64(ok))
			}
			t.AddRow(rd.Name(), phase, fmt.Sprintf("%.1f%%", success), meanCost)
			rates[rd.Name()+"/"+phase] = success
		}
		return rates
	}

	before := measure("stable")
	// Churn: the first participant's router withdraws; a transit deploys.
	svc.RemoveMember(dep, first.Routers[0])
	svc.AddMember(dep, net.DomainByName("T0").Routers[0])
	after := measure("after churn (no broker refresh)")

	anyBefore := before["anycast/stable"]
	anyAfter := after["anycast/after churn (no broker refresh)"]
	brokerAfter := after[brokerFull.Name()+"/after churn (no broker refresh)"]
	ispEver := before["isp-lookup/stable"]
	if anyBefore == 100 && anyAfter == 100 && brokerAfter < 100 && ispEver < 100 {
		t.pass("anycast 100%% in both phases; stale broker dropped to %.1f%%; ISP lookup only %.1f%%", brokerAfter, ispEver)
	} else {
		t.fail("rates: anycast %.1f/%.1f broker-after %.1f isp %.1f", anyBefore, anyAfter, brokerAfter, ispEver)
	}
	return t, nil
}

// AnycastStateGrowth is E7: the §3.2 scalability concern — option-1
// anycast host routes grow every AS's routing table linearly in the
// number of simultaneous IPvN deployments; option 2 adds no global state.
func AnycastStateGrowth(seed int64) (*Table, error) {
	t := &Table{
		ID:    "E7",
		Title: "routing-state growth vs number of anycast groups",
		Claim: "option 1 adds one route per group to every AS; option 2 adds none beyond the default ISP's existing aggregate",
		Columns: []string{
			"groups", "option 1 mean table size", "option 2 mean table size",
		},
	}
	net, err := sweepNetwork(seed)
	if err != nil {
		return nil, err
	}
	meanTable := func(s *bgp.System) float64 {
		var sum int
		for _, asn := range net.ASNs() {
			sum += s.TableSize(asn)
		}
		return float64(sum) / float64(len(net.ASNs()))
	}

	groupCounts := []uint32{0, 1, 2, 4, 8}
	var opt1Sizes, opt2Sizes []float64
	for _, g := range groupCounts {
		igp1 := underlay.NewView(net)
		sys1 := bgp.NewSystem(net)
		svc1 := anycast.NewService(net, sys1, igp1)
		igp2 := underlay.NewView(net)
		sys2 := bgp.NewSystem(net)
		svc2 := anycast.NewService(net, sys2, igp2)
		for i := uint32(0); i < g; i++ {
			d1, err := svc1.DeployOption1(i)
			if err != nil {
				return nil, err
			}
			svc1.AddMember(d1, net.DomainByName("T0").Routers[0])
			svc1.AddMember(d1, net.DomainByName("S0.0").Routers[0])
			d2, err := svc2.DeployOption2(i, net.ASNs()[0])
			if err != nil {
				return nil, err
			}
			svc2.AddMember(d2, net.DomainByName("T0").Routers[0])
			svc2.AddMember(d2, net.DomainByName("S0.0").Routers[0])
		}
		m1, m2 := meanTable(sys1), meanTable(sys2)
		opt1Sizes = append(opt1Sizes, m1)
		opt2Sizes = append(opt2Sizes, m2)
		t.AddRow(fmt.Sprintf("%d", g), fmt.Sprintf("%.1f", m1), fmt.Sprintf("%.1f", m2))
	}

	// Linear growth for option 1: each group adds ~1 route per AS.
	lin := true
	for i := 1; i < len(groupCounts); i++ {
		wantDelta := float64(groupCounts[i] - groupCounts[i-1])
		gotDelta := opt1Sizes[i] - opt1Sizes[i-1]
		if math.Abs(gotDelta-wantDelta) > 0.01 {
			lin = false
		}
		if opt2Sizes[i] != opt2Sizes[0] {
			lin = false
		}
	}
	if lin {
		t.pass("option 1 grew exactly +1 route/AS per group; option 2 stayed flat at %.1f", opt2Sizes[0])
	} else {
		t.fail("growth pattern: opt1 %v opt2 %v", opt1Sizes, opt2Sizes)
	}
	return t, nil
}

// VNBoneConstruction is E8: virtual-topology quality vs the k-neighbour
// parameter, with and without partition repair, plus congruence as
// deployment spreads.
func VNBoneConstruction(seed int64) (*Table, error) {
	t := &Table{
		ID:    "E8",
		Title: "vN-Bone construction: k-neighbour ablation and congruence",
		Claim: "partition repair always yields a connected bone; partitions without repair shrink as k grows; congruence improves as deployment spreads",
		Columns: []string{
			"config", "k", "connected", "components", "congruence",
		},
	}
	net, err := sweepNetwork(seed)
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
	// Sparse deployment: the three transits participate fully.
	for _, name := range []string{"T0", "T1", "T2"} {
		for _, r := range net.DomainByName(name).Routers {
			svc.AddMember(dep, r)
		}
	}

	okRepairAlways := true
	prevComponents := math.MaxInt
	okMonotone := true
	for _, k := range []int{1, 2, 3} {
		for _, repair := range []bool{false, true} {
			bone, err := vnbone.Build(svc, igp, dep, vnbone.Config{
				K:             k,
				DisableRepair: !repair,
			})
			if err != nil {
				return nil, err
			}
			comps := len(bone.Components())
			cong := bone.Congruence()
			label := "no repair"
			if repair {
				label = "repair"
				if !bone.Connected() {
					okRepairAlways = false
				}
			} else {
				if comps > prevComponents {
					okMonotone = false
				}
				prevComponents = comps
			}
			t.AddRow(label, fmt.Sprintf("%d", k),
				fmt.Sprintf("%v", bone.Connected()),
				fmt.Sprintf("%d", comps),
				fmt.Sprintf("%.3f", cong))
		}
	}

	// Footnote-3 ablation: construction without member discovery (blind
	// join-order tree) — always connected, but less congruent.
	blind, err := vnbone.Build(svc, igp, dep, vnbone.Config{BlindIntra: true})
	if err != nil {
		return nil, err
	}
	t.AddRow("blind (footnote 3)", "-", fmt.Sprintf("%v", blind.Connected()),
		fmt.Sprintf("%d", len(blind.Components())), fmt.Sprintf("%.3f", blind.Congruence()))
	if !blind.Connected() {
		okRepairAlways = false
	}

	// Congruence: sparse vs full deployment at k=2.
	sparseBone, err := vnbone.Build(svc, igp, dep, vnbone.Config{K: 2})
	if err != nil {
		return nil, err
	}
	congSparse := sparseBone.Congruence()
	for _, asn := range net.ASNs() {
		for _, r := range net.Domain(asn).Routers {
			svc.AddMember(dep, r)
		}
	}
	fullBone, err := vnbone.Build(svc, igp, dep, vnbone.Config{K: 2})
	if err != nil {
		return nil, err
	}
	congFull := fullBone.Congruence()
	t.AddRow("sparse deployment", "2", fmt.Sprintf("%v", sparseBone.Connected()), "-", fmt.Sprintf("%.3f", congSparse))
	t.AddRow("full deployment", "2", fmt.Sprintf("%v", fullBone.Connected()), "-", fmt.Sprintf("%.3f", congFull))

	if okRepairAlways && okMonotone && congFull <= congSparse+1e-9 {
		t.pass("repair always connected; congruence %.3f (sparse) → %.3f (full)", congSparse, congFull)
	} else {
		t.fail("repair=%v monotone=%v congruence %.3f→%.3f", okRepairAlways, okMonotone, congSparse, congFull)
	}
	return t, nil
}
