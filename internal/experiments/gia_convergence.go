package experiments

import (
	"fmt"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/anycast"
	"github.com/evolvable-net/evolve/internal/core"
	"github.com/evolvable-net/evolve/internal/netsim"
	"github.com/evolvable-net/evolve/internal/routing/distvec"
	"github.com/evolvable-net/evolve/internal/routing/linkstate"
	"github.com/evolvable-net/evolve/internal/topology"
)

// GIAComparison is E16: the full §3.2 design space side by side — global
// non-aggregatable routes (option 1), default-ISP routes with and without
// peering advertisements (option 2), and GIA with and without its search
// extension.
func GIAComparison(seed int64) (*Table, error) {
	t := &Table{
		ID:    "E16",
		Title: "anycast design space: option 1 vs option 2 vs GIA",
		Claim: "all variants deliver every packet; GIA without search routes exactly like option 2, and GIA's search extension routes exactly like option 2's peering advertisements (the improvement both give is a usually-helpful heuristic)",
		Columns: []string{
			"variant", "success", "mean ingress cost", "global routes added",
		},
	}
	net, err := sweepNetwork(seed)
	if err != nil {
		return nil, err
	}
	asns := net.ASNs()
	// Stub-first participant set, as in E5.
	order := make([]topology.ASN, len(asns))
	for i, a := range asns {
		order[len(asns)-1-i] = a
	}
	participants := order[:len(asns)/2]
	anchor := order[0]

	type variant struct {
		name   string
		option anycast.Option
		widen  bool // peering adverts / GIA search
	}
	variants := []variant{
		{"option 1 (global routes)", anycast.Option1, false},
		{"option 2 (default routes)", anycast.Option2, false},
		{"option 2 + peering adverts", anycast.Option2, true},
		{"GIA (home fallback)", anycast.OptionGIA, false},
		{"GIA + search", anycast.OptionGIA, true},
	}

	// Each variant's Evolution is private; the shared topology is only
	// read.
	means := map[string]float64{}
	okAll := true
	for _, v := range variants {
		evo, err := core.New(net, core.Config{Option: v.option, DefaultAS: anchor})
		if err != nil {
			return nil, err
		}
		baseTable := evo.BGP.TableSize(asns[0])
		for _, asn := range participants {
			evo.DeployDomain(asn, 0)
		}
		if v.widen {
			for _, asn := range participants {
				var nbrs []topology.ASN
				for _, nb := range net.Neighbors(asn) {
					nbrs = append(nbrs, nb.ASN)
				}
				if err := evo.AdvertiseToNeighbors(asn, nbrs...); err != nil {
					return nil, err
				}
			}
		}
		var sum int64
		okN := 0
		for _, h := range net.Hosts {
			res, err := evo.ResolveAnycast(h.Attach, evo.AnycastAddr())
			if err != nil {
				continue
			}
			okN++
			sum += res.Cost + h.AccessLatency
		}
		if okN != len(net.Hosts) {
			okAll = false
		}
		means[v.name] = float64(sum) / float64(okN)
		t.AddRow(v.name,
			fmt.Sprintf("%d/%d", okN, len(net.Hosts)),
			fmt.Sprintf("%.1f", means[v.name]),
			fmt.Sprintf("%d", evo.BGP.TableSize(asns[0])-baseTable))
	}

	// Mechanism identities are exact: GIA without search routes exactly
	// like option 2 (home-domain pull with en-route capture), and GIA's
	// search behaves exactly like option 2's peering advertisements.
	// The *improvement* from search/adverts is a heuristic (BGP picks
	// policy-best and host routes override aggregates, so occasionally a
	// client is redirected latency-worse): assert bounded regression.
	giaEqualsOpt2 := means["GIA (home fallback)"] == means["option 2 (default routes)"]
	searchEqualsAdverts := means["GIA + search"] == means["option 2 + peering adverts"]
	searchEffect := "improved proximity"
	if means["GIA + search"] > means["GIA (home fallback)"] {
		searchEffect = fmt.Sprintf("REGRESSED %.0f%% here (heuristic; policy ≠ latency)",
			(means["GIA + search"]/means["GIA (home fallback)"]-1)*100)
	}
	if okAll && giaEqualsOpt2 && searchEqualsAdverts {
		t.pass("100%% delivery everywhere; GIA ≡ option 2 (%.1f); GIA+search ≡ option 2+adverts (%.1f) — search %s",
			means["GIA (home fallback)"], means["GIA + search"], searchEffect)
	} else {
		t.fail("ok=%v giaEqualsOpt2=%v searchEqualsAdverts=%v means=%v",
			okAll, giaEqualsOpt2, searchEqualsAdverts, means)
	}
	return t, nil
}

// ConvergenceDynamics is E17: the event-driven cost of the intra-domain
// protocols the architecture leans on — simulated convergence time and
// message counts for cold start and for reconvergence after a link
// failure, link-state vs distance-vector, across domain sizes.
func ConvergenceDynamics(seed int64) (*Table, error) {
	t := &Table{
		ID:    "E17",
		Title: "IGP convergence dynamics (event-driven)",
		Claim: "both IGPs converge from cold start and re-converge after failures; message cost grows with domain size, link-state flooding scaling with links × routers",
		Columns: []string{
			"protocol", "routers", "phase", "sim time", "messages",
		},
	}
	// Each (protocol, size) block runs its own private event engine.
	okAll := true
	var lsCold []uint64 // link-state cold-start messages, in size order
	for _, n := range []int{8, 16, 32} {
		coldMsgs, lsOK := linkStateConvergence(t, n)
		dvOK := distanceVectorConvergence(t, n)
		lsCold = append(lsCold, coldMsgs)
		okAll = okAll && lsOK && dvOK
	}
	// Inter-domain: event-driven BGP speakers over Barabási–Albert
	// internets — cold start, then an anycast origination rippling in.
	for _, nAS := range []int{10, 20, 40} {
		ok, err := sessionConvergence(t, nAS, seed)
		if err != nil {
			return nil, err
		}
		okAll = okAll && ok
	}

	// Message cost must grow with size for link-state cold starts.
	growing := lsCold[0] < lsCold[1] && lsCold[1] < lsCold[2]
	if okAll && growing {
		t.pass("all runs converged (cold and post-failure); link-state cold-start messages grew %d → %d → %d",
			lsCold[0], lsCold[1], lsCold[2])
	} else {
		t.fail("okAll=%v growing=%v (link-state cold starts %v)", okAll, growing, lsCold)
	}
	return t, nil
}

// ringEdge is one weighted link of ringEdges' intra-domain graph.
type ringEdge struct {
	a, b int
	w    int64
}

// ringEdges is the n-router ring with near- and far-chords that E17 runs
// both IGPs over. The near-chords keep failure detours short: RIP's
// Infinity of 16 cannot express the 2·(n−1) metric of walking a large
// ring the long way round (a genuine distance-vector limitation the
// paper's intra-domain-only use of RIP sidesteps).
func ringEdges(n int) (out []ringEdge) {
	for i := 0; i < n; i++ {
		out = append(out, ringEdge{i, (i + 1) % n, 2}, ringEdge{i, (i + 2) % n, 3})
		if i%4 == 0 {
			out = append(out, ringEdge{i, (i + n/2) % n, 5})
		}
	}
	return out
}

// linkStateConvergence adds E17's link-state rows for an n-router ring:
// cold start, then the ring link 0–1 fails. It returns the cold-start
// message count and whether both phases left a route.
func linkStateConvergence(t *Table, n int) (coldMsgs uint64, ok bool) {
	eng := netsim.NewEngine()
	fab := netsim.NewFabric(eng)
	adj := map[int][]linkstate.Link{}
	for _, e := range ringEdges(n) {
		adj[e.a] = append(adj[e.a], linkstate.Link{To: e.b, Cost: e.w})
		adj[e.b] = append(adj[e.b], linkstate.Link{To: e.a, Cost: e.w})
	}
	dom := linkstate.NewDomain(fab, linkstate.ModeExplicitList, adj)
	dom.Start()
	eng.Run(0)
	coldMsgs = fab.Sent
	ok = dom.Routers[0].DistanceTo(n/2) > 0
	t.AddRow("link-state", fmt.Sprintf("%d", n), "cold start",
		eng.Now().String(), fmt.Sprintf("%d", coldMsgs))

	dom.Routers[0].SetLinkCost(1, -1)
	dom.Routers[1].SetLinkCost(0, -1)
	fab.FailLink(0, 1)
	before := fab.Sent
	eng.Run(0)
	t.AddRow("link-state", fmt.Sprintf("%d", n), "after failure",
		eng.Now().String(), fmt.Sprintf("%d", fab.Sent-before))
	// A detour must exist around the ring.
	return coldMsgs, ok && dom.Routers[0].DistanceTo(1) > 0
}

// distanceVectorConvergence is linkStateConvergence for the
// distance-vector IGP.
func distanceVectorConvergence(t *Table, n int) (ok bool) {
	eng := netsim.NewEngine()
	fab := netsim.NewFabric(eng)
	adj := map[int]map[int]int{}
	loops := map[int]addr.V4{}
	for i := 0; i < n; i++ {
		adj[i] = map[int]int{}
		loops[i] = addr.V4FromOctets(10, 9, byte(i>>8), byte(i))
	}
	for _, e := range ringEdges(n) {
		adj[e.a][e.b] = int(e.w)
		adj[e.b][e.a] = int(e.w)
	}
	dom := distvec.NewDomain(fab, loops, adj)
	dom.Start()
	eng.Run(0)
	ok = dom.Routers[0].DistanceTo(loops[n/2]) < distvec.Infinity
	t.AddRow("distance-vector", fmt.Sprintf("%d", n), "cold start",
		eng.Now().String(), fmt.Sprintf("%d", fab.Sent))

	dom.Routers[0].SetLinkDown(1)
	dom.Routers[1].SetLinkDown(0)
	fab.FailLink(0, 1)
	before := fab.Sent
	eng.Run(0)
	t.AddRow("distance-vector", fmt.Sprintf("%d", n), "after failure",
		eng.Now().String(), fmt.Sprintf("%d", fab.Sent-before))
	return ok && dom.Routers[0].DistanceTo(loops[1]) < distvec.Infinity
}

// sessionConvergence adds E17's BGP rows for an nAS-AS internet: cold
// start, then an anycast origination at a leaf. ok is false when either
// phase failed to quiesce or an AS never learned the anycast route.
func sessionConvergence(t *Table, nAS int, seed int64) (ok bool, err error) {
	w, err := coldSessionWorld(nAS, seed)
	if err != nil {
		return false, err
	}
	ok = w.converged
	net, eng, ss := w.net, w.eng, w.ss
	cold := ss.Totals().Updates
	t.AddRow("BGP (sessions)", fmt.Sprintf("%d AS", nAS), "cold start",
		w.quiet.String(), fmt.Sprintf("%d", cold))
	a, err := addr.Option1Address(0)
	if err != nil {
		return false, err
	}
	hp := addr.HostPrefix(a)
	leaf := net.ASNs()[len(net.ASNs())-1]
	start := eng.Now()
	ss.Speakers[leaf].Originate(hp)
	quiet, converged := ss.RunToConvergence(0)
	ok = ok && converged
	t.AddRow("BGP (sessions)", fmt.Sprintf("%d AS", nAS), "anycast origination",
		(quiet - start).String(), fmt.Sprintf("%d", ss.Totals().Updates-cold))
	// Everyone must hold the anycast route (provider tree reachability).
	for _, asn := range net.ASNs() {
		if _, have := ss.Speakers[asn].Best(hp); !have {
			ok = false
		}
	}
	return ok, nil
}
