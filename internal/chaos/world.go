package chaos

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/anycast"
	"github.com/evolvable-net/evolve/internal/core"
	"github.com/evolvable-net/evolve/internal/topology"
)

// Scenario names a reproducible starting state: a fresh Network plus a
// fresh Evolution over it. Build is called once per chaos run (and once
// more per shrink probe), so it must be deterministic.
type Scenario struct {
	Name  string
	Build func() (*topology.Network, *core.Evolution, error)
}

// linkID is an order-normalized router pair, the key under which the
// World remembers original link parameters and up/down state.
type linkID struct{ a, b topology.RouterID }

func mkLinkID(a, b topology.RouterID) linkID {
	if a > b {
		a, b = b, a
	}
	return linkID{a, b}
}

// World is one live system under test: the Evolution being driven, plus
// the bookkeeping that makes every Event idempotent and replayable —
// original link latencies and inter-link specs (restores always return a
// link to its initial parameters) and the current down/registered sets
// (failing a down link or restoring an up one is a no-op, so schedule
// shrinking can delete events anywhere without desynchronizing replay) —
// and the configuration the from-scratch twin must repeat: the provider
// choices and peering adverts the live world accepted.
type World struct {
	Net *topology.Network
	Evo *core.Evolution

	scenario Scenario

	intraLat   map[linkID]int64
	interSpec  map[linkID]topology.InterLink
	downIntra  map[linkID]bool
	downInter  map[linkID]bool
	registered map[topology.HostID]bool
	// providers holds each enabled provider's anycast address, in the
	// order enabled; adverts the domains whose Advertise was accepted, in
	// the order first accepted.
	providers []provider
	adverts   []topology.ASN
}

// provider is one enabled §2.1 provider choice.
type provider struct {
	asn  topology.ASN
	addr addr.V4
}

// NewWorld builds the scenario and captures the initial link inventory.
func NewWorld(sc Scenario) (*World, error) {
	net, evo, err := sc.Build()
	if err != nil {
		return nil, fmt.Errorf("chaos: scenario %q: %w", sc.Name, err)
	}
	w := &World{
		Net:        net,
		Evo:        evo,
		scenario:   sc,
		intraLat:   map[linkID]int64{},
		interSpec:  map[linkID]topology.InterLink{},
		downIntra:  map[linkID]bool{},
		downInter:  map[linkID]bool{},
		registered: map[topology.HostID]bool{},
	}
	for id := 0; id < net.Intra.Len(); id++ {
		for _, e := range net.Intra.Neighbors(id) {
			if e.To <= id {
				continue
			}
			k := mkLinkID(topology.RouterID(id), topology.RouterID(e.To))
			if _, ok := w.intraLat[k]; !ok {
				w.intraLat[k] = e.Weight
			}
		}
	}
	for _, l := range net.Inter {
		w.interSpec[mkLinkID(l.From, l.To)] = l
	}
	return w, nil
}

// IntraLinks returns the initially present intra-domain links in
// deterministic order — the candidate pool for schedule generation.
func (w *World) IntraLinks() []linkID { return sortedLinks(w.intraLat) }

// InterLinks returns the initially present inter-domain links in
// deterministic order.
func (w *World) InterLinks() []linkID { return sortedLinks(w.interSpec) }

func sortedLinks[V any](m map[linkID]V) []linkID {
	keys := make([]linkID, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(x, y linkID) int { return cmp.Or(cmp.Compare(x.a, y.a), cmp.Compare(x.b, y.b)) })
	return keys
}

// Registered reports whether the host currently holds a §3.3.2
// registration (as far as the schedule is concerned — the Evolution may
// be unable to advertise it this epoch, which is exactly what the oracle
// invariant checks).
func (w *World) Registered(h topology.HostID) bool { return w.registered[h] }

// RegisteredHosts returns the registered host ids in ascending order.
func (w *World) RegisteredHosts() []topology.HostID {
	out := make([]topology.HostID, 0, len(w.registered))
	for h := range w.registered {
		out = append(out, h)
	}
	slices.Sort(out)
	return out
}

// Apply executes one event against the live Evolution. Application is
// tolerant: events that no longer make sense in the current state
// (failing an already-down link, deploying a deployed router,
// registering a registered host) are silent no-ops. That property is
// what lets the shrinker delete arbitrary subsets of a schedule and
// still replay the remainder faithfully.
func (w *World) Apply(ev Event) {
	switch ev.Kind {
	case FailIntra:
		w.failIntra(ev)
	case RestoreIntra:
		w.restoreIntra(ev)
	case FailInter:
		w.failInter(ev)
	case RestoreInter:
		w.restoreInter(ev)
	case FlapIntra:
		w.failIntra(ev)
		w.restoreIntra(ev)
	case FlapInter:
		w.failInter(ev)
		w.restoreInter(ev)
	case DeployRouter:
		w.Evo.DeployRouter(ev.A)
	case UndeployRouter:
		w.Evo.UndeployRouter(ev.A)
	case DeployDomain:
		w.Evo.DeployDomain(ev.ASN, 0)
	case UndeployDomain:
		for _, r := range w.Evo.Dep.MembersIn(ev.ASN) {
			w.Evo.UndeployRouter(r)
		}
	case RegisterHost:
		w.register([]*topology.Host{w.Net.Hosts[ev.Host]})
	case RegisterDomain:
		w.register(w.Net.HostsIn(ev.ASN))
	case UnregisterHost:
		w.Evo.UnregisterEndhost(w.Net.Hosts[ev.Host])
		delete(w.registered, ev.Host)
	case EnableProvider:
		// Tolerant like everything else: enabling an already-enabled or
		// non-participating domain is a silent no-op/error.
		a, err := w.Evo.EnableProviderChoice(ev.ASN)
		if err == nil && !slices.ContainsFunc(w.providers, func(p provider) bool { return p.asn == ev.ASN }) {
			w.providers = append(w.providers, provider{ev.ASN, a})
		}
	case Advertise:
		// Refused under option 1 and for a non-participant; advertising
		// again re-originates what is already originated.
		if w.Evo.AdvertiseToNeighbors(ev.ASN, w.neighbors(ev.ASN)...) == nil && !slices.Contains(w.adverts, ev.ASN) {
			w.adverts = append(w.adverts, ev.ASN)
		}
	}
}

// register registers hosts in one batch; a refused batch registers none.
func (w *World) register(hosts []*topology.Host) {
	if w.Evo.RegisterEndhosts(hosts) != nil {
		return
	}
	for _, h := range hosts {
		w.registered[h.ID] = true
	}
}

// neighbors returns every neighbour of asn, in the topology's order.
func (w *World) neighbors(asn topology.ASN) []topology.ASN {
	var out []topology.ASN
	for _, nb := range w.Net.Neighbors(asn) {
		out = append(out, nb.ASN)
	}
	return out
}

func (w *World) failIntra(ev Event) {
	k := mkLinkID(ev.A, ev.B)
	if _, known := w.intraLat[k]; !known || w.downIntra[k] {
		return
	}
	w.Evo.FailIntraLink(ev.A, ev.B)
	w.downIntra[k] = true
}

// restoreIntra brings an intra link back at its original latency.
func (w *World) restoreIntra(ev Event) {
	k := mkLinkID(ev.A, ev.B)
	lat, known := w.intraLat[k]
	if !known || !w.downIntra[k] {
		return
	}
	w.Evo.RestoreIntraLink(ev.A, ev.B, lat)
	delete(w.downIntra, k)
}

func (w *World) failInter(ev Event) {
	k := mkLinkID(ev.A, ev.B)
	if _, known := w.interSpec[k]; !known || w.downInter[k] {
		return
	}
	if _, ok := w.Evo.FailInterLink(ev.A, ev.B); ok {
		w.downInter[k] = true
	}
}

func (w *World) restoreInter(ev Event) {
	k := mkLinkID(ev.A, ev.B)
	spec, known := w.interSpec[k]
	if !known || !w.downInter[k] {
		return
	}
	w.Evo.RestoreInterLink(spec)
	delete(w.downInter, k)
}

// buildOracle constructs a from-scratch Evolution over the *current*
// (mutated) topology with the same configuration, membership, provider
// choices, peering adverts and registrations as the live one, and the
// graceful-degradation layer set to fallback, whatever the live world
// runs. The oracle never saw the fault history — it computes everything
// from the present state — so any disagreement between live and oracle
// behavior is a stale cache or a skipped reconvergence in the incremental
// path. The oracle shares w.Net but only reads it. An error is the
// harness's: the oracle refused configuration the live world accepted.
func (w *World) buildOracle(fallback bool) (*core.Evolution, error) {
	cfg := w.Evo.Config()
	cfg.Fallback = fallback
	oracle, err := core.New(w.Net, cfg)
	if err != nil {
		return nil, fmt.Errorf("chaos: oracle build: %w", err)
	}
	oracle.DeployRouters(w.Evo.Dep.Members())
	// A provider choice or an advert is configuration that outlives the
	// members it was made with, so where its domain has none now the
	// oracle makes it as live did, with one router of the domain deployed
	// for the call.
	withMember := func(asn topology.ASN, call func() error) error {
		if !oracle.Participates(asn) {
			r := w.Net.Domain(asn).Routers[0]
			oracle.DeployRouter(r)
			defer oracle.UndeployRouter(r)
		}
		if err := call(); err != nil {
			return fmt.Errorf("chaos: oracle refused AS%d's replay: %w", asn, err)
		}
		return nil
	}
	for _, p := range w.providers {
		if err := withMember(p.asn, func() error { _, err := oracle.EnableProviderChoice(p.asn); return err }); err != nil {
			return nil, err
		}
	}
	for _, asn := range w.adverts {
		if err := withMember(asn, func() error { return oracle.AdvertiseToNeighbors(asn, w.neighbors(asn)...) }); err != nil {
			return nil, err
		}
	}
	// One batch, one epoch. An unusable oracle (no members, unbuildable
	// bone) refuses the batch; the oracle invariant holds live to the
	// same verdict.
	ids := w.RegisteredHosts()
	hosts := make([]*topology.Host, len(ids))
	for i, hid := range ids {
		hosts[i] = w.Net.Hosts[hid]
	}
	_ = oracle.RegisterEndhosts(hosts)
	return oracle, nil
}

// StockScenario is the stock 15-ISP transit–stub internet the acceptance
// runs use: 3 transit domains, 4 stubs per transit (40% multihomed),
// 3 routers and 2 hosts per domain, with an option-1 deployment covering
// the first 7 domains.
func StockScenario(seed int64) Scenario {
	return stockScenario(seed, false)
}

// StockFallbackScenario is StockScenario with the core's graceful-
// degradation layer enabled (per-flow health plus universal-access
// fallback): the live arm of availability sweeps, and the twin of the
// fail-fast StockScenario in RunAvailability's differential (E21).
func StockFallbackScenario(seed int64) Scenario {
	return stockScenario(seed, true)
}

func stockScenario(seed int64, fallback bool) Scenario {
	name := fmt.Sprintf("transit-stub-15/seed=%d", seed)
	if fallback {
		name = fmt.Sprintf("transit-stub-15-fallback/seed=%d", seed)
	}
	return Scenario{
		Name: name,
		Build: func() (*topology.Network, *core.Evolution, error) {
			net, err := topology.TransitStub(3, 4, 0.4, topology.GenConfig{
				Seed:             seed,
				RoutersPerDomain: 3,
				HostsPerDomain:   2,
			})
			if err != nil {
				return nil, nil, err
			}
			evo, err := core.New(net, core.Config{Option: anycast.Option1, Fallback: fallback})
			if err != nil {
				return nil, nil, err
			}
			asns := net.ASNs()
			for _, asn := range asns[:7] {
				evo.DeployDomain(asn, 0)
			}
			return net, evo, nil
		},
	}
}
