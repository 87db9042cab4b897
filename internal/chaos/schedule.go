package chaos

import (
	"math/rand"
	"slices"

	"github.com/evolvable-net/evolve/internal/anycast"
	"github.com/evolvable-net/evolve/internal/topology"
)

// genState mirrors the world state the schedule will create, without
// touching the live Evolution: Generate is a pure function of the
// pristine world and the seed, so the same (scenario, seed, steps)
// triple always yields the same schedule regardless of what the system
// under test does with it.
type genState struct {
	rng *rand.Rand
	net *topology.Network

	intra, inter []linkID // initial link inventory, sorted
	downIntra    map[linkID]bool
	downInter    map[linkID]bool
	deployed     map[topology.RouterID]bool
	registered   map[topology.HostID]bool
	providers    map[topology.ASN]bool

	routers []topology.RouterID
	domains []topology.ASN
	hosts   []topology.HostID
	// anchor is the option-2/GIA default domain, which never leaves
	// whole; -1 under option 1.
	anchor topology.ASN
}

// Generate produces a deterministic fault schedule of the given length
// for a freshly built world. Every event is valid for the mirrored state
// at its position (no restore of an up link, no undeploy of the last
// member, and the option-2/GIA default domain never leaves whole),
// though tolerant application means validity is a quality concern, not
// a correctness one.
func Generate(w *World, seed int64, steps int) []Event {
	g := &genState{
		rng:        rand.New(rand.NewSource(seed)),
		net:        w.Net,
		intra:      w.IntraLinks(),
		inter:      w.InterLinks(),
		downIntra:  map[linkID]bool{},
		downInter:  map[linkID]bool{},
		deployed:   map[topology.RouterID]bool{},
		registered: map[topology.HostID]bool{},
		providers:  map[topology.ASN]bool{},
		domains:    w.Net.ASNs(),
		anchor:     -1,
	}
	for _, m := range w.Evo.Dep.Members() {
		g.deployed[m] = true
	}
	for _, asn := range w.Evo.ProviderChoices() {
		g.providers[asn] = true
	}
	for _, r := range w.Net.Routers {
		g.routers = append(g.routers, r.ID)
	}
	for _, h := range w.Net.Hosts {
		g.hosts = append(g.hosts, h.ID)
	}
	if cfg := w.Evo.Config(); cfg.Option != anycast.Option1 {
		g.anchor = cfg.DefaultAS
	}

	var total int
	for _, k := range kinds {
		total += k.weight
	}
	schedule := make([]Event, 0, steps)
	misses := 0
	for len(schedule) < steps {
		roll := g.rng.Intn(total)
		k := Kind(0)
		for ; k < numKinds; k++ {
			roll -= kinds[k].weight
			if roll < 0 {
				break
			}
		}
		ev, ok := g.emit(k)
		if !ok {
			// No candidates for this kind right now; re-roll. A long
			// miss streak means the world is too small to sustain any
			// kind — return the schedule built so far rather than spin.
			if misses++; misses > 64*int(numKinds) {
				break
			}
			continue
		}
		misses = 0
		schedule = append(schedule, ev)
	}
	return schedule
}

// emit tries to produce one event of the given kind against the mirror,
// updating the mirror on success.
func (g *genState) emit(k Kind) (Event, bool) {
	switch k {
	case FailIntra, RestoreIntra, FlapIntra, FailInter, RestoreInter, FlapInter:
		links, down := g.intra, g.downIntra
		if k == FailInter || k == RestoreInter || k == FlapInter {
			links, down = g.inter, g.downInter
		}
		restore := k == RestoreIntra || k == RestoreInter
		l, ok := pick(g.rng, filter(links, func(l linkID) bool { return down[l] == restore }))
		switch {
		case !ok:
		case restore:
			delete(down, l)
		case k == FailIntra || k == FailInter:
			down[l] = true
		}
		return Event{Kind: k, A: l.a, B: l.b}, ok
	case DeployRouter, UndeployRouter:
		// Keep at least one member so the deployment never goes fully
		// dark — an empty deployment is a degenerate state where every
		// invariant trivially agrees on total failure.
		deploy := k == DeployRouter
		if !deploy && len(g.deployed) <= 1 {
			return Event{}, false
		}
		r, ok := pick(g.rng, filter(g.routers, func(r topology.RouterID) bool { return g.deployed[r] != deploy }))
		if ok {
			g.setDeployed([]topology.RouterID{r}, deploy)
		}
		return Event{Kind: k, A: r}, ok
	case DeployDomain, UndeployDomain:
		// A domain leaves whole only if a member is left elsewhere, and
		// the default domain never does.
		deploy := k == DeployDomain
		asn, ok := pick(g.rng, filter(g.domains, func(asn topology.ASN) bool {
			n := g.members(asn)
			if deploy {
				return n < len(g.net.Domain(asn).Routers)
			}
			return n > 0 && n < len(g.deployed) && asn != g.anchor
		}))
		if ok {
			g.setDeployed(g.net.Domain(asn).Routers, deploy)
		}
		return Event{Kind: k, ASN: asn}, ok
	case RegisterHost, UnregisterHost:
		register := k == RegisterHost
		h, ok := pick(g.rng, filter(g.hosts, func(h topology.HostID) bool { return g.registered[h] != register }))
		switch {
		case !ok:
		case register:
			g.registered[h] = true
		default:
			delete(g.registered, h)
		}
		return Event{Kind: k, Host: h}, ok
	case RegisterDomain:
		asn, ok := pick(g.rng, filter(g.domains, func(asn topology.ASN) bool {
			return slices.ContainsFunc(g.net.HostsIn(asn), func(h *topology.Host) bool { return !g.registered[h.ID] })
		}))
		if ok {
			for _, h := range g.net.HostsIn(asn) {
				g.registered[h.ID] = true
			}
		}
		return Event{Kind: k, ASN: asn}, ok
	case EnableProvider:
		// Only domains that currently participate can mint a
		// provider-specific address, and enabling is one-shot per domain.
		asn, ok := pick(g.rng, filter(g.domains, func(asn topology.ASN) bool { return g.members(asn) > 0 && !g.providers[asn] }))
		if ok {
			g.providers[asn] = true
		}
		return Event{Kind: k, ASN: asn}, ok
	case Advertise:
		asn, ok := pick(g.rng, filter(g.domains, func(asn topology.ASN) bool { return g.members(asn) > 0 }))
		return Event{Kind: k, ASN: asn}, ok
	default:
		return Event{}, false
	}
}

// members counts asn's deployed routers in the mirror.
func (g *genState) members(asn topology.ASN) int {
	n := 0
	for _, r := range g.net.Domain(asn).Routers {
		if g.deployed[r] {
			n++
		}
	}
	return n
}

func (g *genState) setDeployed(routers []topology.RouterID, on bool) {
	for _, r := range routers {
		if on {
			g.deployed[r] = true
		} else {
			delete(g.deployed, r)
		}
	}
}

// pick draws one of cands, false when there is none.
func pick[T any](rng *rand.Rand, cands []T) (T, bool) {
	var zero T
	if len(cands) == 0 {
		return zero, false
	}
	return cands[rng.Intn(len(cands))], true
}

// filter returns the elements of all that keep accepts, in order.
func filter[T any](all []T, keep func(T) bool) []T {
	var out []T
	for _, x := range all {
		if keep(x) {
			out = append(out, x)
		}
	}
	return out
}
