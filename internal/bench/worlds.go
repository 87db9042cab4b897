package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"

	"github.com/evolvable-net/evolve/internal/anycast"
	"github.com/evolvable-net/evolve/internal/core"
	"github.com/evolvable-net/evolve/internal/topology"
)

// recipe fixes the shape of a workload's internet. Every size in it is
// a constant of the workload; only the seed varies between runs.
type recipe struct {
	transits, stubsPerTransit int
	multihome                 float64
	routers, hosts            int
	intra                     topology.IntraStyle
	// deployStubs is how many stub domains deploy beside the transits.
	deployStubs int
	// register registers every host (the §3.3.2 advertisement).
	register bool
}

var (
	// fleetRecipe is deliverybench's fleet: 400 domains, 20 000 hosts.
	fleetRecipe = recipe{transits: 4, stubsPerTransit: 99, multihome: 0.3, routers: 2, hosts: 50, register: true}
	// churnRecipe has three-router ring domains so that a failed intra
	// link or an undeployed router never disconnects a domain.
	churnRecipe = recipe{transits: 4, stubsPerTransit: 24, multihome: 0.3, routers: 3, hosts: 20, deployStubs: 10, register: true}
	// coldStartRecipe is the fleet at ten times the size.
	coldStartRecipe = recipe{transits: 40, stubsPerTransit: 99, multihome: 0.3, routers: 2, hosts: 50, register: true}
	// liveRecipe is small because every host and member is a socket.
	liveRecipe = recipe{transits: 3, stubsPerTransit: 4, multihome: 0.4, routers: 3, hosts: 2}
)

// world is one built internet with its deployment.
type world struct {
	net *topology.Network
	evo *core.Evolution
	// deployed lists the deployed domains, transits first.
	deployed []topology.ASN
	// genBytesPerDomain is what generating the topology allocated, per
	// domain; measured only when the build is traced.
	genBytesPerDomain float64
}

// buildWorld generates the recipe's internet from seed, deploys and
// registers. Each stage is one span on rec (nil records nothing), named
// after the per-layer metric of world construction it feeds.
func buildWorld(seed int64, r recipe, rec *Recorder) (*world, error) {
	var before runtime.MemStats
	if rec != nil {
		runtime.ReadMemStats(&before)
	}
	id := rec.Begin(0, "topology", "gen_ms")
	net, err := topology.TransitStub(r.transits, r.stubsPerTransit, r.multihome, topology.GenConfig{
		Seed: seed, RoutersPerDomain: r.routers, HostsPerDomain: r.hosts, Intra: r.intra,
	})
	rec.End(id)
	if err != nil {
		return nil, err
	}
	w := &world{net: net}
	if rec != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		w.genBytesPerDomain = float64(after.TotalAlloc-before.TotalAlloc) / float64(len(net.ASNs()))
	}

	id = rec.Begin(0, "core", "new_ms")
	evo, err := core.New(net, core.Config{Option: anycast.Option2, DefaultAS: net.DomainByName("T0").ASN})
	rec.End(id)
	if err != nil {
		return nil, err
	}
	w.evo = evo
	for i := 0; i < r.transits; i++ {
		w.deployed = append(w.deployed, net.DomainByName("T"+strconv.Itoa(i)).ASN)
	}
	w.deployed = append(w.deployed, pickStubs(net, r.deployStubs)...)
	id = rec.Begin(0, "core", "deploy_ms")
	for _, asn := range w.deployed {
		evo.DeployDomain(asn, 0)
	}
	rec.End(id)
	if r.register {
		id = rec.Begin(0, "core", "register_ms")
		err = evo.RegisterEndhosts(net.Hosts)
		rec.End(id)
		if err != nil {
			return nil, err
		}
	}
	return w, nil
}

// pickStubs returns n stub domains in ASN order, multihomed ones first:
// a deployed multihomed stub is what a provider-link failure needs.
func pickStubs(net *topology.Network, n int) []topology.ASN {
	if n == 0 {
		return nil
	}
	var multi, single []topology.ASN
	for _, asn := range net.ASNs() {
		if net.Domain(asn).Name[0] != 'S' {
			continue
		}
		if len(providerLinks(net, asn)) > 1 {
			multi = append(multi, asn)
		} else {
			single = append(single, asn)
		}
	}
	out := append(multi, single...)
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// providerLinks lists the inter-domain links that touch asn.
func providerLinks(net *topology.Network, asn topology.ASN) []topology.InterLink {
	var out []topology.InterLink
	for _, l := range net.Inter {
		if net.DomainOf(l.From) == asn || net.DomainOf(l.To) == asn {
			out = append(out, l)
		}
	}
	return out
}

// flow is one (source, destination) host pair.
type flow struct{ src, dst *topology.Host }

// stridedFlows is deliverybench's working set: n flows spread over the
// whole fleet, each crossing half of it.
func stridedFlows(net *topology.Network, n int) []flow {
	hosts := net.Hosts
	out := make([]flow, 0, n)
	stride := len(hosts)/n + 1
	for i := 0; len(out) < n && i < 2*len(hosts); i++ {
		f := flow{hosts[(i*stride)%len(hosts)], hosts[(i*stride+len(hosts)/2)%len(hosts)]}
		if f.src.Domain != f.dst.Domain {
			out = append(out, f)
		}
	}
	return out
}

// readerFlows is churn's working set: n flows spread evenly over the
// hosts, each crossing half of the internet, none with an end in a stub
// whose provider link the schedule fails. While such a link is down and
// BGP has not caught up, the seed's Send can fail for those hosts with
// "BGP chose non-adjacent AS": it computes the baseline path on
// forwarding state that is shared between epochs. That is the program's
// to fix; the workload has to be one on which no delivery fails.
func readerFlows(net *topology.Network, schedule []event, n int) []flow {
	cut := map[topology.ASN]bool{}
	for _, ev := range schedule {
		if ev.kind != interLink {
			continue
		}
		for _, r := range []topology.RouterID{ev.link.From, ev.link.To} {
			if asn := net.DomainOf(r); net.Domain(asn).Name[0] == 'S' {
				cut[asn] = true
			}
		}
	}
	hosts := net.Hosts
	var all []flow
	for i, src := range hosts {
		dst := hosts[(i+len(hosts)/2)%len(hosts)]
		if src.Domain != dst.Domain && !cut[src.Domain] && !cut[dst.Domain] {
			all = append(all, flow{src, dst})
		}
	}
	out := make([]flow, 0, n)
	for i := 0; i < n && len(all) > 0; i++ {
		out = append(out, all[i*len(all)/n])
	}
	return out
}

// pairStream yields cross-domain host pairs in a seeded random order
// without ever repeating one: round r pairs the i-th host of a seeded
// permutation with the host offs[r] places further on, and the offsets
// are distinct. A flow cache therefore never sees a pair twice.
type pairStream struct {
	hosts []*topology.Host
	perm  []int32
	offs  []int32
	k     uint64
}

func newPairStream(net *topology.Network, rng *rand.Rand) *pairStream {
	n := len(net.Hosts)
	p := &pairStream{hosts: net.Hosts, perm: make([]int32, n), offs: make([]int32, n-1)}
	for i, v := range rng.Perm(n) {
		p.perm[i] = int32(v)
	}
	for i, v := range rng.Perm(n - 1) {
		p.offs[i] = int32(v + 1)
	}
	return p
}

// next returns the next never-seen cross-domain pair.
func (p *pairStream) next() flow {
	n := uint64(len(p.perm))
	for {
		r, i := p.k/n, p.k%n
		p.k++
		off := uint64(p.offs[r%uint64(len(p.offs))])
		f := flow{p.hosts[p.perm[i]], p.hosts[p.perm[(i+off)%n]]}
		if f.src.Domain != f.dst.Domain {
			return f
		}
	}
}

// take returns the next n pairs.
func (p *pairStream) take(n int) []flow {
	out := make([]flow, n)
	for i := range out {
		out[i] = p.next()
	}
	return out
}

// eventKind is one of the four routing-event kinds churn cycles.
type eventKind int

const (
	intraLink eventKind = iota
	interLink
	routerToggle
	hostToggle
	numEventKinds
)

var eventKindNames = [numEventKinds]string{"intra_link", "inter_link", "router_toggle", "host_toggle"}

func (k eventKind) String() string { return eventKindNames[k] }

// event is one mutator call of the churn schedule. Events come in
// pairs: a failure (or withdrawal) and, right after it, its repair, so
// at most one thing is broken at a time and the schedule can be
// replayed in a loop.
type event struct {
	kind   eventKind
	repair bool
	// a, b and latency name the intra link; link the inter-domain one;
	// router and host the toggled router or host.
	a, b    topology.RouterID
	latency int64
	link    topology.InterLink
	router  topology.RouterID
	host    topology.HostID
}

// String identifies the event without pointers, for comparing schedules.
func (e event) String() string {
	return fmt.Sprintf("%s repair=%t a=%d b=%d lat=%d link=%d-%d router=%d host=%d",
		e.kind, e.repair, e.a, e.b, e.latency, e.link.From, e.link.To, e.router, e.host)
}

// apply issues the event's mutator call.
func (e event) apply(w *world) {
	evo := w.evo
	switch e.kind {
	case intraLink:
		if e.repair {
			evo.RestoreIntraLink(e.a, e.b, e.latency)
		} else {
			evo.FailIntraLink(e.a, e.b)
		}
	case interLink:
		if e.repair {
			evo.RestoreInterLink(e.link)
		} else {
			evo.FailInterLink(e.link.From, e.link.To)
		}
	case routerToggle:
		if e.repair {
			evo.DeployRouter(e.router)
		} else {
			evo.UndeployRouter(e.router)
		}
	case hostToggle:
		h := w.net.Hosts[e.host]
		if e.repair {
			// The host was registered a moment ago on this same
			// deployment; re-registering cannot fail.
			_ = evo.RegisterEndhost(h)
		} else {
			evo.UnregisterEndhost(h)
		}
	}
}

// churnSchedule draws rounds rounds of the four event kinds, each a
// failure and its repair, with seeded targets: an intra link of a
// deployed domain, a provider link of a deployed multihomed stub, a
// router of a deployed stub, a registered host.
func churnSchedule(w *world, rng *rand.Rand, rounds int) ([]event, error) {
	net := w.net
	var multihomed, stubs []topology.ASN
	for _, asn := range w.deployed {
		if net.Domain(asn).Name[0] != 'S' {
			continue
		}
		stubs = append(stubs, asn)
		if len(providerLinks(net, asn)) > 1 {
			multihomed = append(multihomed, asn)
		}
	}
	if len(multihomed) == 0 {
		return nil, fmt.Errorf("bench: churn world has no deployed multihomed stub")
	}
	out := make([]event, 0, rounds*2*int(numEventKinds))
	pair := func(e event) {
		out = append(out, e)
		e.repair = true
		out = append(out, e)
	}
	for i := 0; i < rounds; i++ {
		rs := net.Domain(w.deployed[rng.Intn(len(w.deployed))]).Routers
		a := rs[rng.Intn(len(rs))]
		edges := net.Intra.Neighbors(int(a))
		if len(edges) == 0 {
			return nil, fmt.Errorf("bench: router %d has no intra link", a)
		}
		edge := edges[rng.Intn(len(edges))]
		pair(event{kind: intraLink, a: a, b: topology.RouterID(edge.To), latency: edge.Weight})

		links := providerLinks(net, multihomed[rng.Intn(len(multihomed))])
		pair(event{kind: interLink, link: links[rng.Intn(len(links))]})

		rs = net.Domain(stubs[rng.Intn(len(stubs))]).Routers
		pair(event{kind: routerToggle, router: rs[rng.Intn(len(rs))]})

		pair(event{kind: hostToggle, host: topology.HostID(rng.Intn(len(net.Hosts)))})
	}
	return out, nil
}
