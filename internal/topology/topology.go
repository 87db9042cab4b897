// Package topology models the multi-provider internet the paper's
// mechanisms run over: ISP domains (ASes) containing intra-domain router
// graphs, inter-domain links annotated with Gao-Rexford business
// relationships, and endhosts attached to access routers. It provides both
// hand-built scenario topologies (for the paper's figures) and synthetic
// generators (transit-stub, Waxman, Barabási–Albert) for the quantitative
// sweeps.
package topology

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/graph"
)

// RouterID identifies a router globally across all domains.
type RouterID int

// HostID identifies an endhost globally.
type HostID int

// ASN identifies a domain (ISP / autonomous system).
type ASN int

// Rel is the business relationship of one domain toward a neighbour,
// following the Gao-Rexford model that constrains BGP export policy.
type Rel int

const (
	// RelProvider: this domain is the provider of the neighbour (the
	// neighbour is its customer, and pays it for transit).
	RelProvider Rel = iota
	// RelCustomer: this domain is the customer of the neighbour.
	RelCustomer
	// RelPeer: settlement-free peering.
	RelPeer
)

// Invert returns the relationship as seen from the other end of the link.
func (r Rel) Invert() Rel {
	switch r {
	case RelProvider:
		return RelCustomer
	case RelCustomer:
		return RelProvider
	default:
		return RelPeer
	}
}

func (r Rel) String() string {
	switch r {
	case RelProvider:
		return "provider"
	case RelCustomer:
		return "customer"
	default:
		return "peer"
	}
}

// Router is a single router. Routers are owned by exactly one domain.
type Router struct {
	ID       RouterID
	Domain   ASN
	Loopback addr.V4
	// Border is set once the router terminates an inter-domain link.
	Border bool
	// Name is a human-readable label for scenario topologies ("X1").
	Name string
}

// Host is an endhost attached to an access router of its domain.
type Host struct {
	ID     HostID
	Domain ASN
	Attach RouterID
	Addr   addr.V4
	// AccessLatency is the host↔access-router link cost.
	AccessLatency int64
	Name          string
}

// Domain is an ISP: a set of routers, an owned address aggregate, and a
// human-readable name.
type Domain struct {
	ASN     ASN
	Name    string
	Prefix  addr.Prefix
	Routers []RouterID

	pool *addr.Pool
	// hosts lists the domain's hosts in id order; AddHost appends.
	hosts []*Host
}

// InterLink is an inter-domain (border-to-border) link. Rel is the
// relationship of From's domain toward To's domain.
type InterLink struct {
	From, To RouterID
	Rel      Rel
	Latency  int64
}

// Network is the assembled internet.
type Network struct {
	Domains map[ASN]*Domain
	Routers []*Router // indexed by RouterID
	Hosts   []*Host   // indexed by HostID

	// Intra holds only intra-domain links (node = RouterID); a traversal
	// starting inside a domain stays inside it.
	Intra *graph.Graph
	// Inter holds the inter-domain links.
	Inter []InterLink

	asns []ASN // sorted, for deterministic iteration

	// Lazy O(1) address indexes over the (immutable after Build) node
	// sets. Built on first use so construction pays nothing; a million
	// FindHost calls on the delivery path pay a map probe, not a fleet
	// scan. Link-state mutators (Fail/Restore*) never touch nodes, so
	// the indexes stay valid for the network's lifetime.
	indexOnce    sync.Once
	hostByAddr   map[addr.V4]*Host
	routerByLoop map[addr.V4]*Router
}

// buildIndexes populates the lazy address indexes exactly once.
func (n *Network) buildIndexes() {
	n.indexOnce.Do(func() {
		n.hostByAddr = make(map[addr.V4]*Host, len(n.Hosts))
		for _, h := range n.Hosts {
			n.hostByAddr[h.Addr] = h
		}
		n.routerByLoop = make(map[addr.V4]*Router, len(n.Routers))
		for _, r := range n.Routers {
			n.routerByLoop[r.Loopback] = r
		}
	})
}

// ASNs returns the domain numbers in ascending order.
func (n *Network) ASNs() []ASN { return n.asns }

// Domain returns the domain for asn, or nil.
func (n *Network) Domain(asn ASN) *Domain { return n.Domains[asn] }

// DomainByName finds a domain by its scenario name, or nil.
func (n *Network) DomainByName(name string) *Domain {
	for _, asn := range n.asns {
		if d := n.Domains[asn]; d.Name == name {
			return d
		}
	}
	return nil
}

// Router returns the router with the given id.
func (n *Network) Router(id RouterID) *Router { return n.Routers[id] }

// DomainOf returns the owning domain of a router.
func (n *Network) DomainOf(id RouterID) ASN { return n.Routers[id].Domain }

// BorderRouters lists a domain's border routers in id order.
func (n *Network) BorderRouters(asn ASN) []RouterID {
	var out []RouterID
	for _, rid := range n.Domains[asn].Routers {
		if n.Routers[rid].Border {
			out = append(out, rid)
		}
	}
	return out
}

// ASNeighbor summarises all links between one domain and one neighbour.
type ASNeighbor struct {
	ASN   ASN
	Rel   Rel // relationship of the subject domain toward ASN
	Links []InterLink
}

// Neighbors returns a domain's inter-domain adjacency, sorted by ASN. Each
// entry's links are oriented with From inside the subject domain.
func (n *Network) Neighbors(asn ASN) []ASNeighbor {
	byASN := map[ASN]*ASNeighbor{}
	add := func(other ASN, rel Rel, l InterLink) {
		nb := byASN[other]
		if nb == nil {
			nb = &ASNeighbor{ASN: other, Rel: rel}
			byASN[other] = nb
		}
		nb.Links = append(nb.Links, l)
	}
	for _, l := range n.Inter {
		fd, td := n.DomainOf(l.From), n.DomainOf(l.To)
		switch {
		case fd == asn:
			add(td, l.Rel, l)
		case td == asn:
			add(fd, l.Rel.Invert(), InterLink{From: l.To, To: l.From, Rel: l.Rel.Invert(), Latency: l.Latency})
		}
	}
	out := make([]ASNeighbor, 0, len(byASN))
	for _, nb := range byASN {
		out = append(out, *nb)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ASN < out[j].ASN })
	return out
}

// AllNeighbors returns every domain's inter-domain adjacency in one pass
// over the link list. The per-domain slices are identical to what
// Neighbors returns for that ASN; domains with no inter-domain links are
// absent from the map. Callers that need adjacency for many domains
// (BGP bring-up at 10k ASes) should use this instead of calling
// Neighbors per domain, which rescans the whole link list each time.
func (n *Network) AllNeighbors() map[ASN][]ASNeighbor {
	byDomain := map[ASN]map[ASN]*ASNeighbor{}
	add := func(subject, other ASN, rel Rel, l InterLink) {
		m := byDomain[subject]
		if m == nil {
			m = map[ASN]*ASNeighbor{}
			byDomain[subject] = m
		}
		nb := m[other]
		if nb == nil {
			nb = &ASNeighbor{ASN: other, Rel: rel}
			m[other] = nb
		}
		nb.Links = append(nb.Links, l)
	}
	for _, l := range n.Inter {
		fd, td := n.DomainOf(l.From), n.DomainOf(l.To)
		add(fd, td, l.Rel, l)
		add(td, fd, l.Rel.Invert(), InterLink{From: l.To, To: l.From, Rel: l.Rel.Invert(), Latency: l.Latency})
	}
	out := make(map[ASN][]ASNeighbor, len(byDomain))
	for asn, m := range byDomain {
		nbs := make([]ASNeighbor, 0, len(m))
		for _, nb := range m {
			nbs = append(nbs, *nb)
		}
		sort.Slice(nbs, func(i, j int) bool { return nbs[i].ASN < nbs[j].ASN })
		out[asn] = nbs
	}
	return out
}

// RouterGraph returns the full router-level graph (intra + inter links),
// used for ground-truth path costs.
func (n *Network) RouterGraph() *graph.Graph {
	g := n.Intra.Clone()
	g.EnsureNode(len(n.Routers) - 1)
	for _, l := range n.Inter {
		g.AddBiEdge(int(l.From), int(l.To), l.Latency)
	}
	return g
}

// HostsIn lists a domain's hosts in id order. The returned slice is the
// domain's own; callers must not modify it.
func (n *Network) HostsIn(asn ASN) []*Host {
	if d := n.Domains[asn]; d != nil {
		return d.hosts
	}
	return nil
}

// FindHost returns the host owning the given underlay address, or nil.
// O(1) after the first call builds the index.
func (n *Network) FindHost(a addr.V4) *Host {
	n.buildIndexes()
	return n.hostByAddr[a]
}

// RouterByLoopback returns the router owning the given loopback address,
// or nil. O(1) after the first call builds the index.
func (n *Network) RouterByLoopback(a addr.V4) *Router {
	n.buildIndexes()
	return n.routerByLoop[a]
}

// FailIntraLink removes the intra-domain link a–b (both directions). It
// reports whether any link existed. Callers holding cached views
// (underlay.View, bgp.System) must invalidate/refresh them afterwards.
func (n *Network) FailIntraLink(a, b RouterID) bool {
	return n.Intra.RemoveBiEdge(int(a), int(b))
}

// RestoreIntraLink re-adds an intra-domain link with the given latency.
// It reports false, and adds nothing, when a–b is already up: a second
// edge at another latency would silently change the link's cost.
func (n *Network) RestoreIntraLink(a, b RouterID, latency int64) bool {
	if n.Intra.HasEdge(int(a), int(b)) {
		return false
	}
	if latency <= 0 {
		latency = 1
	}
	n.Intra.AddBiEdge(int(a), int(b), latency)
	return true
}

// FailInterLink removes the inter-domain link between border routers a
// and b (either orientation) and returns it for later restoration.
func (n *Network) FailInterLink(a, b RouterID) (InterLink, bool) {
	for i, l := range n.Inter {
		if (l.From == a && l.To == b) || (l.From == b && l.To == a) {
			n.Inter = append(n.Inter[:i], n.Inter[i+1:]...)
			return l, true
		}
	}
	return InterLink{}, false
}

// RestoreInterLink re-adds a previously failed inter-domain link. It
// reports false, and adds nothing, when l itself (same direction,
// relationship and latency) is already up: a second copy would outlive
// the next FailInterLink, which removes one. A parallel link between the
// same routers that differs from l — RingOfDomains(2, …) builds one each
// way — does not count, so its failed twin still comes back.
func (n *Network) RestoreInterLink(l InterLink) bool {
	if slices.Contains(n.Inter, l) {
		return false
	}
	n.Inter = append(n.Inter, l)
	return true
}

// Builder assembles a Network. Use NewBuilder, add domains, routers, links
// and hosts, then call Build. Builders are not safe for concurrent use.
type Builder struct {
	net     *Network
	nextASN ASN
	err     error
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{
		net: &Network{
			Domains: map[ASN]*Domain{},
			Intra:   graph.New(0),
		},
		nextASN: 1,
	}
}

// DomainPrefix is the aggregate owned by a domain: the ASN occupies the
// top 16 bits, giving each domain a /16.
func DomainPrefix(asn ASN) addr.Prefix {
	return addr.MakePrefix(addr.V4(uint32(asn)<<16), 16)
}

// MaxDomains is the addressing ceiling: DomainPrefix packs the ASN into
// the top 16 bits of the underlay space, so at most 0xFFFE domains fit
// (ASN 0 is reserved, 0xFFFF would collide with the broadcast-style top).
const MaxDomains = 0xFFFE

// AddDomain creates a new domain with an automatically assigned ASN and
// address aggregate.
func (b *Builder) AddDomain(name string) *Domain {
	if int(b.nextASN) > MaxDomains {
		b.fail(fmt.Errorf("topology: domain %q exceeds the %d-domain addressing ceiling (/16 per domain)", name, MaxDomains))
		// Return a detached placeholder so callers can keep building;
		// Build reports the recorded error.
		d := &Domain{ASN: b.nextASN, Name: name, Prefix: DomainPrefix(1)}
		d.pool = addr.NewPool(d.Prefix)
		return d
	}
	asn := b.nextASN
	b.nextASN++
	d := &Domain{
		ASN:    asn,
		Name:   name,
		Prefix: DomainPrefix(asn),
	}
	d.pool = addr.NewPool(d.Prefix)
	b.net.Domains[asn] = d
	b.net.asns = append(b.net.asns, asn)
	return d
}

// AddRouter creates a router inside d. The name may be empty.
func (b *Builder) AddRouter(d *Domain, name string) RouterID {
	id := RouterID(len(b.net.Routers))
	lo, err := d.pool.Next()
	if err != nil {
		b.fail(fmt.Errorf("topology: domain %s out of addresses: %w", d.Name, err))
		lo = 0
	}
	if name == "" {
		name = fmt.Sprintf("%s-r%d", d.Name, len(d.Routers))
	}
	r := &Router{ID: id, Domain: d.ASN, Loopback: lo, Name: name}
	b.net.Routers = append(b.net.Routers, r)
	b.net.Intra.EnsureNode(int(id))
	d.Routers = append(d.Routers, id)
	return id
}

// AddRouters creates n unnamed routers inside d.
func (b *Builder) AddRouters(d *Domain, n int) []RouterID {
	out := make([]RouterID, n)
	for i := range out {
		out[i] = b.AddRouter(d, "")
	}
	return out
}

// IntraLink connects two routers of the same domain.
func (b *Builder) IntraLink(a, c RouterID, latency int64) {
	if b.net.DomainOf(a) != b.net.DomainOf(c) {
		b.fail(fmt.Errorf("topology: intra link %d-%d crosses domains", a, c))
		return
	}
	if latency <= 0 {
		latency = 1
	}
	b.net.Intra.AddBiEdge(int(a), int(c), latency)
}

// InterLink connects border routers of two different domains; rel is the
// relationship of a's domain toward c's domain.
func (b *Builder) InterLink(a, c RouterID, rel Rel, latency int64) {
	if b.net.DomainOf(a) == b.net.DomainOf(c) {
		b.fail(fmt.Errorf("topology: inter link %d-%d inside one domain", a, c))
		return
	}
	if latency <= 0 {
		latency = 1
	}
	b.net.Routers[a].Border = true
	b.net.Routers[c].Border = true
	b.net.Inter = append(b.net.Inter, InterLink{From: a, To: c, Rel: rel, Latency: latency})
}

// Provide links provider and customer border routers (provider pays
// nothing; customer buys transit).
func (b *Builder) Provide(provider, customer RouterID, latency int64) {
	b.InterLink(provider, customer, RelProvider, latency)
}

// Peer links two border routers with settlement-free peering.
func (b *Builder) Peer(a, c RouterID, latency int64) {
	b.InterLink(a, c, RelPeer, latency)
}

// AddHost attaches a host to an access router of its domain.
func (b *Builder) AddHost(d *Domain, attach RouterID, name string, accessLatency int64) *Host {
	if b.net.DomainOf(attach) != d.ASN {
		b.fail(fmt.Errorf("topology: host %q attached to router outside domain %s", name, d.Name))
	}
	a, err := d.pool.Next()
	if err != nil {
		b.fail(fmt.Errorf("topology: domain %s out of addresses: %w", d.Name, err))
	}
	if accessLatency <= 0 {
		accessLatency = 1
	}
	if name == "" {
		name = fmt.Sprintf("%s-h%d", d.Name, len(b.net.Hosts))
	}
	h := &Host{
		ID:            HostID(len(b.net.Hosts)),
		Domain:        d.ASN,
		Attach:        attach,
		Addr:          a,
		AccessLatency: accessLatency,
		Name:          name,
	}
	b.net.Hosts = append(b.net.Hosts, h)
	d.hosts = append(d.hosts, h)
	return h
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Build validates and returns the network: every domain has routers and a
// connected intra graph, and no customer→provider chain returns to where
// it started.
func (b *Builder) Build() (*Network, error) {
	if b.err != nil {
		return nil, b.err
	}
	n := b.net
	if len(n.Domains) == 0 {
		return nil, fmt.Errorf("topology: no domains")
	}
	// Every domain's intra graph must be internally connected. One
	// union-find pass over the whole intra adjacency replaces the old
	// per-domain BFS (each of which allocated distance arrays sized to
	// the full router space — quadratic at 10k domains).
	uf := graph.NewUnionFind(len(n.Routers))
	for rid := range n.Routers {
		for _, e := range n.Intra.Neighbors(rid) {
			uf.Union(rid, e.To)
		}
	}
	for _, asn := range n.asns {
		d := n.Domains[asn]
		if len(d.Routers) == 0 {
			return nil, fmt.Errorf("topology: domain %s has no routers", d.Name)
		}
		root := uf.Find(int(d.Routers[0]))
		for _, rid := range d.Routers[1:] {
			if uf.Find(int(rid)) != root {
				return nil, fmt.Errorf("topology: domain %s intra graph is partitioned at router %d", d.Name, rid)
			}
		}
	}
	if cycle := n.providerCycle(); cycle != nil {
		names := make([]string, len(cycle))
		for i, asn := range cycle {
			names[i] = n.Domains[asn].Name
		}
		return nil, fmt.Errorf("topology: customer→provider cycle %s", strings.Join(names, " → "))
	}
	return n, nil
}

// providerCycle returns a cycle of the customer→provider relation — each
// domain a customer of the next, the last one the first again — or nil
// when the relation is a hierarchy, as Gao-Rexford safety and BGP's
// provider-route resolution presume. It is a depth-first search up
// provider edges that keeps the chain it is on: an edge back into the
// chain closes a cycle.
func (n *Network) providerCycle() []ASN {
	// pos[r] is the position in n.asns of router r's domain.
	pos := make([]int32, len(n.Routers))
	for i, asn := range n.asns {
		for _, r := range n.Domains[asn].Routers {
			pos[r] = int32(i)
		}
	}
	// ups[start[i]:start[i+1]] are the providers of domain i, by position.
	start := make([]int32, len(n.asns)+1)
	edge := func(l InterLink) (customer, provider int32, ok bool) {
		switch l.Rel {
		case RelCustomer:
			return pos[l.From], pos[l.To], true
		case RelProvider:
			return pos[l.To], pos[l.From], true
		}
		return 0, 0, false
	}
	for _, l := range n.Inter {
		if c, _, ok := edge(l); ok {
			start[c+1]++
		}
	}
	for i := range n.asns {
		start[i+1] += start[i]
	}
	ups := make([]int32, start[len(n.asns)])
	filled := slices.Clone(start[:len(n.asns)])
	for _, l := range n.Inter {
		if c, p, ok := edge(l); ok {
			ups[filled[c]] = p
			filled[c]++
		}
	}
	const unseen, onChain, settled = 0, 1, 2
	state := make([]uint8, len(n.asns))
	type frame struct{ at, next int32 }
	var chain []frame
	for root := range n.asns {
		if state[root] != unseen {
			continue
		}
		state[root] = onChain
		chain = append(chain[:0], frame{int32(root), start[root]})
		for len(chain) > 0 {
			f := &chain[len(chain)-1]
			if f.next == start[f.at+1] {
				state[f.at] = settled
				chain = chain[:len(chain)-1]
				continue
			}
			p := ups[f.next]
			f.next++
			switch state[p] {
			case unseen:
				state[p] = onChain
				chain = append(chain, frame{p, start[p]})
			case onChain:
				k := slices.IndexFunc(chain, func(f frame) bool { return f.at == p })
				var cycle []ASN
				for _, f := range chain[k:] {
					cycle = append(cycle, n.asns[f.at])
				}
				return append(cycle, n.asns[p])
			}
		}
	}
	return nil
}
