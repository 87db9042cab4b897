// Package topology models the multi-provider internet the paper's
// mechanisms run over: ISP domains (ASes) containing intra-domain router
// graphs, inter-domain links annotated with Gao-Rexford business
// relationships, and endhosts attached to access routers. It provides both
// hand-built scenario topologies (for the paper's figures) and synthetic
// generators (transit-stub, Waxman, Barabási–Albert) for the quantitative
// sweeps.
package topology

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
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
	// Rank is the host's index in its domain's HostsIn list, fixed when
	// the host is added. (Placed after Addr, it fills padding: a Host is
	// no larger for it.)
	Rank int32
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

	pool addr.Pool
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
//
// Every link is listed twice, once from each end, and one stable sort by
// (subject, neighbour) groups them; stability keeps each group in link
// order, as Neighbors has it. All entries share one backing array and
// all links another; every slice handed out is capacity-capped, so an
// append to one never writes into the next.
func (n *Network) AllNeighbors() map[ASN][]ASNeighbor {
	type oriented struct {
		subject, nbr ASN
		link         InterLink
	}
	links := make([]oriented, 0, 2*len(n.Inter))
	for _, l := range n.Inter {
		fd, td := n.DomainOf(l.From), n.DomainOf(l.To)
		links = append(links,
			oriented{fd, td, l},
			oriented{td, fd, InterLink{From: l.To, To: l.From, Rel: l.Rel.Invert(), Latency: l.Latency}})
	}
	slices.SortStableFunc(links, func(a, b oriented) int {
		return cmp.Or(cmp.Compare(a.subject, b.subject), cmp.Compare(a.nbr, b.nbr))
	})
	// A group ends at i when the next link has another subject or
	// neighbour; a domain's entries end where its last group does.
	endsGroup := func(i int) bool {
		return i+1 == len(links) || links[i+1].subject != links[i].subject || links[i+1].nbr != links[i].nbr
	}
	flat := make([]InterLink, len(links))
	groups := 0
	for i, o := range links {
		flat[i] = o.link
		if endsGroup(i) {
			groups++
		}
	}
	nbs := make([]ASNeighbor, 0, groups)
	out := make(map[ASN][]ASNeighbor, len(n.asns))
	for i, start, first := 0, 0, 0; i < len(links); i++ {
		if !endsGroup(i) {
			continue
		}
		nbs = append(nbs, ASNeighbor{ASN: links[i].nbr, Rel: links[start].link.Rel, Links: flat[start : i+1 : i+1]})
		start = i + 1
		if i+1 == len(links) || links[i+1].subject != links[i].subject {
			out[links[i].subject] = nbs[first:len(nbs):len(nbs)]
			first = len(nbs)
		}
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
	// routers and hosts hold the nodes themselves; Network.Routers and
	// Network.Hosts point into them.
	routers slab[Router]
	hosts   slab[Host]
}

// slab hands out values from chunks, so a pointer to one stays put and n
// values cost a few allocations instead of n. Chunks start at slabMin and
// double up to slabMax, so a hand-built world of a few nodes carries no
// large empty chunk; reserve makes the next chunk exactly as large as a
// generator needs.
type slab[T any] struct {
	free []T // the current chunk's unused rest
	next int // size of the next chunk
}

const slabMin, slabMax = 8, 1024

func (s *slab[T]) take() *T {
	if len(s.free) == 0 {
		s.free = make([]T, max(s.next, slabMin))
		s.next = min(2*len(s.free), slabMax)
	}
	v := &s.free[0]
	s.free = s.free[1:]
	return v
}

// reserve makes room for n more values in one chunk.
func (s *slab[T]) reserve(n int) {
	if len(s.free) < n {
		s.free = make([]T, n)
	}
}

// reserve readies the builder for the nodes of domains domains of
// routers routers and hosts hosts each, as a generator knows before it
// populates the first: the node slabs and the network's node lists get
// exactly that room, so nothing grows by doubling.
func (b *Builder) reserve(domains, routers, hosts int) {
	n := b.net
	n.Routers = slices.Grow(n.Routers, domains*routers)
	n.Hosts = slices.Grow(n.Hosts, domains*hosts)
	b.routers.reserve(domains * routers)
	b.hosts.reserve(domains * hosts)
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
		d.pool = *addr.NewPool(d.Prefix)
		return d
	}
	asn := b.nextASN
	b.nextASN++
	d := &Domain{
		ASN:    asn,
		Name:   name,
		Prefix: DomainPrefix(asn),
	}
	d.pool = *addr.NewPool(d.Prefix)
	b.net.Domains[asn] = d
	b.net.asns = append(b.net.asns, asn)
	return d
}

// AddRouter creates a router inside d. An empty name is Build's to give:
// "<domain>-r<index in domain>".
func (b *Builder) AddRouter(d *Domain, name string) RouterID {
	id := RouterID(len(b.net.Routers))
	lo, err := d.pool.Next()
	if err != nil {
		b.fail(fmt.Errorf("topology: domain %s out of addresses: %w", d.Name, err))
		lo = 0
	}
	r := b.routers.take()
	*r = Router{ID: id, Domain: d.ASN, Loopback: lo, Name: name}
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

// AddHost attaches a host to an access router of its domain. An empty
// name is Build's to give: "<domain>-h<id>".
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
	h := b.hosts.take()
	*h = Host{
		ID:            HostID(len(b.net.Hosts)),
		Domain:        d.ASN,
		Attach:        attach,
		Addr:          a,
		Rank:          int32(len(d.hosts)),
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
	n.nameDefaults()
	return n, nil
}

// nameDefaults names every router and host added without a name,
// "<domain>-r<index in domain>" and "<domain>-h<id>", cutting each name
// from one string allocated once instead of formatting one per node.
func (n *Network) nameDefaults() {
	// each calls f for every unnamed node, always in the same order, with
	// its name field and the parts of its default.
	each := func(f func(name *string, domain string, kind byte, num int)) {
		for _, asn := range n.asns {
			d := n.Domains[asn]
			for i, rid := range d.Routers {
				if r := n.Routers[rid]; r.Name == "" {
					f(&r.Name, d.Name, 'r', i)
				}
			}
			for _, h := range d.hosts {
				if h.Name == "" {
					f(&h.Name, d.Name, 'h', int(h.ID))
				}
			}
		}
	}
	size := func(domain string, num int) int {
		digits := 1
		for ; num >= 10; num /= 10 {
			digits++
		}
		return len(domain) + len("-h") + digits
	}
	total := 0
	each(func(_ *string, domain string, _ byte, num int) { total += size(domain, num) })
	var sb strings.Builder
	sb.Grow(total)
	var digits [20]byte
	each(func(_ *string, domain string, kind byte, num int) {
		sb.WriteString(domain)
		sb.WriteByte('-')
		sb.WriteByte(kind)
		sb.Write(strconv.AppendInt(digits[:0], int64(num), 10))
	})
	all, off := sb.String(), 0
	each(func(name *string, domain string, _ byte, num int) {
		end := off + size(domain, num)
		*name, off = all[off:end], end
	})
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
