// Package linkstate implements an OSPF-like intra-domain link-state
// protocol with the two anycast extensions described in §3.2 of the paper:
//
//  1. an IPvN router advertises a high-cost "link" to the anycast address
//     (the high cost prevents routers from routing *through* the address);
//  2. alternatively, a router explicitly lists its anycast addresses in its
//     ordinary advertisement, which makes anycast resolution a lookup and
//     lets IPvN routers trivially discover one another.
//
// Both modes are implemented; both resolve an anycast address to the
// closest member. Because link-state databases are domain-global, member
// discovery works in either mode — the paper's observation that discovery
// is hard applies to distance-vector (package distvec), not here.
package linkstate

import (
	"sort"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/graph"
	"github.com/evolvable-net/evolve/internal/netsim"
)

// Mode selects which anycast extension a domain runs.
type Mode int

const (
	// ModeHighCostLink advertises anycast membership as a high-cost link
	// to a virtual node representing the anycast address.
	ModeHighCostLink Mode = iota
	// ModeExplicitList lists anycast addresses inside the router LSA.
	ModeExplicitList
)

// Link is one adjacency in an LSA.
type Link struct {
	To   int
	Cost int64
}

// LSA is a router's link-state advertisement.
type LSA struct {
	Origin  int
	Seq     uint64
	Links   []Link
	Anycast []addr.V4 // ModeExplicitList: addresses this router serves
	// AnycastLinks carries the ModeHighCostLink virtual adjacencies.
	AnycastLinks []addr.V4
}

// Router is one link-state speaker. Create with NewRouter, then Start; the
// router converges as the netsim engine runs.
type Router struct {
	id      int
	mode    Mode
	fabric  *netsim.Fabric
	nbrs    []Link
	anycast []addr.V4

	seq  uint64
	lsdb map[int]*LSA

	// spfDirty marks the cached SPF stale.
	spfDirty bool
	spt      *graph.SPT
	idx      map[int]int // router id → dense index
	rev      []int       // dense index → router id
}

// NewRouter creates a router with the given neighbour adjacencies.
func NewRouter(id int, mode Mode, fabric *netsim.Fabric, neighbors []Link) *Router {
	r := &Router{
		id:       id,
		mode:     mode,
		fabric:   fabric,
		nbrs:     append([]Link(nil), neighbors...),
		lsdb:     map[int]*LSA{},
		spfDirty: true,
	}
	fabric.Attach(id, r)
	return r
}

// ServeAnycast adds an anycast address this router accepts (i.e. the
// router is an IPvN router for that deployment) and re-originates its LSA.
func (r *Router) ServeAnycast(a addr.V4) {
	for _, x := range r.anycast {
		if x == a {
			return
		}
	}
	r.anycast = append(r.anycast, a)
	r.originate()
}

// Start originates the router's first LSA and floods it.
func (r *Router) Start() { r.originate() }

// SetLinkCost updates (or adds) the adjacency to neighbor and
// re-originates. A cost < 0 removes the adjacency (link failure).
func (r *Router) SetLinkCost(neighbor int, cost int64) {
	out := r.nbrs[:0]
	for _, l := range r.nbrs {
		if l.To != neighbor {
			out = append(out, l)
		}
	}
	r.nbrs = out
	if cost >= 0 {
		r.nbrs = append(r.nbrs, Link{To: neighbor, Cost: cost})
	}
	r.originate()
}

func (r *Router) originate() {
	r.seq++
	lsa := &LSA{
		Origin: r.id,
		Seq:    r.seq,
		Links:  append([]Link(nil), r.nbrs...),
	}
	switch r.mode {
	case ModeExplicitList:
		lsa.Anycast = append([]addr.V4(nil), r.anycast...)
	case ModeHighCostLink:
		lsa.AnycastLinks = append([]addr.V4(nil), r.anycast...)
	}
	r.install(lsa)
	r.flood(lsa, -1)
}

func (r *Router) install(lsa *LSA) bool {
	cur, ok := r.lsdb[lsa.Origin]
	if ok && cur.Seq >= lsa.Seq {
		return false
	}
	r.lsdb[lsa.Origin] = lsa
	r.spfDirty = true
	return true
}

func (r *Router) flood(lsa *LSA, except int) {
	for _, l := range r.nbrs {
		if l.To == except {
			continue
		}
		r.fabric.Send(r.id, l.To, lsa)
	}
}

// Receive implements netsim.Handler: standard flooding with sequence
// numbers.
func (r *Router) Receive(from int, msg any) {
	lsa, ok := msg.(*LSA)
	if !ok {
		return
	}
	if r.install(lsa) {
		r.flood(lsa, from)
	}
}

func (r *Router) recompute() {
	if !r.spfDirty {
		return
	}
	// Build a dense graph over the routers present in the LSDB. Links are
	// used only if both endpoints advertise them (two-way check), matching
	// OSPF behaviour.
	ids := make([]int, 0, len(r.lsdb))
	for id := range r.lsdb {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	r.idx = make(map[int]int, len(ids))
	r.rev = ids
	for i, id := range ids {
		r.idx[id] = i
	}
	g := graph.New(len(ids))
	for _, lsa := range r.lsdb {
		u := r.idx[lsa.Origin]
		for _, l := range lsa.Links {
			vi, ok := r.idx[l.To]
			if !ok {
				continue
			}
			if !r.twoWay(l.To, lsa.Origin) {
				continue
			}
			g.AddEdge(u, vi, l.Cost)
		}
	}
	self, ok := r.idx[r.id]
	if !ok {
		r.spt = nil
		r.spfDirty = false
		return
	}
	r.spt = g.Dijkstra(self)
	r.spfDirty = false
}

func (r *Router) twoWay(from, to int) bool {
	lsa, ok := r.lsdb[from]
	if !ok {
		return false
	}
	for _, l := range lsa.Links {
		if l.To == to {
			return true
		}
	}
	return false
}

// DistanceTo returns the SPF cost from this router to dst, or graph.Inf.
func (r *Router) DistanceTo(dst int) int64 {
	r.recompute()
	if r.spt == nil {
		return graph.Inf
	}
	i, ok := r.idx[dst]
	if !ok {
		return graph.Inf
	}
	return r.spt.Dist[i]
}

// NextHopTo returns the first hop toward dst, or -1 when unreachable.
func (r *Router) NextHopTo(dst int) int {
	r.recompute()
	if r.spt == nil {
		return -1
	}
	i, ok := r.idx[dst]
	if !ok {
		return -1
	}
	nh := r.spt.NextHop(i)
	if nh < 0 {
		return -1
	}
	return r.rev[nh]
}

// AnycastMembers returns the routers advertising a, in id order. This is
// the §3.2 discovery property: within a link-state domain, every IPvN
// router can identify every other.
func (r *Router) AnycastMembers(a addr.V4) []int {
	var out []int
	for id, lsa := range r.lsdb {
		list := lsa.Anycast
		if r.mode == ModeHighCostLink {
			list = lsa.AnycastLinks
		}
		for _, x := range list {
			if x == a {
				out = append(out, id)
				break
			}
		}
	}
	sort.Ints(out)
	return out
}

// ResolveAnycast returns the closest member of the anycast group a, the
// SPF distance to it, and the first hop toward it. Self-membership
// resolves at distance 0. ok is false when no member exists.
//
// In ModeHighCostLink the effective advertised cost through the virtual
// link is member-distance plus one high cost, the same for every member
// and beyond any intra-domain path, so the argmin member is identical in
// both modes; we therefore resolve by distance to members directly, which
// is what a real SPF over the virtual node yields.
func (r *Router) ResolveAnycast(a addr.V4) (member int, dist int64, nextHop int, ok bool) {
	members := r.AnycastMembers(a)
	if len(members) == 0 {
		return 0, 0, -1, false
	}
	best, bestDist := -1, int64(graph.Inf)
	for _, m := range members {
		var d int64
		if m == r.id {
			d = 0
		} else {
			d = r.DistanceTo(m)
		}
		if d < bestDist {
			best, bestDist = m, d
		}
	}
	if best < 0 || bestDist >= graph.Inf {
		return 0, 0, -1, false
	}
	if best == r.id {
		return best, 0, r.id, true
	}
	return best, bestDist, r.NextHopTo(best), true
}

// Domain wires up and runs all routers of one domain. It is a convenience
// for experiments: construct, Start, then run the engine to quiescence.
type Domain struct {
	Routers map[int]*Router
}

// NewDomain creates one Router per node of the given adjacency list.
// adjacency maps router id → neighbour links.
func NewDomain(fabric *netsim.Fabric, mode Mode, adjacency map[int][]Link) *Domain {
	d := &Domain{Routers: map[int]*Router{}}
	ids := make([]int, 0, len(adjacency))
	for id := range adjacency {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		d.Routers[id] = NewRouter(id, mode, fabric, adjacency[id])
		for _, l := range adjacency[id] {
			fabric.Connect(id, l.To, netsim.Time(l.Cost))
		}
	}
	return d
}

// Start floods every router's initial LSA.
func (d *Domain) Start() {
	ids := make([]int, 0, len(d.Routers))
	for id := range d.Routers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		d.Routers[id].Start()
	}
}
