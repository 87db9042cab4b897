// Package distvec implements a RIP-like intra-domain distance-vector
// protocol with the paper's §3.2 anycast extension: an IPvN router simply
// advertises a distance of zero to its anycast address, and standard
// distance-vector processing ensures every router discovers the next hop
// to its *closest* IPvN router.
//
// As the paper notes, under distance-vector an IPvN router cannot easily
// identify the other members of the group — only its distance to the
// nearest one — so unlike package linkstate this package deliberately
// offers no member-discovery API. vN-Bone construction over such domains
// must bootstrap through the anycast address itself (§3.3.1 footnote).
package distvec

import (
	"sort"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/netsim"
)

// Infinity is the RIP unreachable metric.
const Infinity = 16

// Entry is one routing-table row.
type Entry struct {
	Metric  int
	NextHop int
}

// vector is the update message exchanged between neighbours.
type vector struct {
	routes map[addr.V4]int
}

// request asks a neighbour for its full vector (RIP request message). It
// is sent when a route is poisoned so that previously non-best alternates
// held by unchanged neighbours are re-learned.
type request struct{}

// Router is one distance-vector speaker.
type Router struct {
	id       int
	loopback addr.V4
	fabric   *netsim.Fabric
	// neighbors maps neighbour id → link metric (RIP canonically uses 1).
	neighbors map[int]int
	table     map[addr.V4]Entry
	anycast   map[addr.V4]bool

	// pending coalesces triggered updates scheduled but not yet sent;
	// pendingReq likewise for requests.
	pending    bool
	pendingReq bool
}

// NewRouter creates a router; neighbors maps neighbour id → hop metric.
func NewRouter(id int, loopback addr.V4, fabric *netsim.Fabric, neighbors map[int]int) *Router {
	r := &Router{
		id:        id,
		loopback:  loopback,
		fabric:    fabric,
		neighbors: map[int]int{},
		table:     map[addr.V4]Entry{},
		anycast:   map[addr.V4]bool{},
	}
	for n, m := range neighbors {
		if m <= 0 {
			m = 1
		}
		r.neighbors[n] = m
	}
	fabric.Attach(id, r)
	return r
}

// Start installs the router's own routes and sends the first update.
func (r *Router) Start() {
	r.table[r.loopback] = Entry{Metric: 0, NextHop: r.id}
	for a := range r.anycast {
		r.table[a] = Entry{Metric: 0, NextHop: r.id}
	}
	r.scheduleUpdate()
}

// ServeAnycast advertises distance 0 to the anycast address a — the
// paper's entire distance-vector anycast extension.
func (r *Router) ServeAnycast(a addr.V4) {
	r.anycast[a] = true
	r.table[a] = Entry{Metric: 0, NextHop: r.id}
	r.scheduleUpdate()
}

// SetLinkDown fails the adjacency to neighbor: routes through it are
// poisoned and the change propagates.
func (r *Router) SetLinkDown(neighbor int) {
	delete(r.neighbors, neighbor)
	changed := false
	for dest, e := range r.table {
		if e.NextHop == neighbor && e.Metric < Infinity {
			r.table[dest] = Entry{Metric: Infinity, NextHop: neighbor}
			changed = true
		}
	}
	if changed {
		r.scheduleUpdate()
		r.scheduleRequest()
	}
}

// Lookup returns the table entry for dest.
func (r *Router) Lookup(dest addr.V4) (Entry, bool) {
	e, ok := r.table[dest]
	if !ok || e.Metric >= Infinity {
		return Entry{}, false
	}
	return e, true
}

// DistanceTo returns the metric to dest, or Infinity.
func (r *Router) DistanceTo(dest addr.V4) int {
	if e, ok := r.Lookup(dest); ok {
		return e.Metric
	}
	return Infinity
}

// scheduleUpdate coalesces triggered updates within the current event
// round: the update fires after a tiny delay so a burst of table changes
// produces one message per neighbour.
func (r *Router) scheduleUpdate() {
	if r.pending {
		return
	}
	r.pending = true
	r.fabric.Engine().After(1, func() {
		r.pending = false
		r.sendUpdates()
	})
}

// scheduleRequest coalesces a round of RIP requests to all neighbours.
func (r *Router) scheduleRequest() {
	if r.pendingReq {
		return
	}
	r.pendingReq = true
	r.fabric.Engine().After(1, func() {
		r.pendingReq = false
		nbrs := make([]int, 0, len(r.neighbors))
		for n := range r.neighbors {
			nbrs = append(nbrs, n)
		}
		sort.Ints(nbrs)
		for _, n := range nbrs {
			r.fabric.Send(r.id, n, request{})
		}
	})
}

// sendUpdates sends the full vector to each neighbour, applying split
// horizon with poisoned reverse: routes learned through a neighbour are
// advertised back to it with metric Infinity.
func (r *Router) sendUpdates() {
	nbrs := make([]int, 0, len(r.neighbors))
	for n := range r.neighbors {
		nbrs = append(nbrs, n)
	}
	sort.Ints(nbrs)
	for _, n := range nbrs {
		v := vector{routes: make(map[addr.V4]int, len(r.table))}
		for dest, e := range r.table {
			m := e.Metric
			if e.NextHop == n && e.NextHop != r.id {
				m = Infinity // poisoned reverse
			}
			v.routes[dest] = m
		}
		r.fabric.Send(r.id, n, v)
	}
}

// Receive implements netsim.Handler: standard Bellman-Ford relaxation for
// vectors, full-table response for requests.
func (r *Router) Receive(from int, msg any) {
	if _, up := r.neighbors[from]; !up {
		return // stale message from a failed adjacency
	}
	switch v := msg.(type) {
	case request:
		r.scheduleUpdate()
	case vector:
		linkMetric := r.neighbors[from]
		changed, worsened := false, false
		for dest, m := range v.routes {
			cand := m + linkMetric
			if cand > Infinity {
				cand = Infinity
			}
			cur, have := r.table[dest]
			switch {
			case r.anycast[dest] || dest == r.loopback:
				// Locally served destinations stay at metric 0.
				continue
			case !have || cand < cur.Metric:
				r.table[dest] = Entry{Metric: cand, NextHop: from}
				changed = true
			case cur.NextHop == from && cand != cur.Metric:
				// Metric change from our current next hop must be adopted
				// even when worse (this is what makes poisoning work).
				r.table[dest] = Entry{Metric: cand, NextHop: from}
				changed = true
				worsened = true
			}
		}
		if changed {
			r.scheduleUpdate()
		}
		if worsened {
			// Ask other neighbours whether they still hold an alternate.
			r.scheduleRequest()
		}
	}
}

// Domain wires up and runs all routers of one domain, analogous to
// linkstate.Domain.
type Domain struct {
	Routers map[int]*Router
}

// NewDomain creates one Router per entry of adjacency (router id →
// neighbour id → metric) with the given loopback addresses.
func NewDomain(fabric *netsim.Fabric, loopbacks map[int]addr.V4, adjacency map[int]map[int]int) *Domain {
	d := &Domain{Routers: map[int]*Router{}}
	ids := make([]int, 0, len(adjacency))
	for id := range adjacency {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		d.Routers[id] = NewRouter(id, loopbacks[id], fabric, adjacency[id])
		for n, m := range adjacency[id] {
			fabric.Connect(id, n, netsim.Time(m))
		}
	}
	return d
}

// Start boots every router.
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
