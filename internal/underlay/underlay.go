// Package underlay provides cached shortest-path views over a topology:
// converged-IGP distances inside each domain and ground-truth router-level
// distances over the whole internet. The event-driven protocols in
// internal/routing compute the same answers message by message; the
// experiment harness uses these closed forms for speed, and tests assert
// the two agree.
package underlay

import (
	"slices"
	"sync"
	"sync/atomic"

	"github.com/evolvable-net/evolve/internal/graph"
	"github.com/evolvable-net/evolve/internal/topology"
)

// domainGraph is one domain's intra topology compacted to local indices.
// Keeping per-domain subgraphs (instead of running Dijkstra over the
// global router space) makes each IGP computation and its distance
// arrays proportional to the domain size, not the internet size — the
// difference between kilobytes and gigabytes of SPT state at 10k
// domains.
type domainGraph struct {
	g   *graph.Graph
	ids []topology.RouterID // ascending; local index i ↔ ids[i]
	// spt[i] is the tree rooted at local index i (in local indices), filled
	// on first use; racing fills compute the same tree.
	spt []atomic.Pointer[graph.SPT]
}

// buildDomainGraph snapshots one domain's intra links; local maps every
// router to its local index. Domain router lists are ascending by
// construction, so local index order preserves global id order and the
// local Dijkstra breaks ties exactly as the old global-graph computation
// did.
func buildDomainGraph(net *topology.Network, asn topology.ASN, local []int32) *domainGraph {
	ids := net.Domain(asn).Routers
	dg := &domainGraph{
		g:   graph.New(len(ids)),
		ids: ids,
		spt: make([]atomic.Pointer[graph.SPT], len(ids)),
	}
	for i, rid := range ids {
		for _, e := range net.Intra.Neighbors(int(rid)) {
			// Intra links never cross domains, so e.To is always local.
			dg.g.AddEdge(i, int(local[e.To]), e.Weight)
		}
	}
	return dg
}

// viewState is one immutable generation of the cache: per-domain graph
// snapshots taken at the last invalidation plus the lazily-filled SPT
// maps computed against them. Queries load one state pointer and stay on
// it, so a query mid-flight keeps a consistent view even while an
// invalidation publishes the next generation.
type viewState struct {
	// graphs[r] is the subgraph of router r's domain.
	graphs []*domainGraph
	// full is the whole-internet router graph, snapshotted by the
	// generation's first ground-truth query: only bone partition repair
	// and the congruence metric ask, so most generations never build it.
	fullOnce sync.Once
	full     *graph.Graph
	fullSPT  []atomic.Pointer[graph.SPT] // by router id, filled on first use
}

// View caches single-source shortest-path trees lazily. Queries are
// lock-free and safe for concurrent use, including concurrently with
// invalidation: readers that loaded the previous state finish on its
// snapshot. The Invalidate* methods themselves must be serialized by the
// caller (internal/core holds its mutator lock across the topology
// change and the invalidation). The ground-truth queries are the
// exception: a generation snapshots the whole-internet graph on their
// first use, from the live topology, so they belong on the mutator's side
// of that lock (bone construction) or in single-goroutine code.
type View struct {
	net *topology.Network
	// local[r] is router r's index in its domain's subgraph. Domain router
	// lists never change, so every generation shares it.
	local []int32
	state atomic.Pointer[viewState]

	// dijkstras counts Dijkstra executions across the view's lifetime —
	// the scoped-invalidation efficiency metric (fewer runs after a
	// scoped invalidation than after a full dump).
	dijkstras atomic.Uint64
}

func (v *View) freshGraphs() []*domainGraph {
	graphs := make([]*domainGraph, len(v.net.Routers))
	for _, asn := range v.net.ASNs() {
		v.snapshot(graphs, asn)
	}
	return graphs
}

// snapshot builds asn's subgraph and points each of its routers at it.
func (v *View) snapshot(graphs []*domainGraph, asn topology.ASN) {
	dg := buildDomainGraph(v.net, asn, v.local)
	for _, r := range dg.ids {
		graphs[r] = dg
	}
}

// NewView returns a view over net.
func NewView(net *topology.Network) *View {
	v := &View{net: net, local: make([]int32, len(net.Routers))}
	for _, asn := range net.ASNs() {
		for i, r := range net.Domain(asn).Routers {
			v.local[r] = int32(i)
		}
	}
	v.state.Store(&viewState{graphs: v.freshGraphs()})
	return v
}

// Network returns the underlying topology.
func (v *View) Network() *topology.Network { return v.net }

// DijkstraRuns reports how many Dijkstra computations the view has
// performed since creation. Monotonic; scoped-invalidation tests assert
// deltas across churn.
func (v *View) DijkstraRuns() uint64 { return v.dijkstras.Load() }

// InvalidateDomain discards state affected by an intra-domain change in
// asn: that domain's subgraph and SPTs, plus every full-graph SPT
// (cross-domain paths may traverse the changed domain). Every other
// domain's subgraph and cached trees are carried over untouched — the
// intra graph has no cross-domain edges — so the cost of an intra event
// is proportional to the touched domain plus a copy of one pointer per
// router, not to the internet's links.
func (v *View) InvalidateDomain(asn topology.ASN) {
	graphs := slices.Clone(v.state.Load().graphs)
	v.snapshot(graphs, asn)
	v.state.Store(&viewState{graphs: graphs})
}

// InvalidateInter discards state affected by an inter-domain link
// change: the full-graph snapshot and its SPTs. Every intra-domain
// subgraph and SPT survives untouched — inter links do not appear in the
// intra graphs — which is the bulk of the savings under border flaps.
func (v *View) InvalidateInter() {
	v.state.Store(&viewState{graphs: v.state.Load().graphs})
}

// intraFor returns the SPT rooted at src within its domain's subgraph,
// along with the subgraph (needed to translate local indices).
func (v *View) intraFor(src topology.RouterID) (*domainGraph, *graph.SPT) {
	dg, li := v.state.Load().graphs[src], int(v.local[src])
	if t := dg.spt[li].Load(); t != nil {
		return dg, t
	}
	v.dijkstras.Add(1)
	t := dg.g.Dijkstra(li)
	dg.spt[li].Store(t)
	return dg, t
}

func (v *View) fullFrom(src topology.RouterID) *graph.SPT {
	st := v.state.Load()
	st.fullOnce.Do(func() {
		st.full = v.net.RouterGraph()
		st.fullSPT = make([]atomic.Pointer[graph.SPT], st.full.Len())
	})
	if t := st.fullSPT[src].Load(); t != nil {
		return t
	}
	v.dijkstras.Add(1)
	t := st.full.Dijkstra(int(src))
	st.fullSPT[src].Store(t)
	return t
}

// IntraDist returns the converged-IGP distance between two routers of the
// same domain, or graph.Inf if they are in different domains.
func (v *View) IntraDist(a, b topology.RouterID) int64 {
	if v.net.DomainOf(a) != v.net.DomainOf(b) {
		return graph.Inf
	}
	_, t := v.intraFor(a)
	return t.Dist[v.local[b]]
}

// IntraPath returns the intra-domain router path a..b in exact-size
// storage, written straight from the tree's parent array, or nil when b
// is unreachable or in another domain.
func (v *View) IntraPath(a, b topology.RouterID) []topology.RouterID {
	if v.net.DomainOf(a) != v.net.DomainOf(b) {
		return nil
	}
	dg, t := v.intraFor(a)
	lb := int(v.local[b])
	if t.Dist[lb] >= graph.Inf {
		return nil
	}
	n := 1
	for li := lb; t.Parent[li] >= 0; li = t.Parent[li] {
		n++
	}
	path := make([]topology.RouterID, n)
	for li, k := lb, n-1; k >= 0; li, k = t.Parent[li], k-1 {
		path[k] = dg.ids[li]
	}
	return path
}

// ClosestIn returns the member closest to entry by IGP distance (entry and
// members must share a domain); ties break to the lower router id because
// members are scanned in order. ok is false when no member is reachable.
func (v *View) ClosestIn(entry topology.RouterID, members []topology.RouterID) (topology.RouterID, int64, bool) {
	best := topology.RouterID(-1)
	bestDist := int64(graph.Inf)
	for _, m := range members {
		d := v.IntraDist(entry, m)
		if d < bestDist {
			best, bestDist = m, d
		}
	}
	if best < 0 {
		return -1, 0, false
	}
	return best, bestDist, true
}

// Exit implements early-exit border selection: among candidate border
// links to a neighbouring domain, return the one whose local end is
// cheapest to reach from cur by IGP (ties break toward the first
// candidate), as real intra-domain routing does, and that distance —
// graph.Inf when no local end is reachable — from one probe of cur's
// tree. ok is false for an empty candidate list.
func (v *View) Exit(cur topology.RouterID, links []topology.InterLink) (best topology.InterLink, dist int64, ok bool) {
	if len(links) == 0 {
		return topology.InterLink{}, 0, false
	}
	_, t := v.intraFor(cur)
	asn := v.net.DomainOf(cur)
	best, dist = links[0], graph.Inf
	for _, l := range links {
		// A link end in another domain is unreachable: its local index is
		// a position in that domain's subgraph, not in cur's tree.
		if v.net.DomainOf(l.From) != asn {
			continue
		}
		if d := t.Dist[v.local[l.From]]; d < dist {
			best, dist = l, d
		}
	}
	return best, dist, true
}

// GroundTruthDist returns the router-level shortest-path distance over the
// whole internet, ignoring routing policy. This is the unreachable-in-
// practice lower bound used in some stretch comparisons.
func (v *View) GroundTruthDist(a, b topology.RouterID) int64 {
	return v.fullFrom(a).Dist[b]
}
