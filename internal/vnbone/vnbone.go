// Package vnbone builds and maintains the multi-provider virtual IPvN
// network of §3.3.1 — the "vN-Bone" — overlaid on an internet where
// IPv(N-1) is ubiquitous:
//
//   - intra-domain: every IPvN router picks its k closest fellow members
//     (by converged-IGP distance) as virtual neighbours; the domain-global
//     knowledge that link-state routing provides makes partitions easy to
//     detect and repair, which we do with cheapest inter-component links;
//   - inter-domain: tunnels follow peering policy — one tunnel across each
//     physical inter-domain link whose two domains both participate; a
//     participant with no such adjacency bootstraps its first tunnel by
//     resolving the deployment's own anycast address (before advertising
//     it, per the paper's footnote), landing on some existing participant;
//   - as deployment spreads, the virtual topology grows congruent with
//     the physical one, which the Congruence metric quantifies.
package vnbone

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"github.com/evolvable-net/evolve/internal/anycast"
	"github.com/evolvable-net/evolve/internal/graph"
	"github.com/evolvable-net/evolve/internal/topology"
	"github.com/evolvable-net/evolve/internal/underlay"
)

// LinkKind distinguishes virtual-link flavours.
type LinkKind int

const (
	// KindIntra is an intra-domain virtual adjacency between members of
	// one participant ISP.
	KindIntra LinkKind = iota
	// KindTunnel is an inter-domain tunnel between members of two
	// participant ISPs, established along a peering link.
	KindTunnel
	// KindBootstrap is an inter-domain tunnel discovered through the
	// anycast bootstrap rather than configured peering.
	KindBootstrap
)

// String names the kind for printing: "intra", "tunnel" or "bootstrap".
func (k LinkKind) String() string {
	switch k {
	case KindIntra:
		return "intra"
	case KindTunnel:
		return "tunnel"
	default:
		return "bootstrap"
	}
}

// Link is one virtual link of the vN-Bone. Cost is the underlay cost the
// virtual hop actually traverses.
type Link struct {
	A, B topology.RouterID
	Cost int64
	Kind LinkKind
}

// Config parameterises construction.
type Config struct {
	// K is the number of closest same-domain members each member adopts
	// as virtual neighbours (default 2).
	K int
	// DisableRepair skips intra-domain partition repair (for the E8
	// ablation).
	DisableRepair bool
	// BlindIntra builds intra-domain topologies without member discovery
	// — the paper's footnote-3 alternative for domains running unmodified
	// RIP, where an IPvN router cannot enumerate its peers and instead
	// finds one via the anycast address when it joins. Each member links
	// to its closest predecessor (join order = router id), yielding a
	// tree instead of the k-closest mesh.
	BlindIntra bool

	// disableBootstrap skips the anycast bootstrap for isolated
	// participants and the anchor-connectivity rule that follows it, so
	// the package's tests can look at a bone's islands before tunnels
	// join them.
	disableBootstrap bool
}

// ErrPartitioned is returned when construction finishes without a
// connected vN-Bone (only possible with repair/bootstrap disabled, or
// when bootstrap itself cannot reach another participant).
var ErrPartitioned = errors.New("vnbone: virtual network is partitioned")

// Bone is a constructed virtual network.
type Bone struct {
	net *topology.Network
	igp *underlay.View
	dep *anycast.Deployment

	members []topology.RouterID
	idx     map[topology.RouterID]int
	links   []Link
	g       *graph.Graph
	cfg     Config
	// spt is the lazily-populated tree cache, one slot per member (by
	// idx). A bone is immutable once built, so lock-free lazy fills are
	// safe: concurrent Sends may duplicate a Dijkstra but always agree on
	// the result, and the first tree stored is the one every caller keeps.
	spt []atomic.Pointer[tree]
}

// tree is one member's shortest-path tree over the bone with the paths
// asked of it: paths[i] is the member-level path to member i, written on
// its first request and shared read-only after.
type tree struct {
	*graph.SPT
	paths []atomic.Pointer[[]topology.RouterID]
}

// BuildStats reports how much of an incremental build was carried over
// from the previous bone.
type BuildStats struct {
	// DomainsReused counts participant domains whose intra mesh was
	// copied from the previous bone; DomainsRebuilt counts those
	// recomputed from scratch. Domains with fewer than two members carry
	// no intra links and are counted in neither.
	DomainsReused, DomainsRebuilt int
}

// Build constructs the vN-Bone for a deployment's current membership
// from scratch.
func Build(svc *anycast.Service, igp *underlay.View, dep *anycast.Deployment, cfg Config) (*Bone, error) {
	b, _, err := BuildIncremental(svc, igp, dep, cfg, nil, nil)
	return b, err
}

// BuildIncremental constructs the vN-Bone, reusing the previous bone's
// per-domain intra meshes where they provably cannot have changed: a
// domain's mesh is a deterministic function of its membership, its
// intra-domain IGP distances, and the construction knobs, so any domain
// absent from dirty whose membership is unchanged keeps its links
// verbatim. Inter-domain state (peering tunnels, bootstrap tunnels,
// component bridging) is globally coupled and cheap, so it is always
// recomputed. The result is link-for-link identical to a from-scratch
// Build — the chaos harness's `bone` invariant compares exactly that.
//
// prev == nil (or a nil dirty map with a changed membership everywhere)
// degenerates to a full build. dirty marks domains whose intra topology
// changed since prev was built.
func BuildIncremental(svc *anycast.Service, igp *underlay.View, dep *anycast.Deployment, cfg Config, prev *Bone, dirty map[topology.ASN]bool) (*Bone, BuildStats, error) {
	if cfg.K <= 0 {
		cfg.K = 2
	}
	net := igp.Network()
	b := &Bone{
		net:     net,
		igp:     igp,
		dep:     dep,
		members: dep.Members(),
		idx:     map[topology.RouterID]int{},
		cfg:     cfg,
	}
	for i, m := range b.members {
		b.idx[m] = i
	}
	if len(b.members) == 0 {
		return nil, BuildStats{}, fmt.Errorf("vnbone: deployment %s has no members", dep.Addr)
	}

	stats := b.buildIntra(cfg, prev, dirty)
	b.buildInterPeering()
	if !cfg.disableBootstrap {
		if err := b.bootstrapIsolated(svc); err != nil {
			return nil, stats, err
		}
	}
	b.rebuildGraph()
	if !cfg.disableBootstrap {
		// §3.3.1's global rule: every domain ensures it is connected,
		// directly or indirectly, to the deployment's anchor (the default
		// provider for option 2). Bootstrap tunnels can land inside a
		// peripheral cluster, leaving islands; bridge each remaining
		// component to the anchor component with a configured tunnel.
		b.connectComponents()
	}
	if !b.Connected() && !cfg.DisableRepair && !cfg.disableBootstrap {
		return nil, stats, ErrPartitioned
	}
	return b, stats, nil
}

// reusableFor reports whether prev's intra meshes were built under the
// same construction knobs, a precondition for carrying them over.
func (b *Bone) reusableFor(cfg Config) bool {
	return b.cfg.K == cfg.K && b.cfg.BlindIntra == cfg.BlindIntra &&
		b.cfg.DisableRepair == cfg.DisableRepair
}

func sameMembers(a, b []topology.RouterID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// connectComponents bridges every bone component to the anchor component
// (the one holding the default domain's members under option 2, otherwise
// the largest) via the cheapest underlay member pair.
func (b *Bone) connectComponents() {
	for !b.Connected() {
		comps := b.Components()
		anchorIdx := 0
		if b.dep.Option == anycast.Option2 || b.dep.Option == anycast.OptionGIA {
			for i, c := range comps {
				for _, m := range c {
					if b.net.DomainOf(m) == b.dep.DefaultAS {
						anchorIdx = i
					}
				}
			}
		} else {
			for i, c := range comps {
				if len(c) > len(comps[anchorIdx]) {
					anchorIdx = i
				}
			}
		}
		bestCost := int64(graph.Inf)
		var bestA, bestB topology.RouterID = -1, -1
		for ci, c := range comps {
			if ci == anchorIdx {
				continue
			}
			for _, x := range c {
				for _, y := range comps[anchorIdx] {
					if d := b.igp.GroundTruthDist(x, y); d < bestCost {
						bestCost, bestA, bestB = d, x, y
					}
				}
			}
		}
		if bestA < 0 {
			return // physically unreachable: leave partitioned
		}
		b.links = append(b.links, Link{A: bestA, B: bestB, Cost: bestCost, Kind: KindBootstrap})
		b.rebuildGraph()
	}
}

// buildIntra wires each participant domain's internal virtual topology in
// ParticipatingASes order, copying domains verbatim from prev where
// nothing relevant changed (see BuildIncremental).
func (b *Bone) buildIntra(cfg Config, prev *Bone, dirty map[topology.ASN]bool) BuildStats {
	// Pre-index the previous bone's intra links per domain in ONE pass:
	// the old per-domain rescan of prev.links made the reuse path — the
	// path taken for almost every domain at scale — quadratic in the
	// number of participants.
	var prevIntra map[topology.ASN][]Link
	if prev != nil && prev.reusableFor(cfg) {
		prevIntra = make(map[topology.ASN][]Link)
		for _, l := range prev.links {
			if l.Kind == KindIntra {
				asn := b.net.DomainOf(l.A)
				prevIntra[asn] = append(prevIntra[asn], l)
			}
		}
	}

	var stats BuildStats
	for _, asn := range b.dep.ParticipatingASes() {
		members := b.dep.MembersIn(asn)
		if len(members) < 2 {
			continue
		}
		if prevIntra != nil && !dirty[asn] && sameMembers(prev.dep.MembersIn(asn), members) {
			// Unchanged membership, untouched intra topology, identical
			// knobs: the mesh (including any repair links) is byte-for-byte
			// what the previous build produced. prev's links were already
			// deduplicated and normalized when it was built.
			b.links = append(b.links, prevIntra[asn]...)
			stats.DomainsReused++
			continue
		}
		b.links = append(b.links, domainIntraMesh(b.igp, cfg, members)...)
		stats.DomainsRebuilt++
	}
	return stats
}

// domainIntraMesh computes one domain's intra virtual topology from
// scratch: the k-closest mesh plus partition repair (or the blind
// join-order tree). Links are returned normalized (A < B) and
// deduplicated, in deterministic order.
func domainIntraMesh(igp *underlay.View, cfg Config, members []topology.RouterID) []Link {
	var links []Link
	type pair struct{ a, b topology.RouterID }
	have := map[pair]bool{}
	addLink := func(x, y topology.RouterID, cost int64) {
		if x == y {
			return
		}
		if y < x {
			x, y = y, x
		}
		p := pair{x, y}
		if have[p] {
			return
		}
		have[p] = true
		links = append(links, Link{A: x, B: y, Cost: cost, Kind: KindIntra})
	}

	if cfg.BlindIntra {
		// Footnote-3 construction: no member discovery. The i-th
		// joiner resolves the anycast address, which lands on its
		// closest already-present member; the resulting topology is
		// a join-order tree (always connected, never repaired —
		// there is nothing to detect partitions with).
		for i := 1; i < len(members); i++ {
			m := members[i]
			best, bestDist := members[0], igp.IntraDist(m, members[0])
			for _, o := range members[1:i] {
				if d := igp.IntraDist(m, o); d < bestDist {
					best, bestDist = o, d
				}
			}
			addLink(m, best, bestDist)
		}
		return links
	}
	// k-closest neighbour selection.
	for _, m := range members {
		type cand struct {
			id   topology.RouterID
			dist int64
		}
		var cands []cand
		for _, o := range members {
			if o == m {
				continue
			}
			cands = append(cands, cand{o, igp.IntraDist(m, o)})
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].dist != cands[j].dist {
				return cands[i].dist < cands[j].dist
			}
			return cands[i].id < cands[j].id
		})
		k := cfg.K
		if k > len(cands) {
			k = len(cands)
		}
		for _, c := range cands[:k] {
			addLink(m, c.id, c.dist)
		}
	}
	if cfg.DisableRepair {
		return links
	}
	// Partition repair: cheapest link across components until one.
	for {
		comp := intraComponentsOf(links, members)
		if len(comp) <= 1 {
			break
		}
		bestCost := int64(graph.Inf)
		var bestA, bestB topology.RouterID = -1, -1
		for _, x := range comp[0] {
			for ci := 1; ci < len(comp); ci++ {
				for _, y := range comp[ci] {
					if d := igp.IntraDist(x, y); d < bestCost {
						bestCost, bestA, bestB = d, x, y
					}
				}
			}
		}
		if bestA < 0 {
			break // IGP itself partitioned; nothing to do
		}
		addLink(bestA, bestB, bestCost)
	}
	return links
}

// intraComponentsOf returns the connected components of one domain's
// members under the given (domain-local) intra links.
func intraComponentsOf(links []Link, members []topology.RouterID) [][]topology.RouterID {
	local := map[topology.RouterID]int{}
	for i, m := range members {
		local[m] = i
	}
	uf := graph.NewUnionFind(len(members))
	for _, l := range links {
		ia, okA := local[l.A]
		ib, okB := local[l.B]
		if okA && okB {
			uf.Union(ia, ib)
		}
	}
	byRoot := map[int][]topology.RouterID{}
	for i, m := range members {
		r := uf.Find(i)
		byRoot[r] = append(byRoot[r], m)
	}
	roots := make([]int, 0, len(byRoot))
	for r := range byRoot {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	out := make([][]topology.RouterID, 0, len(roots))
	for _, r := range roots {
		out = append(out, byRoot[r])
	}
	return out
}

// buildInterPeering establishes one tunnel across each physical
// inter-domain link whose two domains both participate, between the
// members closest to the link's two border routers.
func (b *Bone) buildInterPeering() {
	for _, l := range b.net.Inter {
		da, db := b.net.DomainOf(l.From), b.net.DomainOf(l.To)
		// MembersIn copies; most links touch a non-participant.
		if !b.dep.HasMembersIn(da) || !b.dep.HasMembersIn(db) {
			continue
		}
		ea, ca, okA := b.igp.ClosestIn(l.From, b.dep.MembersIn(da))
		eb, cb, okB := b.igp.ClosestIn(l.To, b.dep.MembersIn(db))
		if !okA || !okB {
			continue
		}
		b.links = append(b.links, Link{
			A: ea, B: eb,
			Cost: ca + l.Latency + cb,
			Kind: KindTunnel,
		})
	}
}

// bootstrapIsolated gives every participant domain that ended up with no
// inter-domain tunnel (and is not alone in the deployment) a first tunnel
// via the anycast bootstrap.
func (b *Bone) bootstrapIsolated(svc *anycast.Service) error {
	if len(b.dep.ParticipatingASes()) < 2 {
		return nil
	}
	hasTunnel := map[topology.ASN]bool{}
	for _, l := range b.links {
		if l.Kind != KindIntra {
			hasTunnel[b.net.DomainOf(l.A)] = true
			hasTunnel[b.net.DomainOf(l.B)] = true
		}
	}
	for _, asn := range b.dep.ParticipatingASes() {
		if hasTunnel[asn] {
			continue
		}
		if (b.dep.Option == anycast.Option2 || b.dep.Option == anycast.OptionGIA) && asn == b.dep.DefaultAS {
			// The default domain is the anchor others bootstrap toward.
			continue
		}
		members := b.dep.MembersIn(asn)
		res, err := svc.Bootstrap(b.dep, asn, members[0])
		if err != nil {
			return fmt.Errorf("vnbone: bootstrap for AS%d: %w", asn, err)
		}
		b.links = append(b.links, Link{
			A: members[0], B: res.Member,
			Cost: res.Cost,
			Kind: KindBootstrap,
		})
		hasTunnel[asn] = true
		hasTunnel[b.net.DomainOf(res.Member)] = true
	}
	return nil
}

func (b *Bone) rebuildGraph() {
	b.g = graph.New(len(b.members))
	for _, l := range b.links {
		b.g.AddBiEdge(b.idx[l.A], b.idx[l.B], l.Cost)
	}
	b.spt = make([]atomic.Pointer[tree], len(b.members))
}

// Members returns the bone's member routers in id order.
func (b *Bone) Members() []topology.RouterID {
	return append([]topology.RouterID(nil), b.members...)
}

// Links returns the virtual links.
func (b *Bone) Links() []Link {
	return append([]Link(nil), b.links...)
}

// Connected reports whether the bone is a single component.
func (b *Bone) Connected() bool { return b.g.Connected() }

// Components returns the member components (for the E8 ablation).
func (b *Bone) Components() [][]topology.RouterID {
	comps := b.g.Components()
	out := make([][]topology.RouterID, len(comps))
	for i, c := range comps {
		for _, x := range c {
			out[i] = append(out[i], b.members[x])
		}
	}
	return out
}

func (b *Bone) sptFrom(m topology.RouterID) (*tree, bool) {
	i, ok := b.idx[m]
	if !ok {
		return nil, false
	}
	if t := b.spt[i].Load(); t != nil {
		return t, true
	}
	// Concurrent fills may race and both run Dijkstra; the trees are
	// equal, and the loser adopts the winner's so paths are kept once.
	t := &tree{SPT: b.g.Dijkstra(i), paths: make([]atomic.Pointer[[]topology.RouterID], len(b.members))}
	if !b.spt[i].CompareAndSwap(nil, t) {
		t = b.spt[i].Load()
	}
	return t, true
}

// Dist returns the bone-path cost between two members, or graph.Inf.
func (b *Bone) Dist(x, y topology.RouterID) int64 {
	t, ok := b.sptFrom(x)
	if !ok {
		return graph.Inf
	}
	iy, ok := b.idx[y]
	if !ok {
		return graph.Inf
	}
	return t.Dist[iy]
}

// Path returns the member-level bone path x..y, or nil when either is not
// a member or y is unreachable. The path is shared and read-only: the
// first request for the pair writes it from the tree's parent array into
// one exact-size slice kept on x's tree, and every later one returns that
// slice without allocating.
func (b *Bone) Path(x, y topology.RouterID) []topology.RouterID {
	t, ok := b.sptFrom(x)
	if !ok {
		return nil
	}
	iy, ok := b.idx[y]
	if !ok || t.Dist[iy] >= graph.Inf {
		return nil
	}
	if p := t.paths[iy].Load(); p != nil {
		return *p
	}
	n := 1
	for i := iy; t.Parent[i] >= 0; i = t.Parent[i] {
		n++
	}
	out := make([]topology.RouterID, n)
	for i, k := iy, n-1; k >= 0; i, k = t.Parent[i], k-1 {
		out[k] = b.members[i]
	}
	if !t.paths[iy].CompareAndSwap(nil, &out) {
		return *t.paths[iy].Load()
	}
	return out
}

// Congruence measures how close the virtual topology hews to the physical
// one: the mean over member pairs of bone-distance divided by ground-truth
// underlay distance (≥ 1; 1 is perfectly congruent). Unreachable pairs are
// skipped; NaN is returned when no pair qualifies.
func (b *Bone) Congruence() float64 {
	var sum float64
	var n int
	for i, x := range b.members {
		for _, y := range b.members[i+1:] {
			bd := b.Dist(x, y)
			gd := b.igp.GroundTruthDist(x, y)
			if bd >= graph.Inf || gd <= 0 {
				continue
			}
			sum += float64(bd) / float64(gd)
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}
