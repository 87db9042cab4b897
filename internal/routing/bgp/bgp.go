// Package bgp implements an AS-level path-vector protocol with
// Gao-Rexford business policy, the inter-domain substrate under both of
// the paper's anycast deployment options (§3.2):
//
//   - option 1: participating ASes all originate the same non-aggregatable
//     anycast host prefix, which propagates globally like any route, so
//     each AS's policy delivers to its preferred (typically closest)
//     participant;
//   - option 2: the anycast address lives inside the default ISP's
//     aggregate, so non-participants need no new routes at all, and a
//     participant can additionally advertise the host prefix to chosen
//     neighbours with NO_EXPORT semantics ("Q peers with Y to advertise
//     its path for the anycast address").
//
// The engine computes the stable routing by synchronous fixpoint
// iteration: in each round every AS selects best routes from the adverts
// of the previous round and re-exports under Gao-Rexford rules, until
// nothing changes. An AS's selection is a function of its neighbours'
// previous-round routes, so a round re-evaluates only the ASes next to a
// change (see fixpointLocked). For policy-safe configurations (customer
// routes preferred, no peer/provider transit) this converges and is
// deterministic.
//
// Convergence is lazy and per-prefix: distinct prefixes never interact
// in the fixpoint (an AS's decision for prefix p reads only the previous
// round's routes for p), so the global fixpoint factors into independent
// per-prefix fixpoints. Queries converge exactly the prefixes they
// touch — a longest-prefix lookup converges only the prefixes on its
// match chain — which is what makes 10k+-domain internets queryable:
// converging every prefix at every AS is quadratic in domains, while a
// forwarding walk needs only a handful of prefixes.
package bgp

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/rib"
	"github.com/evolvable-net/evolve/internal/topology"
)

// Local preference derived from the relationship to the advertising
// neighbour: revenue-bearing customer routes beat free peer routes beat
// paid provider routes.
const (
	prefCustomer = 300
	prefPeer     = 200
	prefProvider = 100
	prefSelf     = 1000
)

// The preference tiers in ascending order, the one-byte form of
// LocalPref a routeRec stores; tier 0 means "no route".
const (
	tierNone uint8 = iota
	tierProvider
	tierPeer
	tierCustomer
	tierSelf
)

var tierPref = [...]int{
	tierNone:     0,
	tierProvider: prefProvider,
	tierPeer:     prefPeer,
	tierCustomer: prefCustomer,
	tierSelf:     prefSelf,
}

func tierFor(rel topology.Rel) uint8 {
	switch rel {
	case topology.RelProvider: // neighbour is our customer? No:
		// Rel is *our* relationship toward the neighbour. If we are the
		// provider, the neighbour is our customer.
		return tierCustomer
	case topology.RelCustomer:
		return tierProvider
	default:
		return tierPeer
	}
}

func prefFor(rel topology.Rel) int { return tierPref[tierFor(rel)] }

// Route is one BGP route as held by an AS.
type Route struct {
	Prefix addr.Prefix
	// Path is the AS path from the holder (exclusive) to the origin
	// (inclusive); it is empty for self-originated routes. Path[0] is the
	// next-hop AS. A route returned by a System shares its Path with the
	// System's converged state: read-only.
	Path []topology.ASN
	// LocalPref encodes the Gao-Rexford preference tier.
	LocalPref int
	// NoExport marks a route that must not be re-advertised (the BGP
	// NO_EXPORT community), used for option-2 selective peering adverts.
	NoExport bool
	// FromCustomer records whether the route was learned from a customer,
	// which controls export policy.
	FromCustomer bool
}

// Origin returns the originating AS, or the holder's own ASN sentinel -1
// meaning "self" when the path is empty.
func (r Route) Origin() topology.ASN {
	if len(r.Path) == 0 {
		return -1
	}
	return r.Path[len(r.Path)-1]
}

// NextHop returns the next-hop AS, or -1 for self-originated routes.
func (r Route) NextHop() topology.ASN {
	if len(r.Path) == 0 {
		return -1
	}
	return r.Path[0]
}

func (r Route) hasLoop(asn topology.ASN) bool { return slices.Contains(r.Path, asn) }

// prefers is the decision process's one comparison, shared by the
// fixpoint and the session speakers: a candidate of preference rank,
// AS-path length n and advertising neighbour adv beats the incumbent on
// higher rank, then shorter path, then lowest advertiser. rank is
// LocalPref or the tier byte — both ascend with the Gao-Rexford
// preference — and adv an ASN or a position in the sorted net.ASNs(), as
// long as one call compares like with like.
func prefers[A topology.ASN | int32](rank, n int, adv A, curRank, curN int, curAdv A) bool {
	if rank != curRank {
		return rank > curRank
	}
	if n != curN {
		return n < curN
	}
	return adv < curAdv
}

// better reports whether a beats b under the decision process:
// local-pref, then AS-path length, then lowest next hop.
func better(a, b Route) bool {
	return prefers(a.LocalPref, len(a.Path), a.NextHop(), b.LocalPref, len(b.Path), b.NextHop())
}

// origination is a prefix an AS injects into BGP.
type origination struct {
	prefix addr.Prefix
	// exportTo, when non-nil, restricts the advert to the listed
	// neighbours and tags it NO_EXPORT.
	exportTo map[topology.ASN]bool
}

// routeRec is one AS's selected route for one prefix, without pointers:
// the AS path is arena[off:off+n] of the owning prefixState.
type routeRec struct {
	off   uint32
	n     uint16 // path length; 0 for a self-originated route
	tier  uint8  // tierNone when the AS holds no route
	flags uint8
}

const (
	flagNoExport uint8 = 1 << iota
	flagFromCustomer
)

// prefixState is the converged routing for one prefix: each AS's
// selected route, indexed by the AS's position in net.ASNs(), and the one
// arena their paths live in. Neither slice holds a pointer, so the
// collector never scans a converged state. States are built lazily per
// prefix, immutable once built, and discarded whenever something that
// could affect the prefix changes.
type prefixState struct {
	recs  []routeRec
	arena []topology.ASN
}

// route returns the route of the AS at position i. Route.Path is a
// capacity-clipped view of the arena: read-only, and an append to it
// copies.
func (st *prefixState) route(p addr.Prefix, i int32) (Route, bool) {
	rec := st.recs[i]
	if rec.tier == tierNone {
		return Route{}, false
	}
	r := Route{
		Prefix:       p,
		LocalPref:    tierPref[rec.tier],
		NoExport:     rec.flags&flagNoExport != 0,
		FromCustomer: rec.flags&flagFromCustomer != 0,
	}
	if rec.n > 0 {
		end := rec.off + uint32(rec.n)
		r.Path = st.arena[rec.off:end:end]
	}
	return r, true
}

// nbrRef is one entry of an AS's dense neighbour table: what the AS needs
// to know about a neighbour to pull that neighbour's advert.
type nbrRef struct {
	idx int32 // the neighbour's position in net.ASNs()
	// tier and flags (flagFromCustomer or none) are what the AS stamps on
	// a route learned from this neighbour.
	tier  uint8
	flags uint8
	// downhill: the neighbour is the AS's provider, so it exports its
	// peer- and provider-learned routes here too, not only customer and
	// own ones.
	downhill bool
}

// stagedRec is a selection made in the current round, committed when the
// round ends.
type stagedRec struct {
	idx int32
	rec routeRec
}

// System is the BGP of a whole internet. Queries are safe for concurrent
// use (the lazy re-convergence they trigger serializes internally);
// origination changes and Refresh serialize against them.
type System struct {
	net *topology.Network

	// mu guards everything below: queries hold it for read (after an
	// upgrade-to-write pass when re-convergence is pending), mutators for
	// write.
	mu sync.RWMutex
	// originated[asn] lists the AS's injected prefixes in injection order.
	originated map[topology.ASN][]origination
	// states holds the lazily-converged per-prefix routing.
	states map[addr.Prefix]*prefixState
	// index longest-prefix-matches over every prefix originated anywhere;
	// the value lists the originating AS once per live origination, so
	// withdrawal of the last one removes the entry. Lookup walks its match
	// chain instead of a per-AS FIB — per-AS tables would be #prefixes ×
	// #ASes state at scale.
	index rib.Table4[[]topology.ASN]
	// neighbors caches topology adjacency, each neighbour's Links sorted
	// by (From, To).
	neighbors map[topology.ASN][]topology.ASNeighbor

	// The dense view of net and neighbors the fixpoint runs on, rebuilt by
	// reindexLocked: asns is net.ASNs(), asIdx its inverse, nbrs[i] the
	// neighbours of asns[i] in ascending position.
	asns  []topology.ASN
	asIdx map[topology.ASN]int32
	nbrs  [][]nbrRef

	// Scratch of fixpointLocked, reused across prefixes; between runs
	// marked is all false and every pOrigs[i] is empty.
	dirty, next []int32
	marked      []bool
	stage       []stagedRec
	pOrigs      [][]origination
	arena       []topology.ASN
}

// NewSystem builds the BGP system; every domain originates its own
// aggregate. Queries converge lazily; calling Converge first is optional.
func NewSystem(net *topology.Network) *System {
	s := &System{
		net:        net,
		originated: map[topology.ASN][]origination{},
	}
	s.reindexLocked()
	for _, asn := range net.ASNs() {
		s.Originate(asn, net.Domain(asn).Prefix)
	}
	return s
}

// reindexLocked re-reads the topology's inter-domain adjacency, rebuilds
// the dense tables over it and drops every converged state (their records
// are positions in the old tables).
func (s *System) reindexLocked() {
	s.neighbors = s.net.AllNeighbors()
	s.states = map[addr.Prefix]*prefixState{}
	s.asns = s.net.ASNs()
	n := len(s.asns)
	s.asIdx = make(map[topology.ASN]int32, n)
	for i, asn := range s.asns {
		s.asIdx[asn] = int32(i)
	}
	// One backing array for every table: adjacency is symmetric, so an
	// AS's table is as long as its own neighbour list.
	edges := 0
	for _, nbs := range s.neighbors {
		edges += len(nbs)
	}
	refs := make([]nbrRef, 0, edges)
	s.nbrs = make([][]nbrRef, n)
	for i, asn := range s.asns {
		end := len(refs) + len(s.neighbors[asn])
		s.nbrs[i] = refs[len(refs):len(refs):end]
		refs = refs[:end]
	}
	// Transposed from the sender's side: walking senders in position
	// order leaves every receiver's table in ascending sender position —
	// the order the round-robin fixpoint filled an inbox in.
	for i, from := range s.asns {
		for _, nb := range s.neighbors[from] {
			if links := nb.Links; len(links) > 1 {
				sort.Slice(links, func(a, b int) bool {
					if links[a].From != links[b].From {
						return links[a].From < links[b].From
					}
					return links[a].To < links[b].To
				})
			}
			rel := nb.Rel // from's relationship toward nb
			ref := nbrRef{
				idx:      int32(i),
				tier:     tierFor(rel.Invert()),
				downhill: rel == topology.RelProvider,
			}
			if ref.tier == tierCustomer {
				ref.flags = flagFromCustomer
			}
			to := s.asIdx[nb.ASN]
			s.nbrs[to] = append(s.nbrs[to], ref)
		}
	}
	s.marked = make([]bool, n)
	s.pOrigs = make([][]origination, n)
}

// addOrigLocked registers an origination and invalidates exactly the
// state the new advert can affect: prefix p's.
func (s *System) addOrigLocked(asn topology.ASN, o origination) {
	s.originated[asn] = append(s.originated[asn], o)
	at, _ := s.index.Exact(o.prefix)
	s.index.Insert(o.prefix, append(at, asn))
	delete(s.states, o.prefix)
}

// removeOrigsLocked removes every origination of p at asn, returning the
// removed entries and maintaining the index and state invalidation.
func (s *System) removeOrigsLocked(asn topology.ASN, p addr.Prefix) []origination {
	var removed []origination
	out := s.originated[asn][:0]
	for _, o := range s.originated[asn] {
		if o.prefix == p {
			removed = append(removed, o)
			continue
		}
		out = append(out, o)
	}
	s.originated[asn] = out
	if len(removed) > 0 {
		at, _ := s.index.Exact(p)
		var rest []topology.ASN
		for _, a := range at {
			if a != asn {
				rest = append(rest, a)
			}
		}
		if len(rest) > 0 {
			s.index.Insert(p, rest)
		} else {
			s.index.Delete(p)
		}
		delete(s.states, p)
	}
	return removed
}

// Originate injects a prefix at asn with normal global propagation.
func (s *System) Originate(asn topology.ASN, p addr.Prefix) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.addOrigLocked(asn, origination{prefix: p})
}

// OriginateTo injects a prefix at asn advertised only to the given
// neighbours, tagged NO_EXPORT — the paper's option-2 "peer to advertise
// the anycast route" arrangement.
func (s *System) OriginateTo(asn topology.ASN, p addr.Prefix, neighbors ...topology.ASN) {
	s.mu.Lock()
	defer s.mu.Unlock()
	scope := map[topology.ASN]bool{}
	for _, n := range neighbors {
		scope[n] = true
	}
	s.addOrigLocked(asn, origination{prefix: p, exportTo: scope})
}

// Withdraw removes all originations of p at asn; it reports whether any
// existed.
func (s *System) Withdraw(asn topology.ASN, p addr.Prefix) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.removeOrigsLocked(asn, p)) > 0
}

// Refresh re-reads the topology's inter-domain adjacency (after link
// failures or repairs), rebuilds the index tables over it and forces
// re-convergence on the next query. Originations are preserved.
func (s *System) Refresh() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reindexLocked()
}

// SuspendOriginations temporarily removes every origination of p at asn
// (normal and selective alike), returning a restore function that puts
// them back verbatim. Used by the anycast bootstrap, which must observe
// the routing state as it was before the suspending domain began
// advertising.
func (s *System) SuspendOriginations(asn topology.ASN, p addr.Prefix) (restore func(), found bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	saved := s.removeOrigsLocked(asn, p)
	return func() {
		if len(saved) == 0 {
			return
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, o := range saved {
			s.addOrigLocked(asn, o)
		}
	}, len(saved) > 0
}

// exportsTo decides whether holder may advertise route r to the neighbour
// with relationship rel (holder's relationship toward the neighbour),
// under Gao-Rexford: customer-learned and self-originated routes go to
// everyone; peer- and provider-learned routes go only to customers.
func exportsTo(r Route, rel topology.Rel) bool {
	return exportable(r.NoExport, len(r.Path) == 0, r.FromCustomer, rel == topology.RelProvider)
}

// exportable is the export policy itself, over the four facts it reads:
// a NO_EXPORT route goes nowhere; an own or customer-learned route goes to
// everyone; a peer- or provider-learned one only down to a customer.
func exportable(noExport, own, fromCustomer, toCustomer bool) bool {
	return !noExport && (own || fromCustomer || toCustomer)
}

// Converge materialises the routing for every originated prefix. It is
// idempotent; queries converge what they need lazily, so calling it is
// only necessary when a caller wants the full cost paid up front.
func (s *System) Converge() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.convergeAllLocked()
}

func (s *System) convergeAllLocked() {
	// Walk order (bit order over the index) is deterministic.
	var prefixes []addr.Prefix
	s.index.Walk(func(p addr.Prefix, _ []topology.ASN) bool {
		prefixes = append(prefixes, p)
		return true
	})
	for _, p := range prefixes {
		s.convergePrefixLocked(p)
	}
}

// convergePrefixLocked makes sure p's converged state is cached. A prefix
// nobody originates gets none: a query that saw p in the index before a
// withdrawal retries and no longer finds it.
func (s *System) convergePrefixLocked(p addr.Prefix) {
	if _, ok := s.states[p]; ok {
		return
	}
	if _, ok := s.index.Exact(p); !ok {
		return
	}
	s.states[p], _ = s.fixpointLocked(p)
}

// fixpointLocked runs the synchronous fixpoint restricted to one prefix:
// in each round an AS selects its best route for p from what its
// neighbours held after the previous round and could export to it under
// Gao-Rexford rules, until a round changes nothing. It returns the
// converged state and the number of rounds, the unchanged one included.
//
// An AS's selection reads only its neighbours' previous-round routes and
// the (fixed) originations of p, so it can differ from its own previous
// selection only when a neighbour's route changed in the previous round.
// A round therefore re-evaluates just those ASes; round 1, run against
// the empty state, evaluates the originators and the targets of their
// selective adverts. The skipped ASes would have selected what they
// already hold, so every round's state, and the round count, equal the
// evaluate-everyone iteration's.
//
// An evaluated AS pulls its candidates instead of being pushed an inbox:
// neighbours in ascending position, each one's ordinary advert before its
// selective ones — the order the inbox was filled in, so the first-seen
// tie-break picks the same winner. (The AS's own originations sat at its
// own position in the inbox; they beat every learned route on local
// preference, so where they are tried does not matter.) A candidate is
// its (tier, length, advertiser) and the advertiser's stored path; a path
// is written only for a winner that differs from the AS's previous
// selection. Selections are staged and committed when the round ends, so
// every evaluation of a round reads the previous round's state.
func (s *System) fixpointLocked(p addr.Prefix) (*prefixState, int) {
	n := len(s.asns)
	recs := make([]routeRec, n)
	arena := s.arena[:0]
	dirty, next := s.dirty[:0], s.next[:0]

	// pOrigs[i]: the originations of p at asns[i], in injection order.
	origins, _ := s.index.Exact(p)
	for _, asn := range origins {
		i, ok := s.asIdx[asn]
		if !ok || s.marked[i] {
			continue
		}
		s.marked[i] = true
		dirty = append(dirty, i)
		for _, o := range s.originated[asn] {
			if o.prefix == p {
				s.pOrigs[i] = append(s.pOrigs[i], o)
			}
		}
	}
	originators := len(dirty)
	for _, i := range dirty[:originators] {
		for _, o := range s.pOrigs[i] {
			if o.exportTo == nil {
				continue
			}
			for _, nb := range s.nbrs[i] {
				if !s.marked[nb.idx] && o.exportTo[s.asns[nb.idx]] {
					s.marked[nb.idx] = true
					dirty = append(dirty, nb.idx)
				}
			}
		}
	}

	rounds := 0
	for {
		rounds++
		stage := s.stage[:0]
		for _, i := range dirty {
			s.marked[i] = false
			win, adv := s.selectLocked(i, recs, arena)
			prev := recs[i]
			// The winner's path after its next hop; a selective advert's
			// path is the advertiser alone.
			var tail []topology.ASN
			if win.n > 1 {
				r := recs[adv]
				tail = arena[r.off : r.off+uint32(r.n)]
			}
			if prev.tier == win.tier && prev.flags == win.flags && prev.n == win.n {
				if win.n == 0 {
					continue
				}
				was := arena[prev.off : prev.off+uint32(prev.n)]
				if was[0] == s.asns[adv] && slices.Equal(was[1:], tail) {
					continue
				}
			}
			if win.n > 0 {
				win.off = uint32(len(arena))
				arena = append(append(arena, s.asns[adv]), tail...)
			}
			stage = append(stage, stagedRec{idx: i, rec: win})
		}
		s.stage = stage
		if len(stage) == 0 {
			break
		}
		if rounds > 4*n+8 {
			// Gao-Rexford-safe configurations converge in O(diameter);
			// this bound only trips on genuinely unsafe policy.
			panic(fmt.Sprintf("bgp: no convergence after %d rounds", rounds))
		}
		next = next[:0]
		for _, c := range stage {
			recs[c.idx] = c.rec
			for _, nb := range s.nbrs[c.idx] {
				if !s.marked[nb.idx] {
					s.marked[nb.idx] = true
					next = append(next, nb.idx)
				}
			}
		}
		dirty, next = next, dirty
	}

	for _, asn := range origins {
		if i, ok := s.asIdx[asn]; ok {
			s.pOrigs[i] = s.pOrigs[i][:0]
		}
	}
	s.dirty, s.next, s.arena = dirty, next, arena

	// The scratch arena also holds the paths of superseded selections;
	// the state keeps an exact-size copy of the live ones.
	total := 0
	for i := range recs {
		total += int(recs[i].n)
	}
	st := &prefixState{recs: recs, arena: make([]topology.ASN, 0, total)}
	for i := range recs {
		r := &recs[i]
		if r.n > 0 {
			path := arena[r.off : r.off+uint32(r.n)]
			r.off = uint32(len(st.arena))
			st.arena = append(st.arena, path...)
		}
	}
	return st, rounds
}

// selectLocked is the decision process of the AS at position i over the
// previous round's recs: its selection (path offset unset) and the
// position of the AS it was learned from, -1 for none or self.
func (s *System) selectLocked(i int32, recs []routeRec, arena []topology.ASN) (win routeRec, adv int32) {
	adv = -1
	if own := s.pOrigs[i]; len(own) > 0 {
		win.tier = tierSelf
		if own[0].exportTo != nil {
			win.flags = flagNoExport
		}
		return win, adv
	}
	self := s.asns[i]
	for _, nb := range s.nbrs[i] {
		beats := func(n uint16) bool {
			return prefers(int(nb.tier), int(n), nb.idx, int(win.tier), int(win.n), adv)
		}
		r := recs[nb.idx]
		if r.tier != tierNone &&
			exportable(r.flags&flagNoExport != 0, r.n == 0, r.flags&flagFromCustomer != 0, nb.downhill) &&
			beats(r.n+1) && !slices.Contains(arena[r.off:r.off+uint32(r.n)], self) {
			win = routeRec{n: r.n + 1, tier: nb.tier, flags: nb.flags}
			adv = nb.idx
		}
		for _, o := range s.pOrigs[nb.idx] {
			if o.exportTo != nil && o.exportTo[self] && beats(1) {
				win = routeRec{n: 1, tier: nb.tier, flags: nb.flags | flagNoExport}
				adv = nb.idx
			}
		}
	}
	return win, adv
}

// RouteEqual reports whether two routes are identical in every
// attribute — the comparison the session-vs-fixpoint differentials use.
func RouteEqual(a, b Route) bool { return routeEqual(a, b) }

func routeEqual(a, b Route) bool {
	return a.Prefix == b.Prefix && a.LocalPref == b.LocalPref &&
		a.NoExport == b.NoExport && a.FromCustomer == b.FromCustomer &&
		slices.Equal(a.Path, b.Path)
}

// convergeMissing is the write-lock pass of a query that found p's state
// missing. The query then retries from the top: a mutator may have
// invalidated again between this Unlock and its RLock.
func (s *System) convergeMissing(p addr.Prefix) {
	s.mu.Lock()
	s.convergePrefixLocked(p)
	s.mu.Unlock()
}

// BestRoute returns asn's selected route for exactly prefix p.
func (s *System) BestRoute(asn topology.ASN, p addr.Prefix) (Route, bool) {
	for {
		s.mu.RLock()
		st, converged := s.states[p]
		if converged {
			var r Route
			i, ok := s.asIdx[asn]
			if ok {
				r, ok = st.route(p, i)
			}
			s.mu.RUnlock()
			return r, ok
		}
		_, originated := s.index.Exact(p)
		s.mu.RUnlock()
		if !originated {
			return Route{}, false
		}
		s.convergeMissing(p)
	}
}

// chainLink is one prefix of a destination's match chain and its
// converged state, nil while the prefix is unconverged.
type chainLink struct {
	prefix addr.Prefix
	st     *prefixState
}

// Toward is the routing toward one destination, resolved once: the
// prefixes on the destination's match chain, longest first, each with its
// converged state, and the AS-position and adjacency tables those states
// were built on. States are immutable and reindexLocked replaces both
// tables instead of editing them, so a view answers from one consistent
// snapshot — with no lock and no trie walk — however the system changes
// after it was taken, and never indexes a state with a position from
// another table. A walk resolves its destination once and asks the view at
// every AS hop. The zero value is empty; System.Toward fills it. Not safe
// for concurrent use.
type Toward struct {
	sys       *System
	dst       addr.V4
	asIdx     map[topology.ASN]int32
	neighbors map[topology.ASN][]topology.ASNeighbor
	// The chain is chain[:n], or chain followed by spill when nesting runs
	// deeper than the array: held inline so a view on the stack (Lookup's)
	// allocates nothing.
	n     int
	chain [4]chainLink
	spill []chainLink
}

func (t *Toward) link(k int) *chainLink {
	if k < len(t.chain) {
		return &t.chain[k]
	}
	return &t.spill[k-len(t.chain)]
}

// Toward resolves dst's match chain into t under one read lock. It
// converges nothing: t.Lookup converges the prefixes it reaches.
func (s *System) Toward(dst addr.V4, t *Toward) {
	t.sys, t.dst, t.n, t.spill = s, dst, 0, t.spill[:0]
	s.mu.RLock()
	t.asIdx, t.neighbors = s.asIdx, s.neighbors
	s.index.Matches(dst, func(p addr.Prefix, _ []topology.ASN) bool {
		if t.n >= len(t.chain) {
			t.spill = append(t.spill, chainLink{})
		}
		t.n++
		*t.link(t.n - 1) = chainLink{p, s.states[p]}
		return true
	})
	s.mu.RUnlock()
}

// Lookup longest-prefix-matches the view's destination in asn's routing:
// the most specific prefix on the chain for which asn holds a route. A
// prefix it reaches unconverged is converged and the view resolved again
// (a mutator may have re-indexed in between); prefixes past the answer
// stay lazy.
func (t *Toward) Lookup(asn topology.ASN) (Route, bool) {
	i, known := t.asIdx[asn]
	for k := 0; known && k < t.n; k++ {
		c := t.link(k)
		if c.st == nil {
			t.sys.convergeMissing(c.prefix)
			t.sys.Toward(t.dst, t)
			return t.Lookup(asn)
		}
		if r, ok := c.st.route(c.prefix, i); ok {
			return r, true
		}
	}
	return Route{}, false
}

// Resolves reports whether t is a view of dst.
func (t *Toward) Resolves(dst addr.V4) bool { return t.sys != nil && t.dst == dst }

// LinksBetween returns every border link between adjacent domains a and
// b, oriented From-in-a and sorted by (From, To). Empty when not
// adjacent. The slice is shared with the system: read-only.
func (t *Toward) LinksBetween(a, b topology.ASN) []topology.InterLink {
	return linksBetween(t.neighbors, a, b)
}

// linksBetween finds b in a's ASN-sorted neighbour list.
func linksBetween(neighbors map[topology.ASN][]topology.ASNeighbor, a, b topology.ASN) []topology.InterLink {
	nbs := neighbors[a]
	if k, ok := slices.BinarySearchFunc(nbs, b, func(nb topology.ASNeighbor, b topology.ASN) int {
		return cmp.Compare(nb.ASN, b)
	}); ok {
		return nbs[k].Links
	}
	return nil
}

// Lookup longest-prefix-matches dst in asn's routing: the most specific
// prefix on dst's match chain for which asn holds a route. Only prefixes
// on the chain are converged, never the whole table, and a warm lookup
// takes one read lock and allocates nothing.
func (s *System) Lookup(asn topology.ASN, dst addr.V4) (Route, bool) {
	var t Toward
	s.Toward(dst, &t)
	return t.Lookup(asn)
}

// TableSize returns the number of prefixes in asn's loc-RIB (routing-state
// experiments, §3.2 scalability discussion).
func (s *System) TableSize(asn topology.ASN) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, known := s.asIdx[asn]
	if !known {
		return 0
	}
	s.convergeAllLocked()
	n := 0
	for _, st := range s.states {
		if st.recs[i].tier != tierNone {
			n++
		}
	}
	return n
}

// ASPath returns the domain-level path a packet from inside `from`
// follows toward dst, starting with from itself. ok is false when from
// has no route.
func (s *System) ASPath(from topology.ASN, dst addr.V4) ([]topology.ASN, bool) {
	var t Toward
	s.Toward(dst, &t)
	r, ok := t.Lookup(from)
	if !ok {
		return nil, false
	}
	path := append([]topology.ASN{from}, r.Path...)
	// Downstream ASes may match a more specific prefix than `from` did
	// (e.g. a NO_EXPORT host route covering an aggregate another AS
	// holds). Walk hop by hop and splice when the next AS diverges.
	maxLen := 2*len(t.asIdx) + 2 // guards against pathological splicing
	for i := 0; i+2 < len(path) && len(path) <= maxLen; i++ {
		nr, ok := t.Lookup(path[i+1])
		if !ok || nr.NextHop() == -1 {
			return path[:i+2], true
		}
		if nr.NextHop() != path[i+2] {
			// Splice in that AS's actual continuation.
			path = append(path[:i+2], nr.Path...)
		}
	}
	return path, true
}

// LinksBetween is Toward.LinksBetween on the system's current adjacency.
func (s *System) LinksBetween(a, b topology.ASN) []topology.InterLink {
	s.mu.RLock()
	neighbors := s.neighbors
	s.mu.RUnlock()
	return linksBetween(neighbors, a, b)
}

// LinkBetween returns the deterministic first border link between
// adjacent domains a and b, oriented From-in-a. ok is false when they are
// not adjacent. Forwarding walks prefer LinksBetween plus hot-potato
// selection; this remains for callers needing any single representative
// link.
func (s *System) LinkBetween(a, b topology.ASN) (topology.InterLink, bool) {
	links := s.LinksBetween(a, b)
	if len(links) == 0 {
		return topology.InterLink{}, false
	}
	return links[0], true
}
