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
// The engine computes the stable routing — what a synchronous fixpoint
// of select-and-re-export rounds converges to — without running rounds.
// Under Gao-Rexford policy an AS's route falls in a tier by whom it was
// learned from, and each tier reads only the ones above it: a customer
// route extends a customer's own or customer route, a peer route a
// peer's own or customer route, a provider route whatever the provider
// selected. So a prefix's state settles its origins, the customer tier
// (an upward sweep through the origins' provider ancestry) and the peer
// tier (one peer hop off those) when it is created, and every other AS,
// which can only hold a provider route, is resolved the first time it is
// asked for by pulling from its providers (see prefixState). For
// policy-safe configurations (customer routes preferred, no peer/provider
// transit, an acyclic provider relation) the stable routing is unique and
// deterministic, so it is the fixpoint's answer.
//
// States are lazy and per-prefix: distinct prefixes never interact (an
// AS's decision for prefix p reads only routes for p). Queries create
// exactly the prefixes they touch — a longest-prefix lookup only the
// prefixes on its match chain — and resolve exactly the ASes they ask
// about, which is what makes 10k+-domain internets queryable: routing
// every prefix at every AS is quadratic in domains, while a forwarding
// walk needs a handful of prefixes at the handful of ASes it crosses.
package bgp

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

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

// loops reports whether an AS path already crosses asn, so a route along
// it would loop back through asn: the check every decision process and
// every export makes before a path reaches asn.
func loops(path []topology.ASN, asn topology.ASN) bool { return slices.Contains(path, asn) }

// prefers is the decision process's one comparison, shared by the prefix
// states and the session speakers: a candidate of preference rank,
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

// ownRoute is the rule that turns an AS's originations, in injection
// order, into its own route for p: the first origination of p is the
// route, NO_EXPORT when that origination is selective. ok is false when
// the AS does not originate p.
func ownRoute(origs []origination, p addr.Prefix) (noExport, ok bool) {
	for _, o := range origs {
		if o.prefix == p {
			return o.exportTo != nil, true
		}
	}
	return false, false
}

// routeRec is one AS's selected route for one prefix, without pointers:
// the AS path is arena[off:off+n] of the owning prefixState, which
// stores the record packed into one atomic word.
type routeRec struct {
	off   uint32
	n     uint16 // path length; 0 for a self-originated route
	tier  uint8  // tierNone when the AS holds no route
	flags uint8
}

const (
	flagNoExport uint8 = 1 << iota
	flagFromCustomer
	// flagResolved marks a record that holds the AS's selection, "no
	// route" included; the zero word is an AS not resolved yet.
	flagResolved
)

func (r routeRec) word() uint64 {
	return uint64(r.off) | uint64(r.n)<<32 | uint64(r.tier)<<48 | uint64(r.flags)<<56
}

func recOf(w uint64) routeRec {
	return routeRec{off: uint32(w), n: uint16(w >> 32), tier: uint8(w >> 48), flags: uint8(w >> 56)}
}

// origin is one origination of a state's prefix: the originating AS's
// position and, for a selective advert, the neighbours it reaches.
type origin struct {
	idx      int32
	exportTo map[topology.ASN]bool
}

// nbrTable is what an AS learns routes from beside its customers:
// refs[:provs] are its peers and refs[provs:] its providers, each part in
// ascending position in net.ASNs(). A customer route is pushed up from
// the customer, never pulled, so customers are not listed.
type nbrTable struct {
	refs  []int32
	provs int32
}

func (t nbrTable) peers() []int32     { return t.refs[:t.provs] }
func (t nbrTable) providers() []int32 { return t.refs[t.provs:] }

// recPageSize is the number of records one page holds.
const recPageSize = 64

// recPage holds the records of recPageSize consecutive AS positions.
type recPage [recPageSize]atomic.Uint64

// prefixState is the routing for one prefix: each AS's selected route,
// indexed by the AS's position in net.ASNs(), and the one arena their
// paths live in. Creation (newPrefixStateLocked) settles the origins and
// the customer and peer tiers; every other AS's record stays zero until
// route asks for it (fill), and is then resolved once and published with
// one atomic store. A record never changes after that and a path never
// moves within the arena, so a state is append-only and a Route handed
// out stays valid. Records live in pages, allocated by the first record
// written to them, so a state holds a page only where it settled an AS;
// neither pages nor arena hold a pointer, so the collector never scans
// them. A state keeps the tables and originations it was built on, so a
// fill answers for the generation the state belongs to however the System
// has moved on since; the System discards a state whenever something that
// could affect its prefix changes.
type prefixState struct {
	// recs[i/recPageSize][i%recPageSize] is the record of the AS at
	// position i. A nil page reads as records not resolved yet; take
	// publishes a page before it stores the page's first record.
	recs []atomic.Pointer[recPage]
	// arena holds the paths. A fill that outgrows it publishes a new
	// header instead of editing the old one, and a header always spans
	// its whole backing array, so a reader can slice any path a record it
	// has loaded names.
	arena atomic.Pointer[[]topology.ASN]

	asns  []topology.ASN
	nbrs  []nbrTable
	origs []origin

	// mu serializes fills; used counts the arena entries written, pending
	// the records not resolved yet.
	mu      sync.Mutex
	used    uint32
	pending int32
}

func (st *prefixState) rec(i int32) routeRec {
	pg := st.recs[i/recPageSize].Load()
	if pg == nil {
		return routeRec{}
	}
	return recOf(pg[i%recPageSize].Load())
}

func (st *prefixState) resolved(i int32) bool { return st.rec(i).flags&flagResolved != 0 }

// path returns rec's AS path, a capacity-clipped view of the arena.
func (st *prefixState) path(rec routeRec) []topology.ASN {
	end := rec.off + uint32(rec.n)
	return (*st.arena.Load())[rec.off:end:end]
}

// route returns the route of the AS at position i, resolving it first if
// nobody has asked before. Route.Path is a capacity-clipped view of the
// arena: read-only, and an append to it copies.
func (st *prefixState) route(p addr.Prefix, i int32) (Route, bool) {
	rec := st.rec(i)
	if rec.flags&flagResolved == 0 {
		rec = st.fill(i)
	}
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
		r.Path = st.path(rec)
	}
	return r, true
}

// fill resolves the AS at position i, which creation left unresolved, so
// it can only hold a provider route: it pulls from its providers once
// each of them is resolved. The providers still unresolved are resolved
// first, deepest first, over an explicit stack that always holds one
// provider chain; the relation is acyclic (topology.Builder.Build refuses
// a cycle), so the chain ends. Fills of one state serialize on its mutex;
// readers of resolved records never take it.
func (st *prefixState) fill(i int32) routeRec {
	st.mu.Lock()
	defer st.mu.Unlock()
	var buf [16]int32
	stack := append(buf[:0], i)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		if st.resolved(x) {
			stack = stack[:len(stack)-1]
			continue
		}
		up := int32(-1)
		for _, p := range st.nbrs[x].providers() {
			if !st.resolved(p) {
				up = p
				break
			}
		}
		if up < 0 {
			win, adv := st.selectProvider(x)
			st.take(x, adv, win)
			stack = stack[:len(stack)-1]
			continue
		}
		if len(stack) == len(st.asns) {
			panic(fmt.Sprintf("bgp: provider cycle through AS%d", st.asns[up]))
		}
		stack = append(stack, up)
	}
	return st.rec(i)
}

// selectProvider is the decision process of the AS at position x over
// its resolved providers: providers in ascending position, each one's
// ordinary advert — anything it selected but a NO_EXPORT route, loop
// checked — before its selective ones, compared by prefers. It returns
// the winner (path offset unset) and the position of the provider it was
// learned from, -1 for none.
func (st *prefixState) selectProvider(x int32) (win routeRec, adv int32) {
	win, adv = routeRec{flags: flagResolved}, -1
	self := st.asns[x]
	for _, p := range st.nbrs[x].providers() {
		beats := func(n uint16) bool {
			return prefers(int(tierProvider), int(n), p, int(win.tier), int(win.n), adv)
		}
		r := st.rec(p)
		if r.tier != tierNone &&
			exportable(r.flags&flagNoExport != 0, r.n == 0, r.flags&flagFromCustomer != 0, true) &&
			beats(r.n+1) && !loops(st.path(r), self) {
			win, adv = routeRec{n: r.n + 1, tier: tierProvider, flags: flagResolved}, p
		}
		if r.tier == tierSelf && st.selectiveTo(p, self) && beats(1) {
			win, adv = routeRec{n: 1, tier: tierProvider, flags: flagResolved | flagNoExport}, p
		}
	}
	return win, adv
}

// take publishes rec as the selection of the AS at position x, after
// writing its path, learned from the AS at position adv, to the arena,
// and x's page if it has none yet. The caller holds st.mu or is creating
// st. Once the last AS is resolved the arena is cut to the paths it
// holds, so a fully resolved state carries no slack.
func (st *prefixState) take(x, adv int32, rec routeRec) {
	if rec.n > 0 {
		rec.off = st.appendPath(adv, rec.n)
	}
	pg := st.recs[x/recPageSize].Load()
	if pg == nil {
		pg = new(recPage)
		st.recs[x/recPageSize].Store(pg)
	}
	pg[x%recPageSize].Store(rec.word())
	if st.pending--; st.pending == 0 {
		exact := make([]topology.ASN, st.used)
		copy(exact, *st.arena.Load())
		st.arena.Store(&exact)
	}
}

// selectiveTo reports whether the origin at position y advertises the
// prefix selectively to asn.
func (st *prefixState) selectiveTo(y int32, asn topology.ASN) bool {
	for _, o := range st.origs {
		if o.idx == y && o.exportTo[asn] {
			return true
		}
	}
	return false
}

// appendPath writes a path of length n learned from the AS at position
// adv — adv, then the first n-1 entries of adv's own path — to the arena
// and returns its offset. The caller holds st.mu or is creating st. An
// arena that is too short is copied into a larger one, published before
// any record that names the new path.
func (st *prefixState) appendPath(adv int32, n uint16) uint32 {
	arena := *st.arena.Load()
	tail := st.path(st.rec(adv))[:n-1]
	off := st.used
	end := off + uint32(n)
	if int(end) > len(arena) {
		grown := make([]topology.ASN, end+end/4+16)
		copy(grown, arena[:off])
		arena = grown
		st.arena.Store(&grown)
	}
	arena[off] = st.asns[adv]
	copy(arena[off+1:end], tail)
	st.used = end
	return off
}

// offer hands the route of the AS at position y — and, at an origin, its
// selective adverts — to each AS in to that holds nothing yet, as a route
// of the given tier and flags. An AS takes the first route it is offered,
// so callers offer in prefers order: ascending path length, then
// ascending advertiser position, a neighbour's ordinary advert before its
// selective ones. Each AS that takes the ordinary advert, which it may
// export in turn, is appended to level.
func (st *prefixState) offer(level []int32, y int32, to []int32, tier, flags uint8) []int32 {
	r := st.rec(y)
	if exportable(r.flags&flagNoExport != 0, r.n == 0, r.flags&flagFromCustomer != 0, false) {
		path := st.path(r)
		for _, x := range to {
			if !st.resolved(x) && !loops(path, st.asns[x]) {
				st.take(x, y, routeRec{n: r.n + 1, tier: tier, flags: flags | flagResolved})
				level = append(level, x)
			}
		}
	}
	if r.tier != tierSelf {
		return level
	}
	for _, x := range to {
		if !st.resolved(x) && st.selectiveTo(y, st.asns[x]) {
			st.take(x, y, routeRec{n: 1, tier: tier, flags: flags | flagNoExport | flagResolved})
		}
	}
	return level
}

// System is the BGP of a whole internet. Queries are safe for concurrent
// use (a state they create serializes on mu, a route they resolve on its
// state's own mutex); origination changes and Refresh serialize against
// them.
type System struct {
	net *topology.Network

	// mu guards everything below: queries hold it for read (after an
	// upgrade-to-write pass when a state is missing), mutators for write.
	mu sync.RWMutex
	// originated[asn] lists the AS's injected prefixes in injection order.
	originated map[topology.ASN][]origination
	// states holds the lazily created per-prefix routing.
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

	// The dense view of net and neighbors the prefix states run on,
	// replaced (never edited) by reindexLocked: asns is net.ASNs(), asIdx
	// its inverse, nbrs[i] the peers and providers of asns[i].
	asns  []topology.ASN
	asIdx map[topology.ASN]int32
	nbrs  []nbrTable

	// level is newPrefixStateLocked's scratch, reused across prefixes.
	level []int32
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
// the dense tables over it and drops every state (their records are
// positions in the old tables).
func (s *System) reindexLocked() {
	s.neighbors = s.net.AllNeighbors()
	s.states = map[addr.Prefix]*prefixState{}
	s.asns = s.net.ASNs()
	s.asIdx = make(map[topology.ASN]int32, len(s.asns))
	for i, asn := range s.asns {
		s.asIdx[asn] = int32(i)
	}
	// One backing array for every table, sized exactly so that no append
	// moves it. A neighbour list is ASN-sorted and positions ascend with
	// ASNs, so each part comes out in ascending position.
	size := 0
	for _, nbs := range s.neighbors {
		for _, nb := range nbs {
			if links := nb.Links; len(links) > 1 {
				sort.Slice(links, func(a, b int) bool {
					if links[a].From != links[b].From {
						return links[a].From < links[b].From
					}
					return links[a].To < links[b].To
				})
			}
			if nb.Rel != topology.RelProvider {
				size++
			}
		}
	}
	refs := make([]int32, 0, size)
	s.nbrs = make([]nbrTable, len(s.asns))
	for i, asn := range s.asns {
		start := len(refs)
		for _, nb := range s.neighbors[asn] {
			if nb.Rel == topology.RelPeer {
				refs = append(refs, s.asIdx[nb.ASN])
			}
		}
		provs := len(refs) - start
		for _, nb := range s.neighbors[asn] {
			if nb.Rel == topology.RelCustomer { // asn is nb's customer
				refs = append(refs, s.asIdx[nb.ASN])
			}
		}
		s.nbrs[i] = nbrTable{refs: refs[start:len(refs):len(refs)], provs: int32(provs)}
	}
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

// Converge materialises the routing for every originated prefix at every
// AS: it creates each prefix's state and resolves every AS's route in
// it, so no later query fills anything. It is idempotent; queries create
// and resolve what they need lazily, so calling it is only necessary when
// a caller wants the full cost paid up front.
func (s *System) Converge() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.convergeAllLocked()
	for p, st := range s.states {
		for i := range int32(len(st.asns)) {
			st.route(p, i)
		}
	}
}

func (s *System) convergeAllLocked() {
	// Walk order ((Addr, Len) over the index) is deterministic.
	var prefixes []addr.Prefix
	s.index.Walk(func(p addr.Prefix, _ []topology.ASN) bool {
		prefixes = append(prefixes, p)
		return true
	})
	for _, p := range prefixes {
		s.convergePrefixLocked(p)
	}
}

// convergePrefixLocked makes sure p's state is cached. A prefix nobody
// originates gets none: a query that saw p in the index before a
// withdrawal retries and no longer finds it.
func (s *System) convergePrefixLocked(p addr.Prefix) {
	if _, ok := s.states[p]; ok {
		return
	}
	if _, ok := s.index.Exact(p); !ok {
		return
	}
	s.states[p] = s.newPrefixStateLocked(p)
}

// newPrefixStateLocked creates p's state on the current tables and
// settles the ASes whose route is not a provider route, in three groups
// in Gao-Rexford preference order:
//
//   - the origins, each holding its own route, NO_EXPORT when its first
//     origination of p is selective;
//   - the customer tier, level by level: the ASes of one level — one path
//     length — offer their routes up to their providers in ascending
//     position, and each AS that takes an exportable route forms the next
//     level;
//   - the peer tier: every AS of the sweep, in level order, offers its
//     route to its peers.
//
// A customer route can only extend a customer's own or customer route
// and a peer route a peer's, so the sweep reaches every AS of those tiers
// and no other: the origins' provider ancestry and its peers. offer's
// order makes the first route an AS takes the one prefers would pick.
// Every other AS is left for fill.
func (s *System) newPrefixStateLocked(p addr.Prefix) *prefixState {
	st := &prefixState{
		recs:    make([]atomic.Pointer[recPage], (len(s.asns)+recPageSize-1)/recPageSize),
		asns:    s.asns,
		nbrs:    s.nbrs,
		pending: int32(len(s.asns)),
	}
	st.arena.Store(&[]topology.ASN{})
	level := s.level[:0]
	origins, _ := s.index.Exact(p)
	for _, asn := range origins {
		i, ok := s.asIdx[asn]
		if !ok || st.resolved(i) {
			continue
		}
		for _, o := range s.originated[asn] {
			if o.prefix == p {
				st.origs = append(st.origs, origin{idx: i, exportTo: o.exportTo})
			}
		}
		own := routeRec{tier: tierSelf, flags: flagResolved}
		if noExport, _ := ownRoute(s.originated[asn], p); noExport {
			own.flags |= flagNoExport
		}
		st.take(i, -1, own)
		level = append(level, i)
	}
	slices.Sort(level)
	for lo := 0; lo < len(level); {
		hi := len(level)
		for _, y := range level[lo:hi] {
			level = st.offer(level, y, s.nbrs[y].providers(), tierCustomer, flagFromCustomer)
		}
		slices.Sort(level[hi:])
		lo = hi
	}
	// Peers that take a route are appended past the sweep; nothing reads
	// them.
	sweep := len(level)
	for _, y := range level[:sweep] {
		level = st.offer(level, y, s.nbrs[y].peers(), tierPeer, 0)
	}
	s.level = level
	return st
}

// routeEqual reports whether two routes are identical in every
// attribute — the comparison the session-vs-fixpoint differentials use.
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

// chainLink is one prefix of a destination's match chain and its state,
// nil while the prefix has none yet.
type chainLink struct {
	prefix addr.Prefix
	st     *prefixState
}

// Toward is the routing toward one destination, resolved once: the
// prefixes on the destination's match chain, longest first, each with its
// state, and the AS-position and adjacency tables those states were built
// on. reindexLocked replaces both tables instead of editing them, and a
// state is append-only and fills from the tables and originations it
// captured, so a view answers from one consistent generation — with no
// system lock and no index lookup — however the system changes after it was
// taken, and never indexes a state with a position from another table. A
// walk resolves its destination once and asks the view at every AS hop.
// The zero value is empty; System.Toward fills it. Not safe for
// concurrent use.
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
// creates nothing: t.Lookup creates the states it reaches and resolves
// the ASes it is asked about.
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
// prefix it reaches without a state gets one and the view is resolved
// again (a mutator may have re-indexed in between); prefixes past the
// answer stay lazy, and so does every AS not asked about.
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

// Prefixes is the length of the view's match chain. On a chain of one,
// every AS answers from the one prefix, where an AS's path is its next
// hop's path with the next hop in front: the route Lookup returns at one
// AS names every AS a packet crosses after it.
func (t *Toward) Prefixes() int { return t.n }

// LinksBetween returns every border link between adjacent domains a and
// b, oriented From-in-a and sorted by (From, To). Empty when not
// adjacent. The slice is shared with the system: read-only. It finds b
// in a's ASN-sorted neighbour list.
func (t *Toward) LinksBetween(a, b topology.ASN) []topology.InterLink {
	nbs := t.neighbors[a]
	if k, ok := slices.BinarySearchFunc(nbs, b, func(nb topology.ASNeighbor, b topology.ASN) int {
		return cmp.Compare(nb.ASN, b)
	}); ok {
		return nbs[k].Links
	}
	return nil
}

// Lookup longest-prefix-matches dst in asn's routing: the most specific
// prefix on dst's match chain for which asn holds a route. Only prefixes
// on the chain get a state, never the whole table, and a warm lookup
// takes one read lock and allocates nothing.
func (s *System) Lookup(asn topology.ASN, dst addr.V4) (Route, bool) {
	var t Toward
	s.Toward(dst, &t)
	return t.Lookup(asn)
}

// TableSize returns the number of prefixes in asn's loc-RIB (routing-state
// experiments, §3.2 scalability discussion). It creates every prefix's
// state but resolves only asn in each.
func (s *System) TableSize(asn topology.ASN) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, known := s.asIdx[asn]
	if !known {
		return 0
	}
	s.convergeAllLocked()
	n := 0
	for p, st := range s.states {
		if _, ok := st.route(p, i); ok {
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
