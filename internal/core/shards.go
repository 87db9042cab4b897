package core

import (
	"sync"
	"sync/atomic"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/anycast"
	"github.com/evolvable-net/evolve/internal/cowmap"
	"github.com/evolvable-net/evolve/internal/routing/bgpvn"
	"github.com/evolvable-net/evolve/internal/topology"
)

// deliveryShards is the shard count of the send path's tables: the
// endhost registry, the redirect and flow caches and the flow-health
// registry. Sharding is layout and speed, never routing; tests hold that
// by building Evolutions at other counts through newEvolution.
const deliveryShards = 16

// stripe is one lock-striped partition of a striped table.
type stripe[K comparable, V any] struct {
	mu sync.RWMutex
	m  map[K]V
}

// striped is the locked table under the send path — the redirect cache,
// the flow cache and the flow-health registry are all one: plain maps with
// struct keys under per-stripe RWMutexes, so 64 concurrent senders do not
// serialize on one lock or one map, and — unlike sync.Map — a hit is an
// RLock plus one map probe with no interface boxing and no allocation.
// (Its copy-on-write sibling, for tables an epoch publishes immutable, is
// cowmap.Map.)
//
// Every operation on a key takes by, the value the table is striped by: a
// field the key already carries (the attach router, the source host) and
// the same one each time, masked to the table's width. Callers pass it
// rather than the table calling back into the key, which on the
// per-packet probe would be an indirect call through the generic
// dictionary.
type striped[K comparable, V any] struct {
	shards []stripe[K, V]
}

// newStriped returns an empty table of n stripes, n a power of two.
func newStriped[K comparable, V any](n int) *striped[K, V] {
	s := &striped[K, V]{shards: make([]stripe[K, V], n)}
	for i := range s.shards {
		s.shards[i].m = map[K]V{}
	}
	return s
}

// fresh returns an empty table of s's width.
func (s *striped[K, V]) fresh() *striped[K, V] { return newStriped[K, V](len(s.shards)) }

func (s *striped[K, V]) load(by uint32, k K) (V, bool) {
	sh := &s.shards[by&uint32(len(s.shards)-1)]
	sh.mu.RLock()
	v, ok := sh.m[k]
	sh.mu.RUnlock()
	return v, ok
}

func (s *striped[K, V]) store(by uint32, k K, v V) {
	sh := &s.shards[by&uint32(len(s.shards)-1)]
	sh.mu.Lock()
	sh.m[k] = v
	sh.mu.Unlock()
}

// loadOrCreate returns the value stored under k, storing mk's first if
// there is none; racing callers all get the one value that won. A hit
// costs what load costs.
func (s *striped[K, V]) loadOrCreate(by uint32, k K, mk func(K) V) V {
	if v, ok := s.load(by, k); ok {
		return v
	}
	sh := &s.shards[by&uint32(len(s.shards)-1)]
	sh.mu.Lock()
	v, ok := sh.m[k]
	if !ok {
		v = mk(k)
		sh.m[k] = v
	}
	sh.mu.Unlock()
	return v
}

// each visits every entry, stripe by stripe under the stripe's read lock
// (fn must not write to s); stripe is the entry's index in any table of
// s's width.
func (s *striped[K, V]) each(fn func(stripe int, k K, v V)) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k, v := range sh.m {
			fn(i, k, v)
		}
		sh.mu.RUnlock()
	}
}

// addrShards is the epoch's endhost registry: the per-host native IPvN
// addresses, split into host-ID-hashed shards. Only native addresses are
// stored — a host whose access provider does not participate derives its
// temporary self-address from its underlay address (§3.3.2), so absence
// IS the self-addressed state and a fleet of a million unregistered
// hosts costs nothing.
//
// Published registries are immutable. Mutators fork and write the fork
// (see Evolution.relabelScoped): an epoch build that touches two domains
// copies only the shards holding those domains' hosts, and a link event
// copies nothing at all.
type addrShards = cowmap.Map[topology.HostID, addr.VN]

func newAddrShards(n int) *addrShards {
	return cowmap.New[topology.HostID, addr.VN](n, func(id topology.HostID) uint32 { return uint32(id) })
}

// addrOf returns h's IPvN address in this epoch: the stored native
// address when one exists, the derived self-address otherwise.
func (ep *routingEpoch) addrOf(h *topology.Host) addr.VN {
	if v, ok := ep.addrs.Get(h.ID); ok {
		return v
	}
	return addr.SelfAddress(h.Addr)
}

// hostSet is a set of hosts, one bit per HostID: an epoch's registered
// endhosts. A published set is immutable; a registration writes a copy.
type hostSet []uint64

func (s hostSet) has(id topology.HostID) bool {
	w := int(id >> 6)
	return w < len(s) && s[w]&(1<<(id&63)) != 0
}

// add puts id in an unpublished set and reports whether it was absent.
func (s hostSet) add(id topology.HostID) bool {
	w, bit := id>>6, uint64(1)<<(id&63)
	absent := s[w]&bit == 0
	s[w] |= bit
	return absent
}

// remove takes id out of an unpublished set.
func (s hostSet) remove(id topology.HostID) { s[id>>6] &^= 1 << (id & 63) }

// resolveKey identifies one memoised redirect decision: the trajectory of
// an anycast packet is a function of the router it enters the network at
// and the address it is sent to, so every host behind one attach router
// shares the entry.
type resolveKey struct {
	router topology.RouterID
	a      addr.V4
}

// carryResolved copies a redirect cache's memoised resolutions into a
// fresh one, dropping every entry whose recorded domain-level trajectory
// crosses an evicted domain — only those could have been re-routed or
// re-captured by the event. Copying entry by entry (rather than sharing
// the stripes) also sheds any entry a racing sender managed to store after
// the mutation sequence had already moved on.
func carryResolved(prev *striped[resolveKey, *anycast.Resolution], evict map[topology.ASN]bool) *striped[resolveKey, *anycast.Resolution] {
	next := prev.fresh()
	prev.each(func(i int, k resolveKey, res *anycast.Resolution) {
		for _, asn := range res.ASPath {
			if evict[asn] {
				return
			}
		}
		// next is not shared yet: no lock to take.
		next.shards[i].m[k] = res
	})
	return next
}

// flowKey identifies one delivery flow: source, destination, and the
// ingress deployment (the shared anycast address or a provider-specific
// one) the sender encapsulates toward.
type flowKey struct {
	src, dst topology.HostID
	dep      addr.V4
}

// flowEntry is the memoised delivery skeleton of one flow: every routing
// decision of a send — the redirect resolution, the egress pick with its
// bone path, the tail leg and the IPv(N-1) baseline. Routing is
// deterministic within an epoch, so the skeleton is exact, not a
// heuristic; a flow-cache hit re-runs only the wire-level
// encapsulation path and skips all path computation. Entries are
// immutable once stored (BonePath/TailPath slices included — deliveries
// share them read-only), but for mat.
type flowEntry struct {
	srcVN, dstVN addr.VN
	ing          anycast.Resolution
	ingressAS    topology.ASN
	eg           bgpvn.Egress
	egDetail     string
	vnHops       int
	tailCost     int64
	tailPath     []topology.RouterID
	baseline     int64
	// mat is the skeleton materialized for the wire (see flow), nil until
	// the first send that finds this entry in the flow cache publishes it:
	// a flow sent on once holds nothing here. The pointer fills the 8
	// bytes the entry had spare in its 224-byte allocation class.
	mat atomic.Pointer[flow]
}
