package core

import (
	"sync"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/anycast"
	"github.com/evolvable-net/evolve/internal/cowmap"
	"github.com/evolvable-net/evolve/internal/routing/bgpvn"
	"github.com/evolvable-net/evolve/internal/topology"
)

// defaultDeliveryShards is the shard count used when
// Config.DeliveryShards is zero.
const defaultDeliveryShards = 16

// maxDeliveryShards bounds Config.DeliveryShards.
const maxDeliveryShards = 256

// normalizeShards clamps a configured shard count to [1, 256] and rounds
// it down to a power of two so shard selection is a mask, not a modulo.
func normalizeShards(n int) int {
	if n <= 0 {
		n = defaultDeliveryShards
	}
	if n > maxDeliveryShards {
		n = maxDeliveryShards
	}
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
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

// resolveKey identifies one memoised redirect decision: the trajectory of
// an anycast packet is a function of the router it enters the network at
// and the address it is sent to, so every host behind one attach router
// shares the entry.
type resolveKey struct {
	router topology.RouterID
	a      addr.V4
}

// resolveShard is one lock-striped partition of the redirect cache.
// Plain maps under an RWMutex, not sync.Map: the read path is then a
// lock-free-in-practice RLock plus one map probe with a struct key —
// no interface boxing, so a cache hit allocates nothing.
type resolveShard struct {
	mu sync.RWMutex
	m  map[resolveKey]*anycast.Resolution
}

// resolveShards is the epoch's redirect cache: router-level resolutions
// (no access-link cost), split into attach-router-hashed shards so 64
// concurrent senders do not serialize on one lock or one map. Sends and
// endhost registration fill and read the same entries.
type resolveShards struct {
	mask   uint32
	shards []resolveShard
}

func newResolveShards(n int) *resolveShards {
	s := &resolveShards{mask: uint32(n - 1), shards: make([]resolveShard, n)}
	for i := range s.shards {
		s.shards[i].m = map[resolveKey]*anycast.Resolution{}
	}
	return s
}

func (s *resolveShards) load(k resolveKey) (*anycast.Resolution, bool) {
	sh := &s.shards[uint32(k.router)&s.mask]
	sh.mu.RLock()
	v, ok := sh.m[k]
	sh.mu.RUnlock()
	return v, ok
}

func (s *resolveShards) store(k resolveKey, v *anycast.Resolution) {
	sh := &s.shards[uint32(k.router)&s.mask]
	sh.mu.Lock()
	sh.m[k] = v
	sh.mu.Unlock()
}

// carry copies the memoised resolutions into a fresh cache, dropping
// every entry whose recorded domain-level trajectory crosses an evicted
// domain — only those could have been re-routed or re-captured by the
// event. Copying entry by entry (rather than sharing the shards) also
// sheds any entry a racing sender managed to store after the mutation
// sequence had already moved on.
func (s *resolveShards) carry(evict map[topology.ASN]bool) *resolveShards {
	next := newResolveShards(len(s.shards))
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k, res := range sh.m {
			evicted := false
			for _, asn := range res.ASPath {
				if evict[asn] {
					evicted = true
					break
				}
			}
			if !evicted {
				next.shards[i].m[k] = res
			}
		}
		sh.mu.RUnlock()
	}
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
// share them read-only).
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
}

// flowShard is one lock-striped partition of the flow cache.
type flowShard struct {
	mu sync.RWMutex
	m  map[flowKey]*flowEntry
}

// flowShards is the epoch's delivery flow cache, hashed by source host.
// It is rebuilt fresh whenever routing state changes (epoch builds,
// registrations) — unlike the redirect cache there is no per-entry
// carry-over, because a flow skeleton depends on bone meshes, BGPvN
// tables, IGP trees and the baseline at once and scoping an eviction
// over all four buys nothing over recomputing on first miss.
type flowShards struct {
	mask   uint32
	shards []flowShard
}

func newFlowShards(n int) *flowShards {
	s := &flowShards{mask: uint32(n - 1), shards: make([]flowShard, n)}
	for i := range s.shards {
		s.shards[i].m = map[flowKey]*flowEntry{}
	}
	return s
}

func (s *flowShards) load(k flowKey) (*flowEntry, bool) {
	sh := &s.shards[uint32(k.src)&s.mask]
	sh.mu.RLock()
	v, ok := sh.m[k]
	sh.mu.RUnlock()
	return v, ok
}

func (s *flowShards) store(k flowKey, v *flowEntry) {
	sh := &s.shards[uint32(k.src)&s.mask]
	sh.mu.Lock()
	sh.m[k] = v
	sh.mu.Unlock()
}
