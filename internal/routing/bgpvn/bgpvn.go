// Package bgpvn implements routing *over* the vN-Bone (§3.3.2): reaching
// natively addressed IPvN destinations via the prefixes participant
// domains advertise into the IPvN routing fabric, and — the subtle case —
// selecting an egress IPvN router for destinations in non-participant
// domains (self-addressed hosts). Three egress policies reproduce the
// paper's design walk:
//
//   - ExitEarly ("only BGPvN", Figure 3 left): the vN routing fabric knows
//     nothing about the destination, so the packet exits at its ingress
//     and rides plain IPv(N-1) the rest of the way.
//   - PathInformed ("BGPvN + BGPv(N-1)", Figure 3 right): the ingress
//     consults its domain's imported BGPv(N-1) tables, finds the
//     domain-level path toward the destination, and hands the packet
//     across the vN-Bone to a member in the last participant domain along
//     that path.
//   - ProxyInformed ("advertising-by-proxy", Figure 4): every participant
//     border router advertises its domain's BGPv(N-1) distance to the
//     destination's domain into BGPvN; the ingress picks the member with
//     the smallest advertised remaining distance (ties: cheapest bone
//     path), even when that member is nowhere near the ingress's own
//     underlay path.
//
// The paper deliberately leaves the BGPvN algorithm unconstrained ("BGPvN
// need not strictly resemble today's BGP"); this implementation uses
// shortest paths over the virtual topology, which every concrete IPvN
// could refine.
package bgpvn

import (
	"errors"
	"fmt"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/cowmap"
	"github.com/evolvable-net/evolve/internal/forward"
	"github.com/evolvable-net/evolve/internal/graph"
	"github.com/evolvable-net/evolve/internal/rib"
	"github.com/evolvable-net/evolve/internal/topology"
	"github.com/evolvable-net/evolve/internal/trace"
	"github.com/evolvable-net/evolve/internal/vnbone"
)

// EgressPolicy selects how an egress router is chosen for self-addressed
// destinations.
type EgressPolicy int

const (
	// PathInformed exits at the last participant domain along the
	// ingress domain's BGPv(N-1) path to the destination. It is the
	// paper's recommended design (Figure 3 right) and the zero value, so
	// an unset Config gets it by default.
	PathInformed EgressPolicy = iota
	// ExitEarly exits the vN-Bone at the ingress router ("only BGPvN").
	ExitEarly
	// ProxyInformed exits at the member whose domain advertises the
	// smallest BGPv(N-1) distance to the destination's domain.
	ProxyInformed
)

func (p EgressPolicy) String() string {
	switch p {
	case ExitEarly:
		return "exit-early"
	case PathInformed:
		return "path-informed"
	default:
		return "proxy-informed"
	}
}

// Errors.
var (
	// ErrNoVNRoute: no native prefix covers the IPvN destination.
	ErrNoVNRoute = errors.New("bgpvn: no IPvN route to destination")
	// ErrUnreachableOnBone: the selected egress is not reachable from the
	// ingress over the virtual topology.
	ErrUnreachableOnBone = errors.New("bgpvn: egress unreachable on vN-Bone")
)

// Egress describes a vN-Bone traversal decision.
type Egress struct {
	// Member is the router where the packet leaves the vN-Bone.
	Member topology.RouterID
	// BonePath is the member-level path from ingress to Member.
	BonePath []topology.RouterID
	// BoneCost is the underlay cost of BonePath.
	BoneCost int64
	// Policy records which policy produced the decision.
	Policy EgressPolicy
}

// System answers routing questions over one constructed bone.
//
// Concurrency: the Route*/Select*/Participates queries may run from any
// number of goroutines, concurrently with Fork on the same System and
// with every operation on its forks. AdvertiseNative, WithdrawNative and
// Fork on one System need external serialization, and a System other
// goroutines query must not be written — fork it and write the fork.
type System struct {
	bone *vnbone.Bone
	fwd  *forward.Engine
	net  *topology.Network

	// natives maps advertised IPvN prefixes shorter than /128 to their
	// origin domain. Forks share the trie (ownNatives false on both
	// sides) and copy it whole before the first write — blocks change
	// with the bone, which builds a new System anyway.
	natives    *rib.TableVN[topology.ASN]
	ownNatives bool
	// hosts maps advertised /128s to their origin domain: an exact-match
	// table probed before the trie (a /128 is the longest possible
	// match), copy-on-write by shard across forks.
	hosts *cowmap.Map[addr.VN, topology.ASN]
	// participants, members and byDomain are fixed at New and shared by
	// every fork: the bone's members in id order, whole and by domain.
	participants map[topology.ASN]bool
	members      []topology.RouterID
	byDomain     map[topology.ASN][]topology.RouterID
}

// hostShards is the shard count of the /128 table: a single registration
// on a forked System copies 1/hostShards of the host routes.
const hostShards = 64

// hashVN spreads IPvN addresses over the host-route shards. Self-addresses
// differ only in their low 32 bits and natives in a domain are sequential,
// so the bits are mixed rather than masked.
func hashVN(v addr.VN) uint32 {
	return uint32(((v.Hi ^ v.Lo) * 0x9E3779B97F4A7C15) >> 32)
}

// New builds the BGPvN view of a bone. Every participant domain
// advertises its native IPvN block into the fabric.
func New(bone *vnbone.Bone, fwd *forward.Engine, net *topology.Network) *System {
	s := &System{
		bone:         bone,
		fwd:          fwd,
		net:          net,
		natives:      &rib.TableVN[topology.ASN]{},
		ownNatives:   true,
		hosts:        cowmap.New[addr.VN, topology.ASN](hostShards, hashVN),
		participants: map[topology.ASN]bool{},
		members:      bone.Members(),
		byDomain:     map[topology.ASN][]topology.RouterID{},
	}
	for _, m := range s.members {
		asn := net.DomainOf(m)
		if !s.participants[asn] {
			s.participants[asn] = true
			s.natives.Insert(addr.DomainVNPrefix(int(asn)), asn)
		}
		s.byDomain[asn] = append(s.byDomain[asn], m)
	}
	return s
}

// Fork returns a System answering exactly what s answers now, sharing the
// bone, the membership index, the prefix trie and every host-route shard
// with s. Advertising or withdrawing on the fork copies only what the
// write lands in and never changes what s answers.
func (s *System) Fork() *System {
	f := *s
	f.hosts = s.hosts.Fork()
	s.ownNatives, f.ownNatives = false, false
	return &f
}

// writableNatives returns the prefix trie, copied first if a fork shares it.
func (s *System) writableNatives() *rib.TableVN[topology.ASN] {
	if !s.ownNatives {
		clone := &rib.TableVN[topology.ASN]{}
		s.natives.Walk(func(p addr.VNPrefix, asn topology.ASN) bool {
			clone.Insert(p, asn)
			return true
		})
		s.natives, s.ownNatives = clone, true
	}
	return s.natives
}

// AdvertiseNative injects an additional IPvN prefix originated by asn
// (e.g. a host /128 for an endhost whose temporary address a participant
// agreed to carry).
func (s *System) AdvertiseNative(p addr.VNPrefix, asn topology.ASN) {
	if p.Len == 128 {
		s.hosts.Set(p.Addr, asn)
		return
	}
	s.writableNatives().Insert(p, asn)
}

// WithdrawNative removes the advertisement of exactly p and reports
// whether there was one. Destinations under p fall back to the next
// covering prefix, or to ErrNoVNRoute.
func (s *System) WithdrawNative(p addr.VNPrefix) bool {
	if p.Len == 128 {
		return s.hosts.Delete(p.Addr)
	}
	if _, ok := s.natives.Exact(p); !ok {
		return false
	}
	return s.writableNatives().Delete(p)
}

// Participates reports whether a domain has vN-Bone presence.
func (s *System) Participates(asn topology.ASN) bool { return s.participants[asn] }

// closestIn returns the member of asn cheapest to reach from ingress over
// the bone (ties: lowest member id), Member -1 when asn has no member the
// bone reaches.
func (s *System) closestIn(ingress topology.RouterID, asn topology.ASN) Egress {
	best := Egress{Member: -1, BoneCost: graph.Inf}
	for _, m := range s.byDomain[asn] {
		if d := s.bone.Dist(ingress, m); d < best.BoneCost {
			best = Egress{Member: m, BoneCost: d}
		}
	}
	return best
}

// RouteNative routes from an ingress member to a natively addressed IPvN
// destination: longest-prefix match in the IPvN fabric, then cheapest bone
// path to a member of the origin domain.
func (s *System) RouteNative(ingress topology.RouterID, dst addr.VN) (Egress, error) {
	asn, ok := s.hosts.Get(dst)
	if !ok {
		if asn, _, ok = s.natives.Lookup(dst); !ok {
			return Egress{}, ErrNoVNRoute
		}
	}
	best := s.closestIn(ingress, asn)
	if best.Member < 0 {
		return Egress{}, ErrUnreachableOnBone
	}
	best.BonePath = s.bone.Path(ingress, best.Member)
	return best, nil
}

// Route is the one vN routing decision (§3.3.2), shared by the simulated
// send path and the live overlay's route tables: where a packet for the
// host addressed dstVN (underlay address dstV4) leaves the vN-Bone when it
// enters at ingress. A native prefix or a registered /128 covering dstVN
// wins; only a self-addressed destination nothing in the fabric covers
// falls to the egress policy. rule names what decided, as a KindEgress
// trace label: trace.EgressNative, trace.EgressRegistered or the policy's
// name.
func (s *System) Route(ingress topology.RouterID, dstVN addr.VN, dstV4 addr.V4, policy EgressPolicy) (eg Egress, rule string, err error) {
	eg, err = s.RouteNative(ingress, dstVN)
	if !dstVN.IsSelf() {
		return eg, trace.EgressNative, err
	}
	if !errors.Is(err, ErrNoVNRoute) {
		return eg, trace.EgressRegistered, err
	}
	eg, err = s.SelectEgress(ingress, dstV4, policy)
	return eg, policy.String(), err
}

// SelectEgress chooses where a packet for a self-addressed destination
// (underlay address dstV4) leaves the vN-Bone.
func (s *System) SelectEgress(ingress topology.RouterID, dstV4 addr.V4, policy EgressPolicy) (Egress, error) {
	switch policy {
	case ExitEarly:
		return Egress{
			Member:   ingress,
			BonePath: []topology.RouterID{ingress},
			Policy:   ExitEarly,
		}, nil
	case PathInformed:
		return s.pathInformed(ingress, dstV4)
	case ProxyInformed:
		return s.proxyInformed(ingress, dstV4)
	default:
		return Egress{}, fmt.Errorf("bgpvn: unknown egress policy %d", policy)
	}
}

// pathInformed walks the ingress domain's BGPv(N-1) AS path toward the
// destination and exits at the furthest participant domain on it.
func (s *System) pathInformed(ingress topology.RouterID, dstV4 addr.V4) (Egress, error) {
	asPath, ok := s.fwd.DomainPath(s.net.DomainOf(ingress), dstV4)
	if !ok {
		// No underlay route at all: exiting early lets the underlay
		// produce the authoritative error.
		return Egress{Member: ingress, BonePath: []topology.RouterID{ingress}, Policy: PathInformed}, nil
	}
	lastParticipant := topology.ASN(-1)
	for _, asn := range asPath {
		if s.participants[asn] {
			lastParticipant = asn
		}
	}
	if lastParticipant == -1 || lastParticipant == s.net.DomainOf(ingress) {
		return Egress{Member: ingress, BonePath: []topology.RouterID{ingress}, Policy: PathInformed}, nil
	}
	best := s.closestIn(ingress, lastParticipant)
	if best.Member < 0 {
		// The bone cannot reach that domain (partition): degrade to
		// exit-early rather than blackholing.
		return Egress{Member: ingress, BonePath: []topology.RouterID{ingress}, Policy: PathInformed}, nil
	}
	best.Policy = PathInformed
	best.BonePath = s.bone.Path(ingress, best.Member)
	return best, nil
}

// proxyInformed implements Figure 4: minimize the advertised BGPv(N-1)
// distance from the egress domain to the destination, breaking ties by
// bone cost, then member id.
func (s *System) proxyInformed(ingress topology.RouterID, dstV4 addr.V4) (Egress, error) {
	bestDist := int(^uint(0) >> 1)
	best := Egress{Member: -1, BoneCost: graph.Inf, Policy: ProxyInformed}
	for _, m := range s.members {
		adv, ok := s.fwd.DomainDistance(s.net.DomainOf(m), dstV4)
		if !ok {
			continue // this proxy has no route to advertise
		}
		bd := s.bone.Dist(ingress, m)
		if bd >= graph.Inf {
			continue
		}
		if adv < bestDist || (adv == bestDist && bd < best.BoneCost) ||
			(adv == bestDist && bd == best.BoneCost && m < best.Member) {
			bestDist = adv
			best = Egress{Member: m, BoneCost: bd, Policy: ProxyInformed}
		}
	}
	if best.Member < 0 {
		return Egress{Member: ingress, BonePath: []topology.RouterID{ingress}, Policy: ProxyInformed}, nil
	}
	best.BonePath = s.bone.Path(ingress, best.Member)
	return best, nil
}
