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
// number of goroutines. AdvertiseNative and WithdrawNative need external
// serialization, and a System other goroutines query must not be written.
type System struct {
	bone *vnbone.Bone
	fwd  *forward.Engine
	net  *topology.Network

	// natives maps advertised IPvN prefixes, /128s included, to their
	// origin domain.
	natives *rib.TableVN[topology.ASN]
	// participants, members and byDomain are fixed at New: the bone's
	// members in id order, whole and by domain.
	participants map[topology.ASN]bool
	members      []topology.RouterID
	byDomain     map[topology.ASN][]topology.RouterID
}

// New builds the BGPvN view of a bone. Every participant domain
// advertises its native IPvN block into the fabric.
func New(bone *vnbone.Bone, fwd *forward.Engine, net *topology.Network) *System {
	s := &System{
		bone:         bone,
		fwd:          fwd,
		net:          net,
		natives:      &rib.TableVN[topology.ASN]{},
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

// AdvertiseNative injects an additional IPvN prefix originated by asn
// (e.g. a host /128 for an endhost whose temporary address a participant
// agreed to carry).
func (s *System) AdvertiseNative(p addr.VNPrefix, asn topology.ASN) {
	s.natives.Insert(p, asn)
}

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
	asn, _, ok := s.natives.Lookup(dst)
	if !ok {
		return Egress{}, ErrNoVNRoute
	}
	return s.toDomain(ingress, asn)
}

// toDomain routes from an ingress member to the member of asn cheapest to
// reach over the bone.
func (s *System) toDomain(ingress topology.RouterID, asn topology.ASN) (Egress, error) {
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
// enters at ingress. origin is the domain carrying a registered
// destination's /128 — where the registrant's anycast resolution lands —
// and -1 when there is none. A natively addressed destination routes by
// its covering prefix, origin unread. A self-addressed one routes to its
// registered origin, else to an advertised prefix covering it; only one
// nothing covers falls to the egress policy. rule names what decided, as a
// KindEgress trace label: trace.EgressNative, trace.EgressRegistered or
// the policy's name.
//
// Production passes origin (core.Evolution.Route finds it) and advertises
// no /128: the covering-/128 branch is the reference the tests and the
// benchmark probes build. Route(…, -1, …) on an epoch's System therefore
// routes a registered host by the egress policy.
func (s *System) Route(ingress topology.RouterID, dstVN addr.VN, dstV4 addr.V4, origin topology.ASN, policy EgressPolicy) (eg Egress, rule string, err error) {
	if !dstVN.IsSelf() {
		eg, err = s.RouteNative(ingress, dstVN)
		return eg, trace.EgressNative, err
	}
	if origin >= 0 {
		eg, err = s.toDomain(ingress, origin)
		return eg, trace.EgressRegistered, err
	}
	if eg, err = s.RouteNative(ingress, dstVN); !errors.Is(err, ErrNoVNRoute) {
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
