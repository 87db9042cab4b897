// Package anycast implements the paper's network-level redirection
// primitive (§3.1–3.2): an IP Anycast service over the simulated internet
// that steers a packet destined to a deployment's anycast address to an
// IPvN router, under either deployment option:
//
//   - Option 1 ("non-aggregatable addresses, global routes"): the anycast
//     address is a host prefix from a designated block; every
//     participating AS originates it into BGP.
//   - Option 2 ("aggregatable addresses, default routes"): the anycast
//     address is an ordinary unicast address inside the *default* ISP's
//     aggregate. Non-participants need no changes: longest-prefix match
//     carries the packet toward the default domain, and the first
//     participant domain along that path captures it via its IGP.
//     Participants may additionally advertise the host route to chosen
//     neighbours (NO_EXPORT) to widen their reach.
//
// Resolution walks the packet's actual forwarding trajectory: intra-domain
// by converged-IGP shortest paths, inter-domain by BGP policy, with
// capture by the first traversed domain whose IGP knows the address.
package anycast

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/forward"
	"github.com/evolvable-net/evolve/internal/routing/bgp"
	"github.com/evolvable-net/evolve/internal/topology"
	"github.com/evolvable-net/evolve/internal/underlay"
)

// Option selects a deployment strategy from §3.2.
type Option int

const (
	// Option1 propagates non-aggregatable anycast host routes globally.
	Option1 Option = 1
	// Option2 roots the anycast address in a default ISP's aggregate.
	Option2 Option = 2
	// OptionGIA uses Katabi et al.'s GIA scheme, which §3.2 presents as
	// the eventual replacement for option 2: the anycast address carries
	// a well-known indicator prefix plus the home domain's unicast bits.
	// Routers without an anycast route fall back to forwarding toward
	// the home domain; the "search" extension lets participants push
	// host routes to their BGP neighbours for closer captures.
	OptionGIA Option = 3
)

// Errors returned by Resolve.
var (
	// ErrNoRoute: the source domain has no route at all toward the
	// anycast address (option 1 with no participant route visible).
	ErrNoRoute = errors.New("anycast: no route toward anycast address")
	// ErrDeadEnd: the packet reached the end of its unicast trajectory
	// (the default domain) without meeting an IPvN router — the GIA/§3.2
	// requirement that the home domain contain at least one member is
	// violated.
	ErrDeadEnd = errors.New("anycast: trajectory ended with no IPvN router")
	// ErrForwardingLoop: inconsistent inter-domain state produced a loop.
	ErrForwardingLoop = errors.New("anycast: inter-domain forwarding loop")
)

// Deployment is one IPvN generation's anycast group.
type Deployment struct {
	Option    Option
	Addr      addr.V4
	Group     uint32
	DefaultAS topology.ASN // option 2 only

	// membersByAS is the membership: each participant domain's members in
	// id order. A domain with no members has no key.
	membersByAS map[topology.ASN][]topology.RouterID
}

// Clone returns a deep copy of the deployment's membership state. The
// epoch machinery in internal/core freezes a clone into each published
// routing epoch so the lock-free send path resolves against membership
// that cannot change underneath it; Bootstrap's temporary masking during
// bone construction likewise mutates only the unpublished clone.
func (d *Deployment) Clone() *Deployment {
	c := &Deployment{
		Option:      d.Option,
		Addr:        d.Addr,
		Group:       d.Group,
		DefaultAS:   d.DefaultAS,
		membersByAS: make(map[topology.ASN][]topology.RouterID, len(d.membersByAS)),
	}
	for asn, ms := range d.membersByAS {
		c.membersByAS[asn] = slices.Clone(ms)
	}
	return c
}

// Restricted returns the deployment answering to as's anycast address
// (as's option, address, group and default AS) whose members are d's
// members in asn: a §2.1 provider-specific deployment derived from the
// main one instead of kept in step with it. It shares no state with d or
// as.
func (d *Deployment) Restricted(asn topology.ASN, as *Deployment) *Deployment {
	r := &Deployment{
		Option:      as.Option,
		Addr:        as.Addr,
		Group:       as.Group,
		DefaultAS:   as.DefaultAS,
		membersByAS: map[topology.ASN][]topology.RouterID{},
	}
	if ms := d.membersByAS[asn]; len(ms) > 0 {
		r.membersByAS[asn] = slices.Clone(ms)
	}
	return r
}

// Members returns all member routers in id order.
func (d *Deployment) Members() []topology.RouterID {
	n := 0
	for _, ms := range d.membersByAS {
		n += len(ms)
	}
	out := make([]topology.RouterID, 0, n)
	for _, ms := range d.membersByAS {
		out = append(out, ms...)
	}
	slices.Sort(out)
	return out
}

// MembersIn returns the member routers inside one domain, in id order.
func (d *Deployment) MembersIn(asn topology.ASN) []topology.RouterID {
	return slices.Clone(d.membersByAS[asn])
}

// HasMembers reports whether the deployment has any member at all.
func (d *Deployment) HasMembers() bool { return len(d.membersByAS) > 0 }

// HasMembersIn reports whether domain asn has a member, i.e. participates.
func (d *Deployment) HasMembersIn(asn topology.ASN) bool { return len(d.membersByAS[asn]) > 0 }

// ParticipatingASes returns the domains with at least one member.
func (d *Deployment) ParticipatingASes() []topology.ASN {
	out := make([]topology.ASN, 0, len(d.membersByAS))
	for asn := range d.membersByAS {
		out = append(out, asn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Service manages deployments over one internet.
type Service struct {
	net *topology.Network
	bgp *bgp.System
	igp *underlay.View
	// fwd is the unicast walk anycast resolution rides.
	fwd *forward.Engine

	deployments map[addr.V4]*Deployment
}

// NewService creates the anycast layer over an existing BGP system.
func NewService(net *topology.Network, bgpSys *bgp.System, igp *underlay.View) *Service {
	return &Service{
		net:         net,
		bgp:         bgpSys,
		igp:         igp,
		fwd:         forward.NewEngine(net, bgpSys, igp),
		deployments: map[addr.V4]*Deployment{},
	}
}

// DeployOption1 creates an option-1 deployment for the given group number.
func (s *Service) DeployOption1(group uint32) (*Deployment, error) {
	a, err := addr.Option1Address(group)
	if err != nil {
		return nil, err
	}
	d := &Deployment{
		Option:      Option1,
		Addr:        a,
		Group:       group,
		membersByAS: map[topology.ASN][]topology.RouterID{},
	}
	s.deployments[a] = d
	return d, nil
}

// DeployOption2 creates an option-2 deployment rooted in defaultAS's
// aggregate. The default domain should gain a member before traffic is
// sent (§3.2: the home domain must include at least one group member).
func (s *Service) DeployOption2(group uint32, defaultAS topology.ASN) (*Deployment, error) {
	dom := s.net.Domain(defaultAS)
	if dom == nil {
		return nil, fmt.Errorf("anycast: unknown default AS %d", defaultAS)
	}
	a, err := addr.Option2Address(dom.Prefix, group)
	if err != nil {
		return nil, err
	}
	d := &Deployment{
		Option:      Option2,
		Addr:        a,
		Group:       group,
		DefaultAS:   defaultAS,
		membersByAS: map[topology.ASN][]topology.RouterID{},
	}
	s.deployments[a] = d
	return d, nil
}

// DeployGIA creates a GIA deployment homed in homeAS: the anycast address
// lives in the dedicated GIA indicator space and embeds homeAS's site
// bits, so any router can derive the fallback direction without carrying
// an anycast route. The home domain must gain a member before traffic is
// sent (GIA requires the home domain to contain a group member).
func (s *Service) DeployGIA(group uint8, homeAS topology.ASN) (*Deployment, error) {
	dom := s.net.Domain(homeAS)
	if dom == nil {
		return nil, fmt.Errorf("anycast: unknown GIA home AS %d", homeAS)
	}
	a, err := addr.GIAAddress(dom.Prefix, group)
	if err != nil {
		return nil, err
	}
	d := &Deployment{
		Option:      OptionGIA,
		Addr:        a,
		Group:       uint32(group),
		DefaultAS:   homeAS,
		membersByAS: map[topology.ASN][]topology.RouterID{},
	}
	s.deployments[a] = d
	return d, nil
}

// AddMember registers router id as an IPvN router accepting the
// deployment's anycast address. The router's domain implicitly becomes a
// participant: its IGP now carries the address and, for option 1, the
// domain originates the anycast host route into BGP. It reports whether
// membership actually changed (false for an existing member).
func (s *Service) AddMember(d *Deployment, id topology.RouterID) bool {
	asn := s.net.DomainOf(id)
	ms := d.membersByAS[asn]
	i, found := slices.BinarySearch(ms, id)
	if found {
		return false
	}
	// Keep the per-domain slice in id order: capture resolution breaks
	// IGP-distance ties toward the first member scanned (ClosestIn), so
	// the slice order is routing-visible and must not depend on the
	// deployment sequence — a deployment reached by different histories
	// must resolve identically.
	d.membersByAS[asn] = slices.Insert(ms, i, id)
	if d.Option == Option1 && len(ms) == 0 {
		s.bgp.Originate(asn, addr.HostPrefix(d.Addr))
	}
	return true
}

// RemoveMember withdraws a member; if it was the domain's last member the
// domain stops participating (and, for option 1, withdraws its BGP
// origination). It reports whether membership actually changed (false
// for a non-member).
func (s *Service) RemoveMember(d *Deployment, id topology.RouterID) bool {
	if id < 0 || int(id) >= len(s.net.Routers) {
		return false // not a router of this internet, so no member
	}
	asn := s.net.DomainOf(id)
	ms := d.membersByAS[asn]
	i, found := slices.BinarySearch(ms, id)
	if !found {
		return false
	}
	rest := slices.Delete(ms, i, i+1)
	if len(rest) == 0 {
		delete(d.membersByAS, asn)
		if d.Option == Option1 {
			s.bgp.Withdraw(asn, addr.HostPrefix(d.Addr))
		}
	} else {
		d.membersByAS[asn] = rest
	}
	return true
}

// AdvertiseToNeighbors configures the option-2 widening: participant asn
// advertises the anycast host route to the listed neighbours with
// NO_EXPORT semantics (Figure 2's "Q peers with Y"). For GIA deployments
// the same mechanism models the BGP "search" extension, whereby border
// routers of nearby domains learn of group members.
func (s *Service) AdvertiseToNeighbors(d *Deployment, asn topology.ASN, neighbors ...topology.ASN) error {
	if d.Option != Option2 && d.Option != OptionGIA {
		return fmt.Errorf("anycast: peering advertisement applies to option 2 and GIA deployments")
	}
	if len(d.membersByAS[asn]) == 0 {
		return fmt.Errorf("anycast: AS%d has no members of group %s", asn, d.Addr)
	}
	s.bgp.OriginateTo(asn, addr.HostPrefix(d.Addr), neighbors...)
	return nil
}

// Resolution describes where an anycast packet lands and how it got there.
type Resolution struct {
	Member topology.RouterID
	// ASPath is the domain-level trajectory, starting at the source's
	// domain and ending at the member's.
	ASPath []topology.ASN
	// Cost is the summed underlay link cost from the source router to
	// the member.
	Cost int64
}

// ResolveFromRouter traces the anycast packet from a router toward a,
// using the live deployment registered under a.
func (s *Service) ResolveFromRouter(from topology.RouterID, a addr.V4) (Resolution, error) {
	d := s.deployments[a]
	if d == nil {
		return Resolution{}, fmt.Errorf("anycast: %s is not a deployed anycast address", a)
	}
	return s.ResolveFromRouterVia(d, from)
}

// ResolveFromRouterVia traces the anycast packet from a router toward
// d's address, resolving capture against the membership in d itself —
// which may be a frozen Clone rather than the live deployment. The
// lock-free send path uses this with each epoch's clone so concurrent
// membership churn cannot tear a resolution.
//
// The trajectory is forward's unicast walk toward the address, stopped
// early: at each domain it enters, a participant domain captures the
// packet and its IGP delivers to the closest member.
func (s *Service) ResolveFromRouterVia(d *Deployment, from topology.RouterID) (Resolution, error) {
	w := s.fwd.Begin(from)
	defer s.fwd.End(w)
	for {
		if members := d.membersByAS[w.Domain()]; len(members) > 0 {
			if m, _, ok := s.igp.ClosestIn(w.At(), members); ok {
				s.fwd.Intra(w, m)
				// The resolution outlives the walk (the redirect cache keeps
				// it): an exact-size copy.
				return Resolution{Member: m, ASPath: forward.Exact(w.ASPath), Cost: w.Cost}, nil
			}
		}

		// Otherwise forward along BGP policy toward the address. A GIA
		// address lies outside every unicast aggregate, so when no
		// (search-advertised) anycast route exists the router derives the
		// fallback from the address itself: toward the home domain.
		local, err := s.fwd.Hop(w, d.Addr)
		if errors.Is(err, forward.ErrNoRoute) && d.Option == OptionGIA {
			local, err = s.fwd.Hop(w, s.net.Domain(d.DefaultAS).Prefix.Addr+1)
		}
		switch {
		case errors.Is(err, forward.ErrNoRoute), errors.Is(err, forward.ErrUnreachable):
			// No covering route, or intra-domain failures severed the way
			// to the border.
			return Resolution{}, ErrNoRoute
		case errors.Is(err, forward.ErrLoop):
			return Resolution{}, ErrForwardingLoop
		case err != nil:
			return Resolution{}, fmt.Errorf("anycast: %w", err)
		case local:
			// The domain itself originates the covering prefix but has no
			// member: the unicast trajectory ends here.
			return Resolution{}, ErrDeadEnd
		}
	}
}

// Bootstrap performs the §3.3.1 anycast bootstrap for a newly joining
// participant: a resolution from one of asn's routers carried out as if
// asn were still a non-participant, yielding some *other* participant's
// IPvN router to tunnel to. Per the paper's footnote, this only works
// before the joining ISP advertises the anycast address itself — the
// method therefore masks asn's participation (capture and, for option 1,
// its BGP origination) for the duration of the trace.
func (s *Service) Bootstrap(d *Deployment, asn topology.ASN, from topology.RouterID) (Resolution, error) {
	if (d.Option == Option2 || d.Option == OptionGIA) && asn == d.DefaultAS {
		return Resolution{}, fmt.Errorf("anycast: the default domain anchors the deployment and cannot bootstrap off itself")
	}
	members := d.membersByAS[asn]
	if len(members) > 0 {
		// Mask the domain's participation: capture, and any BGP
		// originations of the anycast host route (option 1's global
		// route, or option 2's selective peering advertisements).
		delete(d.membersByAS, asn)
		defer func() { d.membersByAS[asn] = members }()
		restore, _ := s.bgp.SuspendOriginations(asn, addr.HostPrefix(d.Addr))
		defer restore()
	}
	// Resolve against d itself, not the registry entry for d.Addr: d may
	// be a frozen clone (epoch builds pass one), and the membership mask
	// above only exists on d.
	return s.ResolveFromRouterVia(d, from)
}

// ResolveFromHost traces from a host (adding its access-link cost).
func (s *Service) ResolveFromHost(h *topology.Host, a addr.V4) (Resolution, error) {
	res, err := s.ResolveFromRouter(h.Attach, a)
	if err != nil {
		return Resolution{}, err
	}
	res.Cost += h.AccessLatency
	return res, nil
}
