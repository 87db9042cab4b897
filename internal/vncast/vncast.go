// Package vncast is the payoff demonstration: the capability whose failed
// deployment motivates the whole paper — multicast — delivered as a
// feature of the *new* IP generation, running over the vN-Bone. §2.1's
// cautionary tale is that IP Multicast died for lack of universal access;
// here IPv8-multicast inherits universal access from the anycast
// redirection beneath it: any host can subscribe, no matter what its ISP
// deploys.
//
// The design is deliberately simple (source-rooted shortest-path trees
// over the virtual topology, subscriber state at egress members), because
// the point is architectural: once the vN-Bone exists, the group
// capability is an IPvN-layer feature ISPs deploy like any other — and
// the measured payoff (tree cost vs repeated unicast) is exactly the
// bandwidth argument multicast always made.
package vncast

import (
	"errors"
	"fmt"
	"sort"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/core"
	"github.com/evolvable-net/evolve/internal/topology"
)

// Errors.
var (
	// ErrEmptyGroup: delivering to a group with no subscribers.
	ErrEmptyGroup = errors.New("vncast: group has no subscribers")
	// ErrNotMulticast: the address is not an IPvN group address.
	ErrNotMulticast = errors.New("vncast: not a multicast IPvN address")
)

// subscription pins one host to its egress member (the IPvN router,
// found via anycast, that delivers the group's traffic to it).
type subscription struct {
	host   *topology.Host
	egress topology.RouterID
	// tailCost is the underlay cost from the egress to the host.
	tailCost int64
}

// Group is one IPvN multicast group.
type Group struct {
	Addr addr.VN
	subs map[topology.HostID]subscription
}

// Service manages groups over one Evolution.
type Service struct {
	evo    *core.Evolution
	groups map[addr.VN]*Group
}

// New creates the multicast layer of an IPvN deployment.
func New(evo *core.Evolution) *Service {
	return &Service{evo: evo, groups: map[addr.VN]*Group{}}
}

// CreateGroup allocates (or returns) the group numbered g.
func (s *Service) CreateGroup(g uint32) *Group {
	a := addr.MulticastVN(g)
	if grp, ok := s.groups[a]; ok {
		return grp
	}
	grp := &Group{Addr: a, subs: map[topology.HostID]subscription{}}
	s.groups[a] = grp
	return grp
}

// Subscribe joins a host to the group. Universal access applies: the
// host's join rides anycast to the closest IPvN router, which becomes its
// egress; no support from the host's own ISP is needed.
func (s *Service) Subscribe(grp *Group, h *topology.Host) error {
	if !grp.Addr.IsMulticast() {
		return ErrNotMulticast
	}
	res, err := s.evo.ResolveAnycast(h.Attach, s.evo.AnycastAddr())
	if err != nil {
		return fmt.Errorf("vncast: subscribe %s: %w", h.Name, err)
	}
	grp.subs[h.ID] = subscription{host: h, egress: res.Member, tailCost: res.Cost + h.AccessLatency}
	return nil
}

// Delivery accounts one multicast transmission.
type Delivery struct {
	// Subscribers reached.
	Subscribers int
	// IngressCost is the source's anycast leg.
	IngressCost int64
	// TreeLinks is the number of distinct vN-Bone links in the
	// distribution tree; TreeCost their summed cost (each link carries
	// the packet once — that is the whole point).
	TreeLinks int
	TreeCost  int64
	// TailCost sums the egress→subscriber legs.
	TailCost int64
	// TotalCost is the multicast delivery's full underlay cost.
	TotalCost int64
	// UnicastCost is what reaching every subscriber with separate IPvN
	// unicast sends would have cost.
	UnicastCost int64
	// Saving is 1 − TotalCost/UnicastCost.
	Saving float64
}

// Tree is a group's source-rooted distribution state: for every on-tree
// member, its downstream branch members and its leaf subscribers. This is
// exactly the replication state a live vN router installs.
type Tree struct {
	Ingress  topology.RouterID
	Branches map[topology.RouterID][]topology.RouterID
	Leaves   map[topology.RouterID][]*topology.Host
	// Links counts distinct tree edges; Cost their summed bone cost;
	// TailCost the summed egress→subscriber legs; IngressCost the
	// source's anycast leg.
	Links                       int
	Cost, TailCost, IngressCost int64
}

// BuildTree computes the source-rooted shortest-path tree over the
// vN-Bone for grp's current subscribers.
func (s *Service) BuildTree(grp *Group, src *topology.Host) (*Tree, error) {
	if len(grp.subs) == 0 {
		return nil, ErrEmptyGroup
	}
	bone, err := s.evo.Bone()
	if err != nil {
		return nil, err
	}
	ing, err := s.evo.ResolveAnycast(src.Attach, s.evo.AnycastAddr())
	if err != nil {
		return nil, fmt.Errorf("vncast: ingress: %w", err)
	}
	t := &Tree{
		Ingress:     ing.Member,
		Branches:    map[topology.RouterID][]topology.RouterID{},
		Leaves:      map[topology.RouterID][]*topology.Host{},
		IngressCost: ing.Cost + src.AccessLatency,
	}
	type edge struct{ a, b topology.RouterID }
	seen := map[edge]bool{}
	hostIDs := make([]topology.HostID, 0, len(grp.subs))
	for id := range grp.subs {
		hostIDs = append(hostIDs, id)
	}
	sort.Slice(hostIDs, func(i, j int) bool { return hostIDs[i] < hostIDs[j] })
	for _, id := range hostIDs {
		sub := grp.subs[id]
		path := bone.Path(ing.Member, sub.egress)
		if path == nil {
			return nil, fmt.Errorf("vncast: egress %d unreachable on bone", sub.egress)
		}
		for i := 0; i+1 < len(path); i++ {
			e := edge{path[i], path[i+1]}
			if seen[e] {
				continue
			}
			seen[e] = true
			t.Branches[path[i]] = append(t.Branches[path[i]], path[i+1])
			t.Links++
			t.Cost += bone.Dist(path[i], path[i+1])
		}
		t.Leaves[sub.egress] = append(t.Leaves[sub.egress], sub.host)
		t.TailCost += sub.tailCost
	}
	return t, nil
}

// Deliver sends payload from src to every subscriber of grp, building a
// source-rooted shortest-path tree over the vN-Bone, and returns the cost
// accounting against repeated unicast.
func (s *Service) Deliver(grp *Group, src *topology.Host, payload []byte) (Delivery, error) {
	tree, err := s.BuildTree(grp, src)
	if err != nil {
		return Delivery{}, err
	}
	d := Delivery{
		Subscribers: len(grp.subs),
		IngressCost: tree.IngressCost,
		TreeLinks:   tree.Links,
		TreeCost:    tree.Cost,
		TailCost:    tree.TailCost,
	}
	d.TotalCost = d.IngressCost + d.TreeCost + d.TailCost
	hostIDs := make([]topology.HostID, 0, len(grp.subs))
	for id := range grp.subs {
		hostIDs = append(hostIDs, id)
	}
	sort.Slice(hostIDs, func(i, j int) bool { return hostIDs[i] < hostIDs[j] })

	// Baseline: one IPvN unicast per subscriber (each pays the full
	// ingress + bone + tail path).
	for _, id := range hostIDs {
		sub := grp.subs[id]
		ud, err := s.evo.Send(src, sub.host, payload)
		if err != nil {
			return Delivery{}, fmt.Errorf("vncast: unicast baseline to %s: %w", sub.host.Name, err)
		}
		d.UnicastCost += ud.TotalCost
	}
	if d.UnicastCost > 0 {
		d.Saving = 1 - float64(d.TotalCost)/float64(d.UnicastCost)
	}
	return d, nil
}
