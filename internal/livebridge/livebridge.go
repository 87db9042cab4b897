// Package livebridge turns a simulated Evolution into a running overlay:
// one live UDP node per vN-Bone member and per endhost, with bone routes
// derived from the simulator's BGPvN decisions and each host's anycast
// route led by the member the simulator's anycast resolution picks for
// it. The simulator is the control plane; the overlay is the data plane.
// While the members on its path live, every packet a bridged Send
// delivers has crossed real sockets through the exact trajectory the
// simulation predicts. An egress member holds a route only to native
// hosts: a self-addressed packet leaves the bone by the underlay address
// it carries (paper §3.3.2), and so it does early, at the relay before a
// dead member, until the next Reconcile.
//
// The overlay tracks deployment changes in place: Reconcile diffs the
// current routing epoch against the one state it last applied and
// installs only the delta — spawning and retiring members, swapping a
// changed route table whole, re-addressing hosts — leaving unaffected
// nodes untouched. When a rebuild publishes an error epoch, the overlay
// degrades to its last-good configuration instead of tearing down. Each
// host node reports a reliable send that exhausts its retransmission
// budget to the simulator's flow-health layer
// (Evolution.ReportUnackedVN).
package livebridge

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/core"
	"github.com/evolvable-net/evolve/internal/overlaynet"
	"github.com/evolvable-net/evolve/internal/topology"
)

// Overlay is a provisioned live overlay. Members and Hosts are owned by
// the reconciler; read them between reconciles (or after Close), not
// concurrently with one.
type Overlay struct {
	Reg     *overlaynet.Registry
	Members map[topology.RouterID]*overlaynet.Node
	Hosts   map[topology.HostID]*overlaynet.Node

	evo *core.Evolution

	mu sync.Mutex
	// applied is the state the last successful reconcile installed, nil
	// until the first; from then on error epochs degrade to it instead of
	// failing.
	applied *desiredState
}

// desiredState is one epoch's target overlay shape.
type desiredState struct {
	// members maps each bone member to its loopback (the node underlay).
	members map[topology.RouterID]addr.V4
	// routes is each member's per-host /128 table: prefix → next hop. An
	// egress member holds a route only to a native host; a self-addressed
	// packet leaves by the underlay address it carries.
	routes map[topology.RouterID]map[addr.VNPrefix]addr.V4
	// hosts maps each endhost to its IPvN address.
	hosts map[topology.HostID]addr.VN
	// anycast is each endhost's anycast route: the member the simulated
	// anycast resolution from its attach router lands on, then every
	// other member in router-id order.
	anycast map[topology.HostID][]addr.V4
}

// desired computes the target shape from the Evolution's current epoch.
// An error epoch yields an error; the caller decides whether that fails
// provisioning or degrades to last-good.
func (o *Overlay) desired() (*desiredState, error) {
	evo := o.evo
	bone, err := evo.Bone()
	if err != nil {
		return nil, err
	}
	d := &desiredState{
		members: map[topology.RouterID]addr.V4{},
		routes:  map[topology.RouterID]map[addr.VNPrefix]addr.V4{},
		hosts:   map[topology.HostID]addr.VN{},
		anycast: map[topology.HostID][]addr.V4{},
	}
	ids := bone.Members() // router-id order
	loopbacks := make([]addr.V4, len(ids))
	for i, m := range ids {
		loopbacks[i] = evo.Net.Router(m).Loopback
		d.members[m] = loopbacks[i]
	}
	for _, h := range evo.Net.Hosts {
		v, err := evo.HostVNAddr(h)
		if err != nil {
			return nil, err
		}
		d.hosts[h.ID] = v
		route := slices.Clone(loopbacks)
		if res, err := evo.ResolveAnycast(h.Attach, evo.AnycastAddr()); err == nil {
			if i := slices.Index(ids, res.Member); i > 0 {
				// The nearest member moves to the front; the members
				// before it shift back one, keeping router-id order.
				copy(route[1:i+1], loopbacks[:i])
				route[0] = loopbacks[i]
			}
		}
		d.anycast[h.ID] = route
	}
	for m := range d.members {
		table := map[addr.VNPrefix]addr.V4{}
		for _, h := range evo.Net.Hosts {
			v := d.hosts[h.ID]
			// The same decision Send's flow skeleton takes from this member.
			dec, _, err := evo.Route(m, h)
			if err != nil {
				return nil, fmt.Errorf("livebridge: route for %s from %d: %w", h.Name, m, err)
			}
			switch {
			case dec.Member != m && len(dec.BonePath) >= 2:
				table[addr.HostVNPrefix(v)] = evo.Net.Router(dec.BonePath[1]).Loopback
			case !v.IsSelf():
				// This member is the egress: exit straight to the host.
				table[addr.HostVNPrefix(v)] = h.Addr
			}
		}
		d.routes[m] = table
	}
	return d, nil
}

// Provision builds the live overlay for the Evolution's current
// deployment state. Close the returned overlay when done. Deployment
// changes after provisioning are applied in place by Reconcile.
func Provision(evo *core.Evolution) (*Overlay, error) {
	o := &Overlay{
		Reg:     overlaynet.NewRegistry(),
		Members: map[topology.RouterID]*overlaynet.Node{},
		Hosts:   map[topology.HostID]*overlaynet.Node{},
		evo:     evo,
	}
	if err := o.Reconcile(); err != nil {
		o.Close()
		return nil, err
	}
	return o, nil
}

// Reconcile diffs the Evolution's current routing epoch against the
// state the last reconcile applied and installs the delta in place:
// retired members are closed, new members and hosts spawned, and changed
// route tables, host addresses and host anycast routes set whole.
// Unaffected nodes are never touched — their sockets, inboxes and
// counters carry across epochs — so a reconcile with nothing to change
// counts no delta. On an error epoch a provisioned overlay keeps its
// last-good configuration (counted as a reconcile fallback) and returns
// the epoch's error; an unprovisioned one fails.
func (o *Overlay) Reconcile() error {
	o.mu.Lock()
	defer o.mu.Unlock()

	d, err := o.desired()
	if err != nil {
		if o.applied != nil {
			o.Reg.Counters().ReconcileFallback()
		}
		return err
	}
	// A node this reconcile spawns is in no earlier record, so it is
	// given all of its state.
	var last desiredState
	if o.applied != nil {
		last = *o.applied
	}
	deltas := 0

	// Retire members no longer in the bone.
	for id, n := range o.Members {
		if _, keep := d.members[id]; !keep {
			n.Close()
			delete(o.Members, id)
			deltas++
		}
	}
	// Spawn new members.
	for id, loopback := range d.members {
		if _, have := o.Members[id]; have {
			continue
		}
		n, err := overlaynet.NewNode(o.Reg, loopback)
		if err != nil {
			// Some nodes may hold this epoch's state already: record
			// nothing as installed, so the next reconcile sets them all.
			o.applied = &desiredState{}
			return err
		}
		n.ServeAnycast(o.evo.AnycastAddr())
		o.Members[id] = n
		deltas++
	}
	// Swap changed route tables whole.
	for id, table := range d.routes {
		if prev, ok := last.routes[id]; ok && maps.Equal(prev, table) {
			continue
		}
		o.Members[id].SetVNRoutes(table)
		deltas++
	}

	// Hosts: spawn new, re-address changed. Every topology host is in
	// every usable epoch's desired state, so none retires.
	for _, h := range o.evo.Net.Hosts {
		v, route := d.hosts[h.ID], d.anycast[h.ID]
		if n, have := o.Hosts[h.ID]; have {
			if last.hosts[h.ID] != v {
				n.SetVNAddr(v)
				deltas++
			}
			if !slices.Equal(last.anycast[h.ID], route) {
				n.SetAnycastRoute(o.evo.AnycastAddr(), route[0], route[1:]...)
				deltas++
			}
			continue
		}
		n, err := overlaynet.NewNode(o.Reg, h.Addr)
		if err != nil {
			o.applied = &desiredState{}
			return err
		}
		n.SetVNAddr(v)
		n.SetAnycastRoute(o.evo.AnycastAddr(), route[0], route[1:]...)
		// A reliable send that exhausts its retransmission budget is the
		// live plane's per-flow delivery-failure signal: feed it back into
		// the simulator's flow-health layer (a no-op when the Evolution's
		// fallback layer is disabled).
		n.SetSendFailureObserver(func(dst addr.VN) { o.evo.ReportUnackedVN(dst) })
		o.Hosts[h.ID] = n
		deltas++
	}

	if deltas > 0 {
		o.Reg.Counters().ReconcileDeltas(deltas)
	}
	o.applied = d
	return nil
}

// Send delivers a payload from src to dst over the live overlay (host
// encapsulates toward the anycast address; relays and exits follow the
// provisioned routes) and waits for the destination's inbox.
func (o *Overlay) Send(src, dst *topology.Host, payload []byte, timeout time.Duration) (overlaynet.Received, error) {
	o.mu.Lock()
	srcNode, srcOK := o.Hosts[src.ID]
	dstNode, dstOK := o.Hosts[dst.ID]
	o.mu.Unlock()
	if !srcOK {
		return overlaynet.Received{}, fmt.Errorf("livebridge: unknown src host %s", src.Name)
	}
	if !dstOK {
		return overlaynet.Received{}, fmt.Errorf("livebridge: unknown dst host %s", dst.Name)
	}
	if err := srcNode.SendVN(o.evo.AnycastAddr(), dstNode.VNAddr(), payload); err != nil {
		return overlaynet.Received{}, err
	}
	return dstNode.WaitInbox(timeout)
}

// Close shuts every node down.
func (o *Overlay) Close() {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, n := range o.Members {
		n.Close()
	}
	for _, n := range o.Hosts {
		n.Close()
	}
}
