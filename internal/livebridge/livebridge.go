// Package livebridge turns a simulated Evolution into a running overlay:
// one live UDP node per vN-Bone member and per endhost, with bone routes
// derived from the simulator's BGPvN decisions and anycast resolution
// delegated to the simulator's routing. The simulator is the control
// plane; the overlay is the data plane. Every packet a bridged Send
// delivers has crossed real sockets through the exact trajectory the
// simulation predicts.
//
// The overlay tracks deployment changes in place: Reconcile diffs the
// running overlay against the current routing epoch and applies only the
// delta — spawning and retiring nodes, patching route tables and anycast
// member lists — leaving unaffected nodes untouched. When a rebuild
// publishes an error epoch, the overlay degrades to its last-good
// configuration instead of tearing down. Each host node reports a
// reliable send that exhausts its retransmission budget to the
// simulator's flow-health layer (Evolution.ReportUnackedVN).
package livebridge

import (
	"fmt"
	"sort"
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
	// lastRoutes caches each member's installed route table for diffing;
	// hostVN caches each host node's assigned IPvN address.
	lastRoutes map[topology.RouterID]map[addr.VNPrefix]addr.V4
	hostVN     map[topology.HostID]addr.VN
	// provisioned flips after the first successful reconcile; from then
	// on error epochs degrade to last-good instead of failing.
	provisioned bool
}

// desiredState is one epoch's target overlay shape.
type desiredState struct {
	// members maps each bone member to its loopback (the node underlay).
	members map[topology.RouterID]addr.V4
	// routes is each member's per-host /128 table: prefix → next hop.
	routes map[topology.RouterID]map[addr.VNPrefix]addr.V4
	// hosts maps each endhost to its IPvN address.
	hosts map[topology.HostID]addr.VN
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
	}
	for _, m := range bone.Members() {
		d.members[m] = evo.Net.Router(m).Loopback
	}
	for _, h := range evo.Net.Hosts {
		v, err := evo.HostVNAddr(h)
		if err != nil {
			return nil, err
		}
		d.hosts[h.ID] = v
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
			if dec.Member == m || len(dec.BonePath) < 2 {
				// This member is the egress: exit straight to the host.
				table[addr.HostVNPrefix(v)] = h.Addr
			} else {
				table[addr.HostVNPrefix(v)] = o.evo.Net.Router(dec.BonePath[1]).Loopback
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
		Reg:        overlaynet.NewRegistry(),
		Members:    map[topology.RouterID]*overlaynet.Node{},
		Hosts:      map[topology.HostID]*overlaynet.Node{},
		evo:        evo,
		lastRoutes: map[topology.RouterID]map[addr.VNPrefix]addr.V4{},
		hostVN:     map[topology.HostID]addr.VN{},
	}

	// Anycast resolution delegates to the simulator's routing: the
	// ingress for a packet from src is whatever the simulated anycast
	// trajectory says on the Evolution's current epoch (a unicast
	// destination — every relay hop — is turned away at the door). A
	// nominee the live plane has suspected dead is overridden by the
	// Registry's proximity fallthrough.
	o.Reg.SetResolver(func(src, anycastAddr addr.V4) (addr.V4, bool) {
		var from topology.RouterID
		if h := evo.Net.FindHost(src); h != nil {
			from = h.Attach
		} else if r := evo.Net.RouterByLoopback(src); r != nil {
			from = r.ID
		} else {
			return 0, false
		}
		res, err := evo.ResolveAnycast(from, anycastAddr)
		if err != nil {
			return 0, false
		}
		return evo.Net.Router(res.Member).Loopback, true
	})

	if err := o.Reconcile(); err != nil {
		o.Close()
		return nil, err
	}
	return o, nil
}

// Reconcile diffs the running overlay against the Evolution's current
// routing epoch and applies the delta in place: retired members are
// closed, new members spawned, changed route tables and host addresses
// patched, and the Registry's anycast member list refreshed. Unaffected
// nodes are never touched — their sockets, inboxes and counters carry
// across epochs. On an error epoch a provisioned overlay keeps its
// last-good configuration (counted as a reconcile fallback) and returns
// the epoch's error; an unprovisioned one fails.
func (o *Overlay) Reconcile() error {
	o.mu.Lock()
	defer o.mu.Unlock()

	d, err := o.desired()
	if err != nil {
		if o.provisioned {
			o.Reg.Counters().ReconcileFallback()
			return err
		}
		return err
	}

	deltas := 0

	// Retire members no longer in the bone.
	for id, n := range o.Members {
		if _, keep := d.members[id]; !keep {
			n.Close()
			delete(o.Members, id)
			delete(o.lastRoutes, id)
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
			return err
		}
		n.ServeAnycast(o.evo.AnycastAddr())
		o.Members[id] = n
		deltas++
	}
	// Patch changed route tables wholesale (cheap: tables are small and
	// the swap is atomic per prefix under the node's lock).
	for id, table := range d.routes {
		if routesEqual(o.lastRoutes[id], table) {
			continue
		}
		n := o.Members[id]
		n.ClearVNRoutes()
		for p, via := range table {
			n.AddVNRoute(p, via)
		}
		o.lastRoutes[id] = table
		deltas++
	}

	// Hosts: spawn new, retire gone, re-address changed.
	for id, n := range o.Hosts {
		if _, keep := d.hosts[id]; !keep {
			n.Close()
			delete(o.Hosts, id)
			delete(o.hostVN, id)
			deltas++
		}
	}
	for _, h := range o.evo.Net.Hosts {
		v, ok := d.hosts[h.ID]
		if !ok {
			continue
		}
		if n, have := o.Hosts[h.ID]; have {
			if o.hostVN[h.ID] != v {
				n.SetVNAddr(v)
				o.hostVN[h.ID] = v
				deltas++
			}
			continue
		}
		n, err := overlaynet.NewNode(o.Reg, h.Addr)
		if err != nil {
			return err
		}
		n.SetVNAddr(v)
		// A reliable send that exhausts its retransmission budget is the
		// live plane's per-flow delivery-failure signal: feed it back into
		// the simulator's flow-health layer (a no-op when the Evolution's
		// fallback layer is disabled).
		n.SetSendFailureObserver(func(dst addr.VN) { o.evo.ReportUnackedVN(dst) })
		o.Hosts[h.ID] = n
		deltas++
	}

	// Refresh the anycast member list (deterministic order: router ID) so
	// the Registry's proximity fallthrough has a live-member list even
	// when the simulator's resolver nominates a suspected peer.
	ids := make([]topology.RouterID, 0, len(d.members))
	for id := range d.members {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	members := make([]addr.V4, len(ids))
	for i, id := range ids {
		members[i] = d.members[id]
	}
	o.Reg.SetAnycastMembers(o.evo.AnycastAddr(), members)

	if deltas > 0 {
		o.Reg.Counters().ReconcileDeltas(deltas)
	}
	o.provisioned = true
	return nil
}

func routesEqual(a, b map[addr.VNPrefix]addr.V4) bool {
	if len(a) != len(b) {
		return false
	}
	for p, v := range a {
		if b[p] != v {
			return false
		}
	}
	return true
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
