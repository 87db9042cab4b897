// Package livebridge turns a simulated Evolution into a running overlay:
// one live UDP node per vN-Bone member and per endhost, with bone routes
// derived from the simulator's BGPvN decisions and anycast resolution
// delegated to the simulator's routing. The simulator is the control
// plane; the overlay is the data plane. Every packet a bridged Send
// delivers has crossed real sockets through the exact trajectory the
// simulation predicts.
//
// The overlay tracks deployment changes in place: Reconcile (or the
// Watch goroutine, driven by the Evolution's epoch publications) diffs
// the running overlay against the current routing epoch and applies only
// the delta — spawning and retiring nodes, patching route tables and
// anycast member lists — leaving unaffected nodes untouched. When a
// rebuild publishes an error epoch, the overlay degrades to its
// last-good configuration instead of tearing down.
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
	"github.com/evolvable-net/evolve/internal/vncast"
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

	liveCfg *overlaynet.LivenessConfig
	relCfg  *overlaynet.ReliableConfig
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
// changes after provisioning are applied in place by Reconcile (or
// automatically via Watch).
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
		if o.liveCfg != nil {
			n.EnableLiveness(*o.liveCfg)
		}
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
		if o.liveCfg != nil {
			n.EnableLiveness(*o.liveCfg)
		}
		if o.relCfg != nil {
			n.EnableReliable(*o.relCfg)
		}
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

// Watch subscribes the overlay to the Evolution's epoch publications and
// reconciles after each one (coalesced). Error epochs are tolerated —
// the overlay degrades to last-good and retries on the next epoch. The
// returned stop function unsubscribes and waits for the watcher to exit.
func (o *Overlay) Watch() (stop func()) {
	ch, cancel := o.evo.WatchEpochs()
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			case <-ch:
				// Reconcile failures here are error epochs (fallback
				// counted inside) or socket exhaustion; the watcher keeps
				// going — the next good epoch heals the overlay.
				_ = o.Reconcile()
				// Each epoch tick also pushes the live plane's current
				// suspicion verdicts into the flow-health layer.
				o.FeedPeerHealth()
			}
		}
	}()
	return func() {
		cancel()
		close(quit)
		<-done
	}
}

// FeedPeerHealth pushes the live plane's current suspicion verdicts into
// the simulator's flow-health layer: every member node's peer-health
// table is scanned, suspected peers are mapped back to their bone
// routers, and each suspect is reported through
// Evolution.ReportPeerSuspect so flows whose memoised delivery skeletons
// ride through a suspected router degrade without waiting for their own
// delivery errors. Called from the Watch loop on every epoch tick; safe
// to call directly after a liveness sweep. Returns the number of
// flow-health records signalled (0 when the Evolution's fallback layer
// is disabled).
func (o *Overlay) FeedPeerHealth() int {
	o.mu.Lock()
	nodes := make([]*overlaynet.Node, 0, len(o.Members))
	for _, n := range o.Members {
		nodes = append(nodes, n)
	}
	o.mu.Unlock()
	suspects := map[topology.RouterID]bool{}
	for _, n := range nodes {
		for _, ps := range n.PeerHealth() {
			if !ps.Suspected {
				continue
			}
			if r := o.evo.Net.RouterByLoopback(ps.Peer); r != nil {
				suspects[r.ID] = true
			}
		}
	}
	total := 0
	for id := range suspects {
		total += o.evo.ReportPeerSuspect(id)
	}
	return total
}

// EnableLiveness turns on keepalive probing for every current and future
// overlay node (see overlaynet.LivenessConfig).
func (o *Overlay) EnableLiveness(cfg overlaynet.LivenessConfig) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.liveCfg = &cfg
	for _, n := range o.Members {
		n.EnableLiveness(cfg)
	}
	for _, n := range o.Hosts {
		n.EnableLiveness(cfg)
	}
}

// EnableReliable turns on the acked/retransmitting delivery mode for
// every current and future host node. cfg.AckVia defaults to the
// deployment's anycast address.
func (o *Overlay) EnableReliable(cfg overlaynet.ReliableConfig) {
	if cfg.AckVia == 0 {
		cfg.AckVia = o.evo.AnycastAddr()
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.relCfg = &cfg
	for _, n := range o.Hosts {
		n.EnableReliable(cfg)
	}
}

// Send delivers a payload from src to dst over the live overlay (host
// encapsulates toward the anycast address; relays and exits follow the
// provisioned routes) and waits for the destination's inbox.
func (o *Overlay) Send(src, dst *topology.Host, payload []byte, timeout time.Duration) (overlaynet.Received, error) {
	srcNode, dstNode, err := o.hostPair(src, dst)
	if err != nil {
		return overlaynet.Received{}, err
	}
	if err := srcNode.SendVN(o.evo.AnycastAddr(), dstNode.VNAddr(), payload); err != nil {
		return overlaynet.Received{}, err
	}
	return dstNode.WaitInbox(timeout)
}

// SendReliable is Send in the acked/retransmitting mode (EnableReliable
// first): it returns once the destination has acknowledged the delivery
// and the payload has been popped from its inbox.
func (o *Overlay) SendReliable(src, dst *topology.Host, payload []byte, timeout time.Duration) (overlaynet.Received, error) {
	srcNode, dstNode, err := o.hostPair(src, dst)
	if err != nil {
		return overlaynet.Received{}, err
	}
	if err := srcNode.SendVNReliable(o.evo.AnycastAddr(), dstNode.VNAddr(), payload); err != nil {
		return overlaynet.Received{}, err
	}
	return dstNode.WaitInbox(timeout)
}

func (o *Overlay) hostPair(src, dst *topology.Host) (*overlaynet.Node, *overlaynet.Node, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	srcNode, ok := o.Hosts[src.ID]
	if !ok {
		return nil, nil, fmt.Errorf("livebridge: unknown src host %s", src.Name)
	}
	dstNode, ok := o.Hosts[dst.ID]
	if !ok {
		return nil, nil, fmt.Errorf("livebridge: unknown dst host %s", dst.Name)
	}
	return srcNode, dstNode, nil
}

// ProvisionMulticast installs a multicast group's distribution tree
// (computed by the simulator's vncast layer) onto the live overlay: each
// on-tree member node gets its branch and leaf replication state. The
// source then sends a single packet to the group address and every live
// subscriber node receives a copy.
func (o *Overlay) ProvisionMulticast(svc *vncast.Service, grp *vncast.Group, src *topology.Host) (addr.VN, error) {
	tree, err := svc.BuildTree(grp, src)
	if err != nil {
		return addr.VN{}, err
	}
	// Collect the on-tree members (branch points plus leaf egresses).
	onTree := map[topology.RouterID]bool{tree.Ingress: true}
	for m := range tree.Branches {
		onTree[m] = true
	}
	for m := range tree.Leaves {
		onTree[m] = true
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for m := range onTree {
		node, ok := o.Members[m]
		if !ok {
			return addr.VN{}, fmt.Errorf("livebridge: tree member %d not provisioned", m)
		}
		var branches, leaves []addr.V4
		for _, b := range tree.Branches[m] {
			branches = append(branches, o.evo.Net.Router(b).Loopback)
		}
		for _, h := range tree.Leaves[m] {
			leaves = append(leaves, h.Addr)
		}
		node.SetMulticastRoute(grp.Addr, branches, leaves)
	}
	return grp.Addr, nil
}

// SendMulticast originates one live packet from src toward the group
// address; the provisioned tree replicates it to every subscriber node.
func (o *Overlay) SendMulticast(src *topology.Host, group addr.VN, payload []byte) error {
	o.mu.Lock()
	srcNode, ok := o.Hosts[src.ID]
	o.mu.Unlock()
	if !ok {
		return fmt.Errorf("livebridge: unknown src host %s", src.Name)
	}
	return srcNode.SendVN(o.evo.AnycastAddr(), group, payload)
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
