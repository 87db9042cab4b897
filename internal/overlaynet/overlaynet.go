// Package overlaynet is the live prototype: vN-Bone nodes as goroutines
// bound to real UDP sockets on localhost, exchanging the actual wire
// formats of internal/packet through real tunnels. The simulated internet
// supplies the *control plane* (which router is the anycast ingress, what
// the bone routes are); this package executes the *data plane* — encap at
// the host toward the anycast address, decap/relay at each vN router,
// exit toward self-addressed destinations — over genuine sockets.
//
// A node relays unicast IPvN packets only: it keeps no multicast group
// state, so a packet addressed to an IPvN multicast group is dropped
// (internal/vncast computes group trees in the simulator).
//
// The Registry stands in for IPv(N-1) routing: it maps underlay addresses
// to UDP endpoints and resolves anycast addresses to their current member
// list (ordered by proximity, as the simulator's routing would). This is
// the documented substitution for a real multi-ISP underlay (DESIGN.md
// §2): the code paths above the socket layer are identical.
//
// The data plane is self-healing (DESIGN.md §9): nodes probe their active
// peers (EnableLiveness) and report suspected-dead peers to the Registry,
// which routes anycast resolution and bone relays around them; SendVN
// gains an opt-in acked/retransmitting mode (EnableReliable) with
// receiver-side dedup; and a FaultTransport installed on the Registry
// subjects every wire write to seeded drop/duplicate/delay/partition
// faults so the live plane gets the same deterministic adversarial
// treatment the simulator gets from internal/chaos.
package overlaynet

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/packet"
	"github.com/evolvable-net/evolve/internal/rib"
	"github.com/evolvable-net/evolve/internal/trace"
	"github.com/evolvable-net/evolve/internal/tunnel"
)

// Errors.
var (
	// ErrUnknownUnderlay: the registry has no endpoint for an address.
	ErrUnknownUnderlay = errors.New("overlaynet: unknown underlay address")
	// ErrNoAnycastMember: an anycast address has no registered members.
	ErrNoAnycastMember = errors.New("overlaynet: anycast group empty")
	// ErrClosed: the node has been shut down.
	ErrClosed = errors.New("overlaynet: node closed")
	// ErrNotAcked: an acked send exhausted its retransmission budget.
	ErrNotAcked = errors.New("overlaynet: delivery not acknowledged")
	// ErrReliableDisabled: SendVNReliable on a node without EnableReliable.
	ErrReliableDisabled = errors.New("overlaynet: reliable mode not enabled")
)

// Resolver answers "where does an anycast packet from src land" — the
// hook through which a control plane (e.g. the simulator's routing)
// drives per-source anycast resolution in the live overlay.
type Resolver func(src, anycastAddr addr.V4) (addr.V4, bool)

// Registry is the stand-in for global IPv(N-1) routing: underlay address →
// UDP endpoint, anycast address → proximity-ordered member list, plus an
// optional per-source Resolver that overrides the static ordering.
//
// The Registry also carries the live plane's shared health state: peers
// reported suspected-dead by nodes' liveness probing (resolution and
// relays route around them), an optional FaultTransport every wire write
// passes through, and the always-on live-plane counters.
type Registry struct {
	mu      sync.RWMutex
	unicast map[addr.V4]*net.UDPAddr
	anycast map[addr.V4][]addr.V4
	// suspected maps a peer to the set of reporting nodes that currently
	// consider it dead; a peer with any reporter is routed around.
	suspected map[addr.V4]map[addr.V4]bool

	// resolver and faults are installed once and read per datagram, so
	// they sit outside mu: a send takes the lock once, for the tables.
	resolver atomic.Pointer[Resolver]
	faults   atomic.Pointer[FaultTransport]

	counters trace.Counters
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		unicast:   map[addr.V4]*net.UDPAddr{},
		anycast:   map[addr.V4][]addr.V4{},
		suspected: map[addr.V4]map[addr.V4]bool{},
	}
}

// Counters returns the registry's live-plane counters (probes, failovers,
// retransmits, injected faults, reconcile deltas). Always on; reading a
// Snapshot is safe at any time.
func (r *Registry) Counters() *trace.Counters { return &r.counters }

// SetFaultTransport installs (or, with nil, removes) the wire-fault
// injection layer every node send passes through.
func (r *Registry) SetFaultTransport(ft *FaultTransport) {
	if ft != nil {
		ft.counters = &r.counters
	}
	r.faults.Store(ft)
}

// Register binds an underlay address to a UDP endpoint.
func (r *Registry) Register(a addr.V4, ep *net.UDPAddr) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.unicast[a] = ep
}

// RemoveNode erases every trace of a departed node: its unicast binding,
// its membership in every anycast group, suspicion state about it, and
// any suspicions it had reported about others. Without the anycast sweep
// a closed node would linger in member lists as a stale resolver target,
// black-holing traffic until process exit.
func (r *Registry) RemoveNode(a addr.V4) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.unicast, a)
	for any, members := range r.anycast {
		kept := members[:0]
		for _, m := range members {
			if m != a {
				kept = append(kept, m)
			}
		}
		r.anycast[any] = kept
	}
	delete(r.suspected, a)
	for peer, reporters := range r.suspected {
		delete(reporters, a)
		if len(reporters) == 0 {
			delete(r.suspected, peer)
		}
	}
}

// Endpoint resolves an underlay address.
func (r *Registry) Endpoint(a addr.V4) (*net.UDPAddr, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ep, ok := r.unicast[a]
	return ep, ok
}

// SetAnycastMembers installs the proximity-ordered member list for an
// anycast address — the control-plane output of the simulated routing.
func (r *Registry) SetAnycastMembers(a addr.V4, members []addr.V4) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.anycast[a] = append([]addr.V4(nil), members...)
}

// SetResolver installs a per-source anycast resolver; a nil resolver
// reverts to the static member ordering.
func (r *Registry) SetResolver(f Resolver) {
	if f == nil {
		r.resolver.Store(nil)
		return
	}
	r.resolver.Store(&f)
}

// suspect records reporter's verdict that peer is dead.
func (r *Registry) suspect(reporter, peer addr.V4) {
	r.mu.Lock()
	defer r.mu.Unlock()
	set := r.suspected[peer]
	if set == nil {
		set = map[addr.V4]bool{}
		r.suspected[peer] = set
	}
	set[reporter] = true
}

// unsuspect withdraws reporter's verdict about peer.
func (r *Registry) unsuspect(reporter, peer addr.V4) {
	r.mu.Lock()
	defer r.mu.Unlock()
	set := r.suspected[peer]
	delete(set, reporter)
	if len(set) == 0 {
		delete(r.suspected, peer)
	}
}

// aliveLocked: registered and not suspected. Callers hold mu (any mode).
func (r *Registry) aliveLocked(a addr.V4) bool {
	_, ok := r.unicast[a]
	return ok && len(r.suspected[a]) == 0
}

// resolveAnycastLocked returns the closest live member of the group per
// the installed ordering: registered members suspected dead are skipped
// (and the skip counted as an anycast failover). When every registered
// member is suspected, the closest registered one is returned anyway —
// suspicion is a hint, and a possibly-dead ingress beats a guaranteed
// black hole. Callers hold mu (any mode).
func (r *Registry) resolveAnycastLocked(a addr.V4) (addr.V4, bool) {
	skipped := false
	for _, m := range r.anycast[a] {
		if _, ok := r.unicast[m]; !ok {
			continue
		}
		if len(r.suspected[m]) > 0 {
			skipped = true
			continue
		}
		if skipped {
			r.counters.FailoverAnycast()
		}
		return m, true
	}
	for _, m := range r.anycast[a] {
		if _, ok := r.unicast[m]; ok {
			return m, true
		}
	}
	return 0, false
}

// resolveFrom maps any destination (anycast or unicast) to its concrete
// member address and UDP endpoint, consulting the per-source resolver
// first. A resolver nomination wins only while the nominee is registered
// and not suspected dead; otherwise resolution falls through to the
// proximity-ordered member list, so a stale control-plane answer cannot
// black-hole traffic the static ordering could still deliver. The resolver
// runs outside the lock (it calls into the control plane); everything it
// is checked against is read in one locked pass.
func (r *Registry) resolveFrom(src, dst addr.V4) (addr.V4, *net.UDPAddr, error) {
	var nominee addr.V4
	nominated := false
	if res := r.resolver.Load(); res != nil {
		nominee, nominated = (*res)(src, dst)
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if nominated {
		if r.aliveLocked(nominee) {
			dst = nominee
		} else if fallback, ok := r.resolveAnycastLocked(dst); ok {
			if fallback != nominee {
				r.counters.FailoverAnycast()
			}
			dst = fallback
		} else if _, registered := r.unicast[nominee]; registered {
			dst = nominee // nothing better on file; try the nominee anyway
		}
	}
	if m, ok := r.resolveAnycastLocked(dst); ok {
		dst = m
	}
	ep, ok := r.unicast[dst]
	if !ok {
		return 0, nil, fmt.Errorf("%w: %s", ErrUnknownUnderlay, dst)
	}
	return dst, ep, nil
}

// Received is one payload delivered to a node as final destination.
type Received struct {
	From    addr.VN
	To      addr.VN
	Payload []byte
	// OuterSrc is the underlay address of the last tunnel hop.
	OuterSrc addr.V4
}

// Stats counts a node's data-plane activity.
type Stats struct {
	Delivered uint64
	Forwarded uint64
	Exited    uint64
	Dropped   uint64
}

// trainCap is the most bytes a relay packs into one datagram: an
// Ethernet MTU less the IPv4 and UDP headers. A larger packet travels
// alone.
const trainCap = 1472

// rxDepth bounds the queue between a node's receive goroutine and its
// handler, a quarter of the inbox: it need only hold the datagrams one
// burst brings between two handler wake-ups, since the socket's receive
// buffer queues beyond it.
const rxDepth = 64

// train is the datagram a relay is filling for one next hop: re-addressed
// packets back to back, each delimited by its V4 total length.
type train struct {
	member addr.V4
	ep     netip.AddrPort
	buf    []byte
}

// nextHops is one bone route's forwarding set, in order of preference:
// the primary next hop, then the alternates used when it is dead or
// suspected. Never empty.
type nextHops []addr.V4

// Node is one live overlay participant (vN router or endhost).
type Node struct {
	Underlay addr.V4

	reg    *Registry
	conn   *net.UDPConn
	vnAddr addr.VN
	served map[addr.V4]bool

	mu     sync.RWMutex
	routes rib.TableVN[nextHops] // IPvN prefix → next-hop set
	// echoVia, when set, makes the node answer "ping:" payloads with
	// "pong:" replies sent back through the given anycast address.
	echoVia addr.V4
	echoOn  bool
	// peers is the liveness probing target set, auto-populated from route
	// next hops and extended explicitly with AddPeer.
	peers map[addr.V4]*peerState
	live  *livenessState
	rel   *reliableState
	// sendFailObs, when set, hears every reliable send that exhausts its
	// retransmission budget (see SetSendFailureObserver).
	sendFailObs func(dst addr.VN)

	// Inbox receives payloads addressed to this node. Buffered; overflow
	// is dropped and counted.
	Inbox chan Received

	// stats holds the Stats tallies, one atomic cell each. A tally moves
	// before its datagram leaves (or its inbox send wakes a reader):
	// counted afterwards, the receiver could look at this node's Stats
	// before they moved.
	stats struct{ delivered, forwarded, exited, dropped atomic.Uint64 }

	// rx carries datagrams from the receive goroutine to the handler,
	// which sends its trains whenever rx is empty.
	rx chan []byte
	// trains and opts belong to the goroutine that handles datagrams:
	// one train per next hop the node has relayed to (none on a node that
	// never relays), and the option scratch handle decodes IPvN headers
	// into.
	trains []train
	opts   []packet.Option

	closeOnce sync.Once
	done      chan struct{}
	wg        sync.WaitGroup
}

// NewNode binds a UDP socket on 127.0.0.1 and registers the node.
func NewNode(reg *Registry, underlay addr.V4) (*Node, error) {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("overlaynet: listen: %w", err)
	}
	// Relay nodes see every packet of a burst; a roomy receive buffer
	// keeps the kernel from shedding load before the read loop runs.
	_ = conn.SetReadBuffer(1 << 20)
	n := &Node{
		Underlay: underlay,
		reg:      reg,
		conn:     conn,
		served:   map[addr.V4]bool{},
		peers:    map[addr.V4]*peerState{},
		Inbox:    make(chan Received, 256),
		rx:       make(chan []byte, rxDepth),
		done:     make(chan struct{}),
	}
	reg.Register(underlay, conn.LocalAddr().(*net.UDPAddr))
	n.wg.Add(2)
	go n.readLoop()
	go n.handleLoop()
	return n, nil
}

// Close shuts the node down and removes it from the registry — unicast
// binding, anycast memberships and suspicion state included, so a dead
// node can never linger as a resolver target.
func (n *Node) Close() error {
	n.closeOnce.Do(func() {
		close(n.done)
		n.reg.RemoveNode(n.Underlay)
		n.conn.Close()
	})
	n.wg.Wait()
	return nil
}

// ctr returns the shared live-plane counters.
func (n *Node) ctr() *trace.Counters { return &n.reg.counters }

// SetVNAddr assigns the node's own IPvN address (native or self).
func (n *Node) SetVNAddr(v addr.VN) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.vnAddr = v
}

// VNAddr returns the node's IPvN address.
func (n *Node) VNAddr() addr.VN {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.vnAddr
}

// ServeAnycast makes this node accept packets whose outer destination is
// the given anycast address (an IPvN router's defining property).
func (n *Node) ServeAnycast(a addr.V4) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.served[a] = true
}

// Echo payload prefixes.
var (
	pingMagic = []byte("ping:")
	pongMagic = []byte("pong:")
)

// EnableEcho makes the node answer payloads beginning with "ping:" by
// sending "pong:" plus the rest back to the IPvN source, re-entering the
// overlay through the given anycast address. Echoed pings are not
// delivered to the Inbox.
func (n *Node) EnableEcho(via addr.V4) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.echoVia = via
	n.echoOn = true
}

// AddVNRoute installs a bone route: IPvN prefix → next-hop member's
// underlay address, with optional ordered alternates used when the
// primary is dead or suspected. Every next hop becomes a liveness
// probing peer.
func (n *Node) AddVNRoute(p addr.VNPrefix, via addr.V4, alts ...addr.V4) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.routes.Insert(p, append(nextHops{via}, alts...))
	n.addPeerLocked(via)
	for _, a := range alts {
		n.addPeerLocked(a)
	}
}

// ClearVNRoutes drops the node's entire bone route table (epoch
// reconciliation replaces tables wholesale). Probing peers are kept;
// their health history survives route churn.
func (n *Node) ClearVNRoutes() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.routes = rib.TableVN[nextHops]{}
}

// Stats returns a snapshot of the node's counters. Each field is read
// atomically; the four are not one atomic snapshot.
func (n *Node) Stats() Stats {
	return Stats{
		Delivered: n.stats.delivered.Load(),
		Forwarded: n.stats.forwarded.Load(),
		Exited:    n.stats.exited.Load(),
		Dropped:   n.stats.dropped.Load(),
	}
}

// uncount takes back a tally counted ahead of a write that then failed,
// and counts the packet as dropped instead — the drop first, so a reader
// in between sees the packet twice rather than not at all.
func (n *Node) uncount(tally *atomic.Uint64) {
	n.stats.dropped.Add(1)
	tally.Add(^uint64(0))
}

// SendVN originates an IPvN packet from this node: encapsulated toward
// the anycast address (universal access — the node needs no knowledge of
// deployment state). Fire-and-forget; see SendVNReliable for the acked
// mode.
func (n *Node) SendVN(anycastAddr addr.V4, dst addr.VN, payload []byte) error {
	return n.sendVN(anycastAddr, dst, payload, nil)
}

func (n *Node) sendVN(anycastAddr addr.V4, dst addr.VN, payload []byte, extra []packet.Option) error {
	hdr := packet.VNHeader{
		Version: 8,
		Src:     n.VNAddr(),
		Dst:     dst,
	}
	if u, ok := dst.Underlay(); ok {
		hdr = hdr.WithUnderlayDst(u)
	}
	hdr.Options = append(hdr.Options, extra...)
	outer := packet.V4Header{
		Proto: packet.ProtoVNEncap,
		Src:   n.Underlay,
		Dst:   anycastAddr,
	}
	buf := packet.NewSerializeBuffer()
	if err := packet.Serialize(buf, payload, &outer, &hdr); err != nil {
		return err
	}
	// An originated packet leaves as a datagram of its own; only relays
	// send trains, when their receive queue drains.
	member, ep, err := n.resolve(anycastAddr)
	if err != nil {
		return err
	}
	n.writeWire(member, ep, buf.Bytes())
	return nil
}

// resolve maps dst (anycast or unicast) to the member and endpoint a
// write toward it goes to; a closed node resolves nothing.
func (n *Node) resolve(dst addr.V4) (addr.V4, netip.AddrPort, error) {
	select {
	case <-n.done:
		return 0, netip.AddrPort{}, ErrClosed
	default:
	}
	member, ep, err := n.reg.resolveFrom(n.Underlay, dst)
	if err != nil {
		return 0, netip.AddrPort{}, err
	}
	return member, ep.AddrPort(), nil
}

// writeWire performs the physical write of one datagram — a packet or a
// train — toward a resolved endpoint, subject to injected faults keyed on
// the (src, member) link.
func (n *Node) writeWire(member addr.V4, ep netip.AddrPort, wire []byte) {
	if ft := n.reg.faults.Load(); ft != nil {
		ft.apply(n.Underlay, member, wire, func(w []byte) { n.write(ep, w) })
		return
	}
	n.write(ep, wire)
}

func (n *Node) write(ep netip.AddrPort, w []byte) {
	// Write errors are UDP best-effort territory (and expected from delayed
	// writes racing Close); loss is the retransmit layer's job.
	_, _ = n.conn.WriteToUDPAddrPort(w, ep)
}

// readLoop is the receive goroutine: it copies each datagram off the
// socket and queues it for the handler.
func (n *Node) readLoop() {
	defer n.wg.Done()
	buf := make([]byte, 64*1024)
	for {
		sz, err := n.conn.Read(buf)
		if err != nil {
			select {
			case <-n.done:
				return
			default:
				continue
			}
		}
		dg := make([]byte, sz)
		copy(dg, buf[:sz])
		select {
		case n.rx <- dg:
		case <-n.done:
			return
		}
	}
}

// handleLoop is the handler goroutine: it takes the queued datagrams in
// arrival order.
func (n *Node) handleLoop() {
	defer n.wg.Done()
	for {
		select {
		case dg := <-n.rx:
			n.receive(dg)
		case <-n.done:
			return
		}
	}
}

// receive is the handler's datagram entry. It hands each packet of the
// datagram's train to handle in order, a packet whose total length
// cannot delimit it taking the rest of the datagram with it, and sends
// the node's trains once no datagram is queued behind this one — the
// queue running dry, not a timer, so no packet waits for one that has
// not arrived.
func (n *Node) receive(dg []byte) {
	for {
		var pkt []byte
		pkt, dg = packet.NextInTrain(dg)
		n.handle(pkt)
		if len(dg) == 0 {
			break
		}
	}
	if len(n.rx) == 0 {
		n.flush()
	}
}

// handle is the per-packet decision of a vN router/host: liveness control
// traffic first, then the forwarding path.
func (n *Node) handle(wire []byte) {
	outer, rest, err := packet.DecodeV4(wire)
	if err != nil {
		n.stats.dropped.Add(1)
		return
	}
	switch outer.Proto {
	case packet.ProtoProbe, packet.ProtoProbeAck:
		_, nonce, ack, err := tunnel.DecodeProbe(wire)
		switch {
		case err != nil:
			n.stats.dropped.Add(1)
		case ack:
			n.handleProbeAck(outer)
		default:
			// Answer a keepalive with an ack echoing its nonce.
			n.sendProbe(outer.Src, nonce, true)
		}
		return
	case packet.ProtoVNEncap:
	default:
		n.stats.dropped.Add(1)
		return
	}
	// The options alias wire, which the handler owns; none outlives this
	// call, so one scratch serves every packet.
	inner, payload, err := packet.DecodeVNShared(rest, n.opts[:0])
	if err != nil {
		n.stats.dropped.Add(1)
		return
	}
	n.opts = inner.Options[:0]
	n.mu.RLock()
	acceptable := outer.Dst == n.Underlay || n.served[outer.Dst]
	self := n.vnAddr
	n.mu.RUnlock()
	if !acceptable {
		n.stats.dropped.Add(1)
		return
	}

	// The live plane keeps no group state: a multicast-addressed packet
	// has nowhere to go.
	if inner.Dst.IsMulticast() {
		n.stats.dropped.Add(1)
		return
	}

	// Final destination?
	if !inner.Dst.IsZero() && inner.Dst == self {
		// Reliability control plane: acks confirm pending sends; seq-marked
		// data packets are deduplicated and acknowledged.
		if seq, ok := deliveryOpt(inner, packet.OptDeliveryAck); ok {
			n.confirmAck(seq)
			return
		}
		if seq, ok := deliveryOpt(inner, packet.OptDeliverySeq); ok {
			n.handleSeqDelivery(inner, payload, outer.Src, seq)
			return
		}
		n.mu.RLock()
		echoOn, echoVia := n.echoOn, n.echoVia
		n.mu.RUnlock()
		if echoOn && len(payload) >= len(pingMagic) && string(payload[:len(pingMagic)]) == string(pingMagic) {
			reply := append(append([]byte(nil), pongMagic...), payload[len(pingMagic):]...)
			n.stats.delivered.Add(1)
			if err := n.SendVN(echoVia, inner.Src, reply); err != nil {
				n.uncount(&n.stats.delivered)
			}
			return
		}
		n.deliver(Received{From: inner.Src, To: inner.Dst, Payload: payload, OuterSrc: outer.Src})
		return
	}

	// Forward over the bone.
	n.mu.RLock()
	nh, _, haveRoute := n.routes.Lookup(inner.Dst)
	n.mu.RUnlock()
	if haveRoute {
		n.relay(nh, wire, &n.stats.forwarded)
		return
	}

	// No bone route: exit toward the destination's underlay address
	// (self-addressed destinations carry it).
	if u, ok := inner.UnderlayDst(); ok {
		n.relay(nextHops{u}, wire, &n.stats.exited)
		return
	}
	n.stats.dropped.Add(1)
}

// deliver hands a payload to the inbox, counting overflow as a drop.
func (n *Node) deliver(rcv Received) bool {
	n.stats.delivered.Add(1)
	select {
	case n.Inbox <- rcv:
		return true
	default:
		n.uncount(&n.stats.delivered)
		return false
	}
}

// relay spends the one IPvN hop wire — a packet of the datagram the
// handler owns — costs at this node, dropping it (counted) when none is
// left, then re-addresses it toward the next live underlay hop and puts
// it on that hop's train: the same in-place hop as
// tunnel.Endpoint.PatchEncap, no header re-serialized. The primary next
// hop is preferred; a dead or suspected primary fails over to the first
// live alternate (counted), and as a last resort any registered candidate
// is tried in order.
//
// relay owns the relay's counters: as — stats.forwarded for a hop further
// along the bone, stats.exited for the exit toward an underlay address —
// and a failover are counted before the packet boards its train, and as
// is taken back as a drop if the next hop does not resolve.
func (n *Node) relay(nh nextHops, wire []byte, as *atomic.Uint64) {
	if err := tunnel.DecrementHop(wire); err != nil {
		n.stats.dropped.Add(1)
		return
	}
	next, failover := n.pickNextHop(nh)
	packet.RewriteOuter(wire, n.Underlay, next)
	if failover {
		n.ctr().FailoverRoute()
	}
	as.Add(1)
	member, ep, err := n.resolve(next)
	if err != nil {
		n.uncount(as)
		return
	}
	n.board(member, ep, wire)
}

// board appends wire to the train toward member, sending the train first
// if wire would overflow it; a packet larger than a train is written on
// its own, behind what the train held.
func (n *Node) board(member addr.V4, ep netip.AddrPort, wire []byte) {
	var t *train
	for i := range n.trains {
		if n.trains[i].member == member {
			t = &n.trains[i]
			break
		}
	}
	if t == nil {
		n.trains = append(n.trains, train{member: member, buf: make([]byte, 0, trainCap)})
		t = &n.trains[len(n.trains)-1]
	}
	t.ep = ep // the latest resolution: a member can re-register on a new socket
	if len(t.buf)+len(wire) > trainCap {
		n.sendTrain(t)
		if len(wire) > trainCap {
			n.writeWire(member, ep, wire)
			return
		}
	}
	t.buf = append(t.buf, wire...)
}

// flush sends every train.
func (n *Node) flush() {
	for i := range n.trains {
		n.sendTrain(&n.trains[i])
	}
}

// sendTrain writes t, if it holds a packet, as one datagram and empties it.
func (n *Node) sendTrain(t *train) {
	if len(t.buf) > 0 {
		n.writeWire(t.member, t.ep, t.buf)
	}
	t.buf = t.buf[:0]
}

// pickNextHop chooses the forwarding target from a route's next-hop set:
// the first registered, unsuspected candidate in primary-then-alternates
// order; failing that, the first registered candidate; failing that, the
// primary (whose send will fail and be counted). The second return
// reports whether a non-primary hop was chosen.
func (n *Node) pickNextHop(nh nextHops) (addr.V4, bool) {
	r := n.reg
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range nh {
		if r.aliveLocked(c) {
			return c, c != nh[0]
		}
	}
	for _, c := range nh {
		if _, ok := r.unicast[c]; ok {
			return c, c != nh[0]
		}
	}
	return nh[0], false
}

// WaitInbox receives from the node's inbox with a timeout, for tests and
// examples.
func (n *Node) WaitInbox(timeout time.Duration) (Received, error) {
	select {
	case r := <-n.Inbox:
		return r, nil
	default:
	}
	// A stopped timer is freed at once; time.After's would be held by the
	// runtime until timeout elapsed, however soon the inbox answered.
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case r := <-n.Inbox:
		return r, nil
	case <-t.C:
		return Received{}, fmt.Errorf("overlaynet: timeout waiting for delivery at %s", n.Underlay)
	case <-n.done:
		return Received{}, ErrClosed
	}
}

// SetSendFailureObserver installs a callback invoked whenever one of this
// node's reliable sends exhausts its retransmission budget (ErrNotAcked)
// toward an IPvN destination — the live plane's strongest per-flow
// delivery-failure signal. A bridged control plane subscribes here to
// feed its per-flow health state (livebridge wires the observer to
// Evolution.ReportUnackedVN). A nil fn removes the observer. The callback
// runs on the failing sender's goroutine; keep it brief.
func (n *Node) SetSendFailureObserver(fn func(dst addr.VN)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.sendFailObs = fn
}

// notifySendFailure invokes the send-failure observer, if any.
func (n *Node) notifySendFailure(dst addr.VN) {
	n.mu.RLock()
	fn := n.sendFailObs
	n.mu.RUnlock()
	if fn != nil {
		fn(dst)
	}
}

// PeerStatus is one row of a node's peer-health table.
type PeerStatus struct {
	Peer      addr.V4
	Suspected bool
	// Misses is the current consecutive unanswered-probe count.
	Misses int
}

// PeerHealth returns the node's peer-health table, sorted by peer
// address — the data behind overlayd's /debug/peers view.
func (n *Node) PeerHealth() []PeerStatus {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]PeerStatus, 0, len(n.peers))
	for p, st := range n.peers {
		out = append(out, PeerStatus{Peer: p, Suspected: st.suspected, Misses: st.misses})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}
