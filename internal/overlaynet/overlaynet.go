// Package overlaynet is the live prototype: vN-Bone nodes as goroutines
// bound to real UDP sockets on localhost, exchanging the actual wire
// formats of internal/packet through real tunnels. The simulated internet
// supplies the *control plane* (which router is the anycast ingress, what
// the bone routes are); this package executes the *data plane* — encap at
// the host toward the anycast address, decap/relay at each vN router,
// exit toward self-addressed destinations — over genuine sockets.
//
// A node's bone table is set whole (SetVNRoutes), one next hop per
// prefix. A packet its table has no route for, or whose next hop is not
// live, leaves the bone by the underlay address a self-addressed
// destination carries in an option (paper §3.3.2), counted as an exit; a
// native destination without a route is a drop.
//
// A node relays unicast IPvN packets only: it keeps no multicast group
// state, so a packet addressed to an IPvN multicast group is dropped
// (internal/vncast computes group trees in the simulator).
//
// The Registry stands in for IPv(N-1) routing: it maps underlay addresses
// to UDP endpoints. Where an anycast packet (or an echo reply or ack)
// enters is the sending node's one anycast route (SetAnycastRoute): the
// member unicast routing delivers its packets to, then the alternates, as
// the simulator's routing orders them. This is the documented
// substitution for a real multi-ISP underlay (DESIGN.md §2): the code
// paths above the socket layer are identical.
//
// The data plane is self-healing (DESIGN.md §9): a node probes the peers
// its own routes name (EnableLiveness) and keeps the only record of their
// health, and its first hops and next hops route around the peers it
// suspects — no node acts on another's verdict;
// SendVN gains an opt-in acked/retransmitting mode (EnableReliable) with
// receiver-side dedup; and a FaultTransport installed on the Registry
// subjects every wire write to seeded drop/duplicate/delay/partition
// faults so the live plane gets the same deterministic adversarial
// treatment the simulator gets from internal/chaos.
package overlaynet

import (
	"encoding/binary"
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
	// ErrClosed: the node has been shut down.
	ErrClosed = errors.New("overlaynet: node closed")
	// ErrNotAcked: an acked send exhausted its retransmission budget.
	ErrNotAcked = errors.New("overlaynet: delivery not acknowledged")
	// ErrReliableDisabled: SendVNReliable on a node without EnableReliable.
	ErrReliableDisabled = errors.New("overlaynet: reliable mode not enabled")
)

// Registry is the stand-in for global IPv(N-1) routing: underlay address →
// UDP endpoint. Beside that address book it carries an optional
// FaultTransport every wire write passes through and the always-on
// live-plane counters. It holds no health state: each node keeps its own
// view of its peers.
type Registry struct {
	mu      sync.RWMutex
	unicast map[addr.V4]*net.UDPAddr

	// faults is installed once and read per datagram, so it sits outside
	// mu: a send takes the lock once, for the address book.
	faults atomic.Pointer[FaultTransport]

	counters trace.Counters
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{unicast: map[addr.V4]*net.UDPAddr{}}
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

// removeNode withdraws a closing node's binding. A route that still names
// it passes it over, as unregistered.
func (r *Registry) removeNode(a addr.V4) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.unicast, a)
}

// Endpoint resolves an underlay address.
func (r *Registry) Endpoint(a addr.V4) (*net.UDPAddr, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ep, ok := r.unicast[a]
	return ep, ok
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

// trainCap is the most bytes a node packs into one datagram: an
// Ethernet MTU less the IPv4 and UDP headers. A larger packet travels
// alone.
const trainCap = 1472

// rxDepth bounds the queue between a node's receive goroutine and its
// handler, a quarter of the inbox: it need only hold the datagrams one
// burst brings between two handler wake-ups, since the socket's receive
// buffer queues beyond it. The queue of originated packets has the same
// bound; a SendVN that finds it full waits for the handler.
const rxDepth = 64

// train is the datagram a node is filling for one next hop: originated
// and re-addressed packets back to back, each delimited by its V4 total
// length.
type train struct {
	member addr.V4
	ep     netip.AddrPort
	buf    []byte
}

// outgoing is an originated packet on its way to the handler: resolved,
// and serialized into a pooled buffer that goes back to the pool once the
// packet has boarded its train.
type outgoing struct {
	member addr.V4
	ep     netip.AddrPort
	buf    *packet.SerializeBuffer
}

// nextHops is an anycast route's members in order of preference: the
// member unicast routing delivers to, then the alternates used when it is
// dead or suspected. Never empty.
type nextHops []addr.V4

// anycastRoute is a node's one anycast route: its address and members.
type anycastRoute struct {
	to  addr.V4
	via nextHops
}

// Node is one live overlay participant (vN router or endhost).
type Node struct {
	Underlay addr.V4

	reg    *Registry
	conn   *net.UDPConn
	vnAddr addr.VN
	served map[addr.V4]bool

	// routes is the bone table, IPvN prefix → next hop. SetVNRoutes
	// replaces it whole and never edits a published one, so a relay reads
	// it without taking mu.
	routes atomic.Pointer[rib.TableVN[addr.V4]]
	// peers is the node's own record of its peers' health: exactly the
	// next hops its bone table and anycast route name. It is replaced
	// whole under mu, so a relay reads its verdicts without taking mu.
	peers atomic.Pointer[map[addr.V4]*peerState]

	mu      sync.RWMutex
	anycast anycastRoute
	// boneHops is the bone table's next-hop set, kept for repeerLocked.
	boneHops map[addr.V4]bool
	// echoOn makes the node answer "ping:" payloads with "pong:" replies.
	echoOn bool
	// probing is set once EnableLiveness has started the prober, which
	// numbers its probes with nonce. probeEvery, zero but in tests, is
	// the round interval in place of probeInterval.
	probing    bool
	nonce      uint64
	probeEvery time.Duration
	rel        *reliableState
	// sendFailObs, when set, hears every reliable send that exhausts its
	// retransmission budget (see SetSendFailureObserver).
	sendFailObs func(dst addr.VN)

	// inbox receives payloads addressed to this node. Buffered; overflow
	// is dropped and counted.
	inbox chan Received

	// stats holds the Stats tallies, one atomic cell each. A tally moves
	// before its datagram leaves (or its inbox send wakes a reader):
	// counted afterwards, the receiver could look at this node's Stats
	// before they moved.
	stats struct{ delivered, forwarded, exited, dropped atomic.Uint64 }

	// rx carries datagrams from the receive goroutine to the handler, and
	// tx originated packets from SendVN; the handler sends its trains
	// whenever both are empty. sending orders a SendVN's queueing before
	// Close (see sendVN).
	rx      chan []byte
	tx      chan outgoing
	sending sync.RWMutex
	// trains and opts belong to the handler goroutine: one train per next
	// hop the node has sent to, and the option scratch handle decodes
	// IPvN headers into.
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
		inbox:    make(chan Received, 256),
		rx:       make(chan []byte, rxDepth),
		tx:       make(chan outgoing, rxDepth),
		done:     make(chan struct{}),
	}
	n.routes.Store(&rib.TableVN[addr.V4]{})
	n.peers.Store(&map[addr.V4]*peerState{})
	reg.Register(underlay, conn.LocalAddr().(*net.UDPAddr))
	n.wg.Add(2)
	go n.readLoop()
	go n.handleLoop()
	return n, nil
}

// Close shuts the node down and withdraws its address-book entry, so
// every route that names it passes it over. Every packet a SendVN
// accepted has been sent by the time Close returns.
func (n *Node) Close() error {
	n.closeOnce.Do(func() {
		n.sending.Lock()
		close(n.done)
		n.sending.Unlock()
		n.reg.removeNode(n.Underlay)
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

// EnableEcho makes the node answer a payload beginning with "ping:", not
// delivered to the Inbox, with "pong:" plus the rest, sent to the IPvN
// source through the node's anycast route (no route: counted dropped).
func (n *Node) EnableEcho() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.echoOn = true
}

// SetVNRoutes replaces the node's bone route table: IPvN prefix → the
// underlay address of its one next hop. The table is built aside and
// swapped in whole, so a packet relayed meanwhile finds the old table or
// the new one, never a part of either. The peer set is recomputed (see
// repeerLocked).
func (n *Node) SetVNRoutes(routes map[addr.VNPrefix]addr.V4) {
	table := &rib.TableVN[addr.V4]{}
	hops := map[addr.V4]bool{}
	for p, next := range routes {
		table.Insert(p, next)
		hops[next] = true
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.routes.Store(table)
	n.boneHops = hops
	n.repeerLocked()
}

// SetAnycastRoute replaces the node's one anycast route, whatever address
// it was toward, with one toward a: the member unicast routing delivers
// the node's packets to, then ordered alternates used when it is dead or
// suspected. Echo replies and acks leave through it; a packet toward any
// other address goes as unicast. The peer set is recomputed (see
// repeerLocked).
func (n *Node) SetAnycastRoute(a, via addr.V4, alts ...addr.V4) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.anycast = anycastRoute{to: a, via: append(nextHops{via}, alts...)}
	n.repeerLocked()
}

// repeerLocked recomputes the peer set whole: every next hop the bone
// table and the anycast route name, the node itself aside. A peer still
// named keeps its record and so its health history; one no longer named
// is dropped, and no longer probed. Callers hold mu.
func (n *Node) repeerLocked() {
	old := *n.peers.Load()
	peers := make(map[addr.V4]*peerState, len(old))
	name := func(p addr.V4) {
		if p == n.Underlay || peers[p] != nil {
			return
		}
		ps := old[p]
		if ps == nil {
			ps = &peerState{}
		}
		peers[p] = ps
	}
	for p := range n.boneHops {
		name(p)
	}
	for _, p := range n.anycast.via {
		name(p)
	}
	n.peers.Store(&peers)
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
// mode. The packet leaves on the train toward its first hop, at the
// latest when Close returns.
func (n *Node) SendVN(anycastAddr addr.V4, dst addr.VN, payload []byte) error {
	return n.sendVN(anycastAddr, dst, payload, nil)
}

// sendVN chooses the packet's first hop and serializes it on the caller,
// so a closed node or an unknown destination is the call's error, then
// queues it for the handler, which boards it on that hop's train as it
// would a relayed packet. The handler never calls it: waiting on its own
// full queue, it would wait forever (its sends go through replyVN).
func (n *Node) sendVN(anycastAddr addr.V4, dst addr.VN, payload []byte, extra *packet.Option) error {
	o, err := n.prepare(anycastAddr, dst, payload, extra)
	if err != nil {
		return err
	}
	// Close closes done under the write lock, so a packet queued under
	// the read lock of an open node is one the handler still boards. The
	// send may wait for room with the read lock held: the handler, which
	// makes the room, never takes the lock.
	n.sending.RLock()
	defer n.sending.RUnlock()
	if n.closed() {
		packet.PutSerializeBuffer(o.buf)
		return ErrClosed
	}
	n.tx <- o
	return nil
}

// replyVN is sendVN for the handler's own sends, echo replies and acks:
// the packet boards its train at once, through the node's anycast route
// whatever its address. It reports whether the packet left.
func (n *Node) replyVN(dst addr.VN, payload []byte, extra *packet.Option) bool {
	n.mu.RLock()
	src, route := n.vnAddr, n.anycast
	n.mu.RUnlock()
	if route.via == nil {
		return false
	}
	o, err := n.encap(src, route, dst, payload, extra)
	if err == nil {
		n.originate(o)
	}
	return err == nil
}

// prepare encapsulates a packet toward anycastAddr (see encap) through
// the node's anycast route if the route is toward that address, and as
// unicast to that address if not.
func (n *Node) prepare(anycastAddr addr.V4, dst addr.VN, payload []byte, extra *packet.Option) (outgoing, error) {
	n.mu.RLock()
	src, route := n.vnAddr, n.anycast
	n.mu.RUnlock()
	if route.to != anycastAddr || route.via == nil {
		route = anycastRoute{to: anycastAddr, via: nextHops{anycastAddr}}
	}
	return n.encap(src, route, dst, payload, extra)
}

// encap chooses an originated packet's first hop from an anycast route
// (a closed node chooses nothing) and serializes the packet, with the
// extra option if there is one, into a pooled buffer. Leaving through an
// alternate counts as an anycast failover.
// The header and its options stay on the stack, so a send allocates
// nothing; an append that could grow the option slice would move them to
// the heap.
func (n *Node) encap(src addr.VN, route anycastRoute, dst addr.VN, payload []byte, extra *packet.Option) (outgoing, error) {
	if n.closed() {
		return outgoing{}, ErrClosed
	}
	next, ep, _ := n.target(route.via)
	if ep == nil {
		return outgoing{}, fmt.Errorf("%w: %s", ErrUnknownUnderlay, next)
	}
	if next != route.via[0] {
		n.ctr().FailoverAnycast()
	}
	var opts [2]packet.Option
	var underlay [4]byte
	k := 0
	if u, ok := dst.Underlay(); ok {
		binary.BigEndian.PutUint32(underlay[:], uint32(u))
		opts[k] = packet.Option{Type: packet.OptUnderlayDst, Value: underlay[:]}
		k++
	}
	if extra != nil {
		opts[k] = *extra
		k++
	}
	hdr := packet.VNHeader{Version: 8, Src: src, Dst: dst, Options: opts[:k]}
	outer := packet.V4Header{Proto: packet.ProtoVNEncap, Src: n.Underlay, Dst: route.to}
	buf := packet.GetSerializeBuffer()
	if err := packet.SerializeVN(buf, payload, &outer, &hdr); err != nil {
		packet.PutSerializeBuffer(buf)
		return outgoing{}, err
	}
	return outgoing{member: next, ep: ep.AddrPort(), buf: buf}, nil
}

// target chooses the next hop from a next-hop set — the members of an
// anycast route, or the one next hop of a relay — and resolves its
// endpoint, in one locked pass over the registry's address book: the
// first registered candidate this node does not suspect (live); failing
// that, the first registered one (suspicion is a hint, and a
// possibly-dead hop beats a certain black hole); failing that, the first,
// with a nil endpoint. The node's verdicts are read without its lock.
func (n *Node) target(nh nextHops) (next addr.V4, ep *net.UDPAddr, live bool) {
	peers := *n.peers.Load()
	r := n.reg
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range nh {
		if ep, ok := r.unicast[c]; ok && !peers[c].isSuspected() {
			return c, ep, true
		}
	}
	for _, c := range nh {
		if ep, ok := r.unicast[c]; ok {
			return c, ep, false
		}
	}
	return nh[0], nil, false
}

// originate boards an originated packet on the train toward its first hop
// and returns its buffer to the pool.
func (n *Node) originate(o outgoing) {
	n.board(o.member, o.ep, o.buf.Bytes())
	packet.PutSerializeBuffer(o.buf)
}

// closed reports whether Close has begun.
func (n *Node) closed() bool {
	select {
	case <-n.done:
		return true
	default:
		return false
	}
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
// arrival order and the originated packets in send order. Once Close has
// begun it boards what SendVN queued, sends every train and closes the
// socket, whose last writer it is.
func (n *Node) handleLoop() {
	defer n.wg.Done()
	for {
		select {
		case dg := <-n.rx:
			n.receive(dg)
		case o := <-n.tx:
			n.originate(o)
			n.flushIfIdle()
		case <-n.done:
			for len(n.tx) > 0 {
				n.originate(<-n.tx)
			}
			n.flush()
			n.conn.Close()
			return
		}
	}
}

// receive is the handler's datagram entry. It hands each packet of the
// datagram's train to handle in order, a packet whose total length
// cannot delimit it taking the rest of the datagram with it, then
// flushes if idle.
func (n *Node) receive(dg []byte) {
	for {
		var pkt []byte
		pkt, dg = packet.NextInTrain(dg)
		n.handle(pkt)
		if len(dg) == 0 {
			break
		}
	}
	n.flushIfIdle()
}

// flushIfIdle sends the node's trains once neither a datagram nor an
// originated packet is queued for the handler — the queues running dry,
// not a timer, so no packet waits for one that has not arrived.
func (n *Node) flushIfIdle() {
	if len(n.rx) == 0 && len(n.tx) == 0 {
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
			if ep, ok := n.reg.Endpoint(outer.Src); ok {
				n.sendProbe(outer.Src, ep.AddrPort(), nonce, true)
			}
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
	self, echoOn := n.vnAddr, n.echoOn
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
		if echoOn && len(payload) >= len(pingMagic) && string(payload[:len(pingMagic)]) == string(pingMagic) {
			reply := append(append([]byte(nil), pongMagic...), payload[len(pingMagic):]...)
			n.stats.delivered.Add(1)
			if !n.replyVN(inner.Src, reply, nil) {
				n.uncount(&n.stats.delivered)
			}
			return
		}
		n.deliver(Received{From: inner.Src, To: inner.Dst, Payload: payload, OuterSrc: outer.Src})
		return
	}

	// Forward over the bone.
	if next, _, haveRoute := n.routes.Load().Lookup(inner.Dst); haveRoute {
		n.relay(next, wire, &n.stats.forwarded, &inner)
		return
	}

	// No bone route: exit toward the destination's underlay address
	// (self-addressed destinations carry it).
	if u, ok := inner.UnderlayDst(); ok {
		n.relay(u, wire, &n.stats.exited, nil)
		return
	}
	n.stats.dropped.Add(1)
}

// deliver hands a payload to the inbox, counting overflow as a drop.
func (n *Node) deliver(rcv Received) bool {
	n.stats.delivered.Add(1)
	select {
	case n.inbox <- rcv:
		return true
	default:
		n.uncount(&n.stats.delivered)
		return false
	}
}

// relay spends the one IPvN hop wire — a packet of the datagram the
// handler owns — costs at this node, dropping it (counted) when none is
// left, then re-addresses it toward its next hop and puts it on that
// hop's train: the same in-place hop as tunnel.Endpoint.PatchEncap, no
// header re-serialized. A live next hop (registered, and not suspected by
// this node) gets the packet. Failing that, a self-addressed destination
// leaves the bone by the underlay address its header (inner, nil for that
// exit itself) carries, as where the table has no route (paper §3.3.2),
// counted as an exit and a route failover; any other packet goes to the
// next hop if it is registered.
//
// relay owns the relay's counters: as — stats.forwarded for a hop further
// along the bone, stats.exited for the exit toward an underlay address —
// and a failover are counted before the packet boards its train, and as
// is taken back as a drop if the next hop does not resolve.
func (n *Node) relay(next addr.V4, wire []byte, as *atomic.Uint64, inner *packet.VNHeader) {
	if err := tunnel.DecrementHop(wire); err != nil {
		n.stats.dropped.Add(1)
		return
	}
	_, ep, live := n.target(nextHops{next})
	if !live && inner != nil {
		if u, ok := inner.UnderlayDst(); ok {
			next, as = u, &n.stats.exited
			_, ep, _ = n.target(nextHops{u})
			n.ctr().FailoverRoute()
		}
	}
	packet.RewriteOuter(wire, n.Underlay, next)
	as.Add(1)
	if ep == nil || n.closed() {
		n.uncount(as)
		return
	}
	n.board(next, ep.AddrPort(), wire)
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

// WaitInbox receives from the node's inbox with a timeout, for tests and
// examples.
func (n *Node) WaitInbox(timeout time.Duration) (Received, error) {
	select {
	case r := <-n.inbox:
		return r, nil
	default:
	}
	// A stopped timer is freed at once; time.After's would be held by the
	// runtime until timeout elapsed, however soon the inbox answered.
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case r := <-n.inbox:
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
	peers := *n.peers.Load()
	out := make([]PeerStatus, 0, len(peers))
	for p, st := range peers {
		out = append(out, PeerStatus{Peer: p, Suspected: st.suspected.Load(), Misses: st.misses})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}
