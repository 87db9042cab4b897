package overlaynet

import (
	"net/netip"
	"sync/atomic"
	"time"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/packet"
	"github.com/evolvable-net/evolve/internal/tunnel"
)

const (
	// probeInterval is the time between probe rounds.
	probeInterval = 50 * time.Millisecond
	// suspectAfter is the consecutive-miss count at which a node
	// suspects a peer.
	suspectAfter = 3
)

// peerState is a node's health record of one peer. misses and
// outstanding are guarded by the node's mu; suspected is written under it
// and read without it, by the node's next-hop choice.
type peerState struct {
	suspected atomic.Bool
	misses    int
	// outstanding is the nonce of the probe still awaiting its ack, zero
	// when the last probe was answered.
	outstanding uint64
}

// isSuspected reports the node's verdict on a peer; a node suspects no
// address it does not probe (a nil record).
func (ps *peerState) isSuspected() bool { return ps != nil && ps.suspected.Load() }

// EnableLiveness starts keepalive probing of the node's peers, the next
// hops its own routes name: every probeInterval each registered peer is
// sent a nonce'd probe; an unanswered probe counts a miss, suspectAfter
// consecutive misses make the node suspect the peer (steering its own
// first hops and next hops around it, and no other node's), and a
// subsequent ack recovers it. Idempotent.
func (n *Node) EnableLiveness() {
	n.mu.Lock()
	if n.probing {
		n.mu.Unlock()
		return
	}
	n.probing = true
	every := n.probeEvery
	n.mu.Unlock()
	if every == 0 {
		every = probeInterval
	}

	n.wg.Add(1)
	go n.probeLoop(every)
}

func (n *Node) probeLoop(every time.Duration) {
	defer n.wg.Done()
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-n.done:
			return
		case <-tick.C:
			n.probeRound()
		}
	}
}

// probeRound scores the previous round (outstanding probes are misses)
// and sends a fresh probe to every peer. A peer with no address-book
// entry can be sent nothing: it is neither probed nor scored, and its
// record waits for it to register again.
func (n *Node) probeRound() {
	type probe struct {
		peer  addr.V4
		ps    *peerState
		ep    netip.AddrPort
		nonce uint64
	}
	peers := *n.peers.Load()
	probes := make([]probe, 0, len(peers))
	for p, ps := range peers {
		if ep, ok := n.reg.Endpoint(p); ok {
			probes = append(probes, probe{peer: p, ps: ps, ep: ep.AddrPort()})
		}
	}

	n.mu.Lock()
	for i := range probes {
		ps := probes[i].ps
		if ps.outstanding != 0 {
			ps.misses++
			n.ctr().ProbeMissed()
			if !ps.suspected.Load() && ps.misses >= suspectAfter {
				ps.suspected.Store(true)
				n.ctr().PeerSuspected()
			}
		}
		n.nonce++
		ps.outstanding = n.nonce
		probes[i].nonce = n.nonce
	}
	n.mu.Unlock()

	for _, p := range probes {
		if n.sendProbe(p.peer, p.ep, p.nonce, false) {
			n.ctr().ProbeSent()
		}
	}
}

// sendProbe emits a probe or probe-ack carrying the nonce toward a peer's
// endpoint and reports whether it was written. Probes go through the
// normal wire path (including fault injection, unless DataOnly) but
// choose no route: a probe targets one concrete peer.
func (n *Node) sendProbe(peer addr.V4, ep netip.AddrPort, nonce uint64, ack bool) bool {
	wire, err := tunnel.EncodeProbe(n.Underlay, peer, nonce, ack)
	if err != nil {
		return false
	}
	n.writeWire(peer, ep, wire)
	return true
}

// handleProbeAck clears the peer's outstanding probe and, if the node
// suspected it, recovers it. Stale acks (an earlier round's nonce) still
// prove the peer alive and are honoured.
func (n *Node) handleProbeAck(outer packet.V4Header) {
	ps := (*n.peers.Load())[outer.Src]
	if ps == nil {
		return
	}
	n.mu.Lock()
	ps.outstanding = 0
	ps.misses = 0
	recovered := ps.suspected.Swap(false)
	n.mu.Unlock()
	if recovered {
		n.ctr().PeerRecovered()
	}
}
