package overlaynet

import (
	"time"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/packet"
	"github.com/evolvable-net/evolve/internal/tunnel"
)

// LivenessConfig parameterizes peer keepalive probing.
type LivenessConfig struct {
	// Interval between probe rounds. Default 50ms.
	Interval time.Duration
	// SuspectAfter is the consecutive-miss count at which a peer is
	// reported suspected dead to the Registry. Default 3.
	SuspectAfter int
}

func (c LivenessConfig) withDefaults() LivenessConfig {
	if c.Interval <= 0 {
		c.Interval = 50 * time.Millisecond
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 3
	}
	return c
}

// peerState is one probing target's health record.
type peerState struct {
	suspected bool
	misses    int
	// outstanding is the nonce of the probe still awaiting its ack, zero
	// when the last probe was answered.
	outstanding uint64
}

// livenessState is the node's prober.
type livenessState struct {
	cfg   LivenessConfig
	nonce uint64
}

// addPeerLocked registers a probing target. Callers hold n.mu.
func (n *Node) addPeerLocked(p addr.V4) {
	if p == n.Underlay {
		return
	}
	if _, ok := n.peers[p]; !ok {
		n.peers[p] = &peerState{}
	}
}

// EnableLiveness starts keepalive probing of the node's peers: every
// interval each peer is sent a nonce'd probe; an unanswered probe counts
// a miss, SuspectAfter consecutive misses report the peer suspected dead
// to the Registry (steering senders' first hops and relays around it),
// and a subsequent ack recovers it. Idempotent.
func (n *Node) EnableLiveness(cfg LivenessConfig) {
	n.mu.Lock()
	if n.live != nil {
		n.mu.Unlock()
		return
	}
	n.live = &livenessState{cfg: cfg.withDefaults()}
	st := n.live
	n.mu.Unlock()

	n.wg.Add(1)
	go n.probeLoop(st)
}

func (n *Node) probeLoop(st *livenessState) {
	defer n.wg.Done()
	tick := time.NewTicker(st.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-n.done:
			return
		case <-tick.C:
			n.probeRound(st)
		}
	}
}

// probeRound scores the previous round (outstanding probes are misses)
// and sends a fresh probe to every peer.
func (n *Node) probeRound(st *livenessState) {
	type target struct {
		peer  addr.V4
		nonce uint64
	}
	var sendTo []target
	var suspectNow []addr.V4

	n.mu.Lock()
	for p, ps := range n.peers {
		if ps.outstanding != 0 {
			ps.misses++
			n.ctr().ProbeMissed()
			if !ps.suspected && ps.misses >= st.cfg.SuspectAfter {
				ps.suspected = true
				suspectNow = append(suspectNow, p)
			}
		}
		st.nonce++
		ps.outstanding = st.nonce
		sendTo = append(sendTo, target{peer: p, nonce: st.nonce})
	}
	n.mu.Unlock()

	for _, p := range suspectNow {
		n.reg.suspect(n.Underlay, p)
		n.ctr().PeerSuspected()
	}
	for _, t := range sendTo {
		n.sendProbe(t.peer, t.nonce, false)
		n.ctr().ProbeSent()
	}
}

// sendProbe emits a probe or probe-ack carrying the nonce. Probes go
// through the normal wire path (including fault injection, unless
// DataOnly) but choose no route: a probe targets one concrete peer.
func (n *Node) sendProbe(peer addr.V4, nonce uint64, ack bool) {
	ep, ok := n.reg.Endpoint(peer)
	if !ok {
		return
	}
	wire, err := tunnel.EncodeProbe(n.Underlay, peer, nonce, ack)
	if err != nil {
		return
	}
	n.writeWire(peer, ep.AddrPort(), wire)
}

// handleProbeAck clears the peer's outstanding probe and, if it was
// suspected, recovers it in the Registry. Stale acks (an earlier round's
// nonce) still prove the peer alive and are honoured.
func (n *Node) handleProbeAck(outer packet.V4Header) {
	peer := outer.Src
	n.mu.Lock()
	ps := n.peers[peer]
	var recovered bool
	if ps != nil {
		ps.outstanding = 0
		ps.misses = 0
		if ps.suspected {
			ps.suspected = false
			recovered = true
		}
	}
	n.mu.Unlock()
	if recovered {
		n.reg.unsuspect(n.Underlay, peer)
		n.ctr().PeerRecovered()
	}
}
