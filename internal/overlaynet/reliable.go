package overlaynet

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/packet"
)

// ReliableConfig parameterizes the opt-in acked/retransmitting SendVN
// mode. A receiver's acks leave through its anycast route.
type ReliableConfig struct {
	// RetransmitBase is the first retry's backoff; each subsequent retry
	// doubles it up to RetransmitMax. Default 50ms.
	RetransmitBase time.Duration
	// RetransmitMax caps the backoff. Default 500ms.
	RetransmitMax time.Duration
	// MaxAttempts bounds total transmissions (first send included).
	// Default 8.
	MaxAttempts int
	// JitterSeed roots the backoff jitter PRNG, keeping retry timing
	// reproducible under a fixed schedule.
	JitterSeed int64
}

func (c ReliableConfig) withDefaults() ReliableConfig {
	if c.RetransmitBase <= 0 {
		c.RetransmitBase = 50 * time.Millisecond
	}
	if c.RetransmitMax <= 0 {
		c.RetransmitMax = 500 * time.Millisecond
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 8
	}
	return c
}

// dedupWindow is how many recently seen (source, sequence) pairs a
// receiver remembers.
const dedupWindow = 4096

// seenKey identifies a delivery for dedup: the IPvN source plus its
// per-sender sequence number.
type seenKey struct {
	src addr.VN
	seq uint32
}

// reliableState is the node's sender- and receiver-side reliability
// machinery.
type reliableState struct {
	cfg ReliableConfig

	mu      sync.Mutex
	nextSeq uint32
	pending map[uint32]chan struct{}
	jitter  *rand.Rand
	// seen is the receiver's dedup window: set plus FIFO eviction order.
	seen      map[seenKey]bool
	seenOrder []seenKey
}

// EnableReliable switches on the node's reliability layer: SendVNReliable
// becomes available, and incoming seq-marked packets are deduplicated and
// acknowledged through the node's anycast route. Idempotent.
func (n *Node) EnableReliable(cfg ReliableConfig) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.rel != nil {
		return
	}
	n.rel = &reliableState{
		cfg:     cfg.withDefaults(),
		pending: map[uint32]chan struct{}{},
		jitter:  rand.New(rand.NewSource(cfg.JitterSeed)),
		seen:    map[seenKey]bool{},
	}
}

func (n *Node) reliable() *reliableState {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.rel
}

func seqOption(t uint8, seq uint32) packet.Option {
	val := make([]byte, 4)
	binary.BigEndian.PutUint32(val, seq)
	return packet.Option{Type: t, Value: val}
}

// deliveryOpt extracts a 4-byte delivery option of the given type.
func deliveryOpt(h packet.VNHeader, t uint8) (uint32, bool) {
	for _, o := range h.Options {
		if o.Type == t && len(o.Value) == 4 {
			return binary.BigEndian.Uint32(o.Value), true
		}
	}
	return 0, false
}

// SendVNReliable sends a payload with at-least-once transmission and
// receiver-side dedup — together, exactly-once delivery for every send
// that returns nil. The packet carries a per-sender sequence number; the
// send retransmits on ack timeout with exponential backoff plus seeded
// jitter, up to MaxAttempts transmissions, then fails with ErrNotAcked.
// Each transmission picks its first hop from the node's anycast route
// afresh, so a mid-flight ingress death fails over instead of wedging the
// flow.
func (n *Node) SendVNReliable(anycastAddr addr.V4, dst addr.VN, payload []byte) error {
	rel := n.reliable()
	if rel == nil {
		return ErrReliableDisabled
	}

	rel.mu.Lock()
	rel.nextSeq++
	seq := rel.nextSeq
	acked := make(chan struct{})
	rel.pending[seq] = acked
	rel.mu.Unlock()
	defer func() {
		rel.mu.Lock()
		delete(rel.pending, seq)
		rel.mu.Unlock()
	}()

	opt := seqOption(packet.OptDeliverySeq, seq)
	backoff := rel.cfg.RetransmitBase
	// One timer for every attempt, stopped on return: under the module's
	// pre-1.23 timer semantics, time.After's lives until it fires.
	wait := time.NewTimer(time.Hour)
	wait.Stop()
	defer wait.Stop()
	for attempt := 0; attempt < rel.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			n.ctr().Retransmit()
		}
		if err := n.sendVN(anycastAddr, dst, payload, &opt); err != nil {
			// Resolution can fail transiently while an ingress dies and
			// failover converges; keep retrying on the backoff schedule.
			if attempt == rel.cfg.MaxAttempts-1 {
				n.notifySendFailure(dst)
				return fmt.Errorf("%w: seq %d: %v", ErrNotAcked, seq, err)
			}
		}
		rel.mu.Lock()
		jit := time.Duration(rel.jitter.Int63n(int64(backoff)/4 + 1))
		rel.mu.Unlock()
		wait.Reset(backoff + jit) // stopped, or fired and read: safe to reuse
		select {
		case <-acked:
			return nil
		case <-n.done:
			return ErrClosed
		case <-wait.C:
		}
		backoff *= 2
		if backoff > rel.cfg.RetransmitMax {
			backoff = rel.cfg.RetransmitMax
		}
	}
	n.notifySendFailure(dst)
	return fmt.Errorf("%w: seq %d after %d attempts", ErrNotAcked, seq, rel.cfg.MaxAttempts)
}

// confirmAck resolves the pending send waiting on seq, if any.
func (n *Node) confirmAck(seq uint32) {
	rel := n.reliable()
	if rel == nil {
		return
	}
	rel.mu.Lock()
	ch := rel.pending[seq]
	if ch != nil {
		delete(rel.pending, seq)
	}
	rel.mu.Unlock()
	if ch != nil {
		close(ch)
	}
}

// handleSeqDelivery is the receiver side of reliable mode: duplicates are
// dropped (and re-acked — the first ack may have been lost); new
// deliveries are enqueued first and only then marked seen and acked, so
// an inbox overflow leaves the sender retransmitting rather than losing
// an acked message.
func (n *Node) handleSeqDelivery(inner packet.VNHeader, payload []byte, outerSrc addr.V4, seq uint32) {
	rel := n.reliable()
	if rel == nil {
		// Receiver not in reliable mode: deliver as plain traffic.
		n.deliver(Received{From: inner.Src, To: inner.Dst, Payload: payload, OuterSrc: outerSrc})
		return
	}
	key := seenKey{src: inner.Src, seq: seq}
	rel.mu.Lock()
	dup := rel.seen[key]
	rel.mu.Unlock()
	if dup {
		n.ctr().DedupDrop()
		n.sendAck(inner.Src, seq)
		return
	}
	if !n.deliver(Received{From: inner.Src, To: inner.Dst, Payload: payload, OuterSrc: outerSrc}) {
		return // no ack: the sender will retransmit into a drained inbox
	}
	rel.mu.Lock()
	if !rel.seen[key] {
		rel.seen[key] = true
		rel.seenOrder = append(rel.seenOrder, key)
		if len(rel.seenOrder) > dedupWindow {
			evict := rel.seenOrder[0]
			rel.seenOrder = rel.seenOrder[1:]
			delete(rel.seen, evict)
		}
	}
	rel.mu.Unlock()
	n.sendAck(inner.Src, seq)
}

// sendAck answers a seq-marked delivery with an empty OptDeliveryAck
// packet sent through the node's anycast route; a node with no route
// counts the ack dropped. It runs on the handler, so the ack boards its
// train directly.
func (n *Node) sendAck(to addr.VN, seq uint32) {
	ack := seqOption(packet.OptDeliveryAck, seq)
	if !n.replyVN(to, nil, &ack) {
		n.stats.dropped.Add(1)
	}
}
