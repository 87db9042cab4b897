// Package tunnel is the IPvN-in-IPv(N-1) tunnel endpoint: the
// encapsulation an endhost uses to reach the anycast-addressed IPvN
// ingress, and the per-leg re-encapsulation that carries a packet
// between vN-Bone routers across non-participating infrastructure (§3.3,
// §3.4). It operates at the wire level on the formats of internal/packet,
// and also holds the liveness-probe codec of the live overlay.
package tunnel

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/packet"
	"github.com/evolvable-net/evolve/internal/trace"
)

// Errors.
var (
	// ErrNotForUs is returned when decapsulating a packet whose outer
	// destination is not the local endpoint.
	ErrNotForUs = errors.New("tunnel: outer destination is not local")
	// ErrHopLimit is returned when the inner hop limit expires.
	ErrHopLimit = errors.New("tunnel: inner hop limit exceeded")
)

// Endpoint is the tunnel machinery of one node (host or IPvN router).
type Endpoint struct {
	// Local is the node's underlay address.
	Local addr.V4

	buf *packet.SerializeBuffer

	// Observability hooks, set by Observe. Both are optional and nil by
	// default; the encap/decap hot path only pays a nil check then.
	tracer   trace.Tracer
	counters *trace.Counters
	seq      uint32
}

// Observe attaches observability to the endpoint: every encap/decap is
// counted in c and, when tr is non-nil, emitted as a span event stamped
// with the delivery sequence number seq. Either argument may be nil.
func (e *Endpoint) Observe(tr trace.Tracer, c *trace.Counters, seq uint32) {
	e.tracer = tr
	e.counters = c
	e.seq = seq
}

// NewEndpoint returns the tunnel endpoint for a node.
func NewEndpoint(local addr.V4) *Endpoint {
	return &Endpoint{Local: local, buf: packet.NewSerializeBuffer()}
}

// encapped accounts one encapsulation toward outerDst. It and decapped
// are small enough to inline, so an unobserved endpoint — the send
// engine's, outside a traced send — pays two nil checks and no call.
func (e *Endpoint) encapped(outerDst addr.V4) {
	if e.counters != nil || e.tracer != nil {
		e.observe(trace.KindEncap, e.Local, outerDst)
	}
}

// decapped accounts one decapsulation at to of a packet sent by from.
func (e *Endpoint) decapped(from, to addr.V4) {
	if e.counters != nil || e.tracer != nil {
		e.observe(trace.KindDecap, from, to)
	}
}

// observe counts and traces one encap or decap for whatever Observe
// attached.
func (e *Endpoint) observe(kind trace.Kind, src, dst addr.V4) {
	if e.counters != nil {
		if kind == trace.KindEncap {
			e.counters.Encap()
		} else {
			e.counters.Decap()
		}
	}
	if e.tracer != nil {
		e.tracer.Event(trace.Event{Kind: kind, Seq: e.seq, Router: -1, Src: src, Dst: dst})
	}
}

// EncapToShared wraps an IPvN packet toward an arbitrary underlay
// destination — the endhost's "encapsulate toward the anycast address"
// operation (§3.1), where no provisioning exists by design, and equally
// one tunnel leg between bone routers. The inner hop limit is decremented
// (the tunnel transit is one IPvN hop); ErrHopLimit is returned when it
// expires. The returned wire bytes alias the endpoint's internal
// serialize buffer and are valid only until the endpoint's next
// encapsulation: callers that hand the bytes to another endpoint's
// DecapShared before re-encapsulating (the ping-pong pattern of a relay
// loop) never need a copy.
func (e *Endpoint) EncapToShared(outerDst addr.V4, inner packet.VNHeader, payload []byte) ([]byte, error) {
	if inner.HopLimit == 0 {
		inner.HopLimit = packet.DefaultHopLimit
	}
	if inner.HopLimit <= 1 {
		return nil, ErrHopLimit
	}
	inner.HopLimit--
	outer := packet.V4Header{
		Proto: packet.ProtoVNEncap,
		TTL:   0,
		Src:   e.Local,
		Dst:   outerDst,
	}
	if err := packet.SerializeVN(e.buf, payload, &outer, &inner); err != nil {
		return nil, err
	}
	e.encapped(outerDst)
	return e.buf.Bytes(), nil
}

// DecrementHop spends one IPvN hop of a serialized vn-encap packet in
// place: the inner hop limit (0 standing for packet.DefaultHopLimit, as
// the serializer writes it) is decremented, or ErrHopLimit returned when
// the packet has none left to spend. It is the hop arithmetic of both
// planes: PatchEncap in the simulator, the relay of the live overlay,
// which spends the hop once and then re-addresses the packet with
// packet.RewriteOuter once per next hop.
func DecrementHop(wire []byte) error {
	if len(wire) < packet.V4HeaderLen+packet.VNHeaderLen {
		return packet.ErrTruncated
	}
	hop := &wire[packet.V4HeaderLen+1]
	if *hop == 0 {
		*hop = packet.DefaultHopLimit
	}
	if *hop <= 1 {
		return ErrHopLimit
	}
	*hop--
	return nil
}

// PatchEncap re-encapsulates a serialized vn-encap packet in place for
// its next tunnel leg, the in-place form of EncapToShared: instead of
// re-serializing both headers around the payload, it decrements the
// inner hop limit and rewrites the outer addresses/TTL/checksum directly
// in the wire bytes. The result is byte-identical to decapsulating and
// re-encapsulating through the serializers, and the encap is counted and
// traced exactly as EncapToShared would.
func (e *Endpoint) PatchEncap(wire []byte, outerDst addr.V4) error {
	if err := DecrementHop(wire); err != nil {
		return err
	}
	packet.RewriteOuter(wire, e.Local, outerDst)
	e.encapped(outerDst)
	return nil
}

// ForwardShared performs one complete relay hop in place: the packet is
// re-encapsulated toward next (PatchEncap) and its arrival there is
// accounted as a decapsulation, after which the endpoint itself stands
// at next (Local advances). One ForwardShared is observationally
// identical — counters and span events — to an EncapToShared on
// one endpoint answered by a DecapShared on the next (the package's
// differential test holds the two chains equal); the wire bytes are valid
// by construction, so no re-parse is needed.
func (e *Endpoint) ForwardShared(wire []byte, next addr.V4) error {
	from := e.Local
	if err := e.PatchEncap(wire, next); err != nil {
		return err
	}
	e.Local = next
	e.decapped(from, next)
	return nil
}

// DecapShared unwraps a tunnelled packet addressed to this endpoint,
// returning the outer source, the inner IPvN header and the innermost
// payload. The inner header's option values and the payload alias wire,
// and the Options slice appends to scratch (pass a reused scratch[:0]).
// See packet.DecodeVNShared for the aliasing contract.
func (e *Endpoint) DecapShared(wire []byte, scratch []packet.Option) (from addr.V4, inner packet.VNHeader, payload []byte, err error) {
	outer, vn, pl, err := packet.DecapVNShared(wire, scratch)
	if err != nil {
		return 0, packet.VNHeader{}, nil, err
	}
	if outer.Dst != e.Local {
		return 0, packet.VNHeader{}, nil, fmt.Errorf("%w: %s", ErrNotForUs, outer.Dst)
	}
	e.decapped(outer.Src, e.Local)
	return outer.Src, vn, pl, nil
}

// ProbeNonceLen is the keepalive payload size: one big-endian nonce.
const ProbeNonceLen = 8

// EncodeProbe builds the liveness keepalive exchanged between live
// overlay peers: a bare underlay packet (ProtoProbe, or ProtoProbeAck
// when ack is set) whose payload is the 8-byte nonce the ack echoes.
// Probes ride outside the vN-encap tunnel on purpose — they measure the
// underlay link to a peer, not an IPvN path.
func EncodeProbe(src, dst addr.V4, nonce uint64, ack bool) ([]byte, error) {
	proto := packet.ProtoProbe
	if ack {
		proto = packet.ProtoProbeAck
	}
	var payload [ProbeNonceLen]byte
	binary.BigEndian.PutUint64(payload[:], nonce)
	outer := packet.V4Header{Proto: proto, Src: src, Dst: dst}
	b := packet.NewSerializeBuffer()
	if err := packet.Serialize(b, payload[:], &outer); err != nil {
		return nil, err
	}
	return append([]byte(nil), b.Bytes()...), nil
}

// DecodeProbe parses a keepalive built by EncodeProbe, reporting whether
// it is the ack leg. Non-probe protocols are an error.
func DecodeProbe(wire []byte) (outer packet.V4Header, nonce uint64, ack bool, err error) {
	outer, payload, err := packet.DecodeV4(wire)
	if err != nil {
		return packet.V4Header{}, 0, false, err
	}
	switch outer.Proto {
	case packet.ProtoProbe:
	case packet.ProtoProbeAck:
		ack = true
	default:
		return packet.V4Header{}, 0, false, fmt.Errorf("tunnel: protocol %s is not a probe", outer.Proto)
	}
	if len(payload) < ProbeNonceLen {
		return packet.V4Header{}, 0, false, fmt.Errorf("tunnel: probe payload %d bytes, want %d", len(payload), ProbeNonceLen)
	}
	return outer, binary.BigEndian.Uint64(payload[:ProbeNonceLen]), ack, nil
}
