// Package tunnel manages IPvN-in-IPv(N-1) tunnels: the encapsulation an
// endhost uses to reach the anycast-addressed IPvN ingress, and the
// configured tunnels that stitch vN-Bone routers together across
// non-participating infrastructure (§3.3, §3.4). It operates at the wire
// level on the formats of internal/packet.
package tunnel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

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
	// ErrNoTunnel is returned when sending to an unconfigured remote.
	ErrNoTunnel = errors.New("tunnel: no tunnel to remote")
)

// Tunnel is one configured point-to-point tunnel.
type Tunnel struct {
	// Name is a human label ("Q-to-D").
	Name string
	// Local and Remote are the underlay endpoints.
	Local, Remote addr.V4
	// TTL is the outer packet's hop limit (0 = default).
	TTL uint8
}

// Stats counts per-endpoint tunnel activity.
type Stats struct {
	Encapsulated uint64
	Decapsulated uint64
	Rejected     uint64
}

// Endpoint is the tunnel machinery of one node (host or IPvN router).
type Endpoint struct {
	// Local is the node's underlay address.
	Local addr.V4

	tunnels map[addr.V4]*Tunnel
	stats   Stats
	buf     *packet.SerializeBuffer

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
	return &Endpoint{
		Local:   local,
		tunnels: map[addr.V4]*Tunnel{},
		buf:     packet.NewSerializeBuffer(),
	}
}

// Add configures a tunnel to remote, replacing any existing one.
func (e *Endpoint) Add(name string, remote addr.V4, ttl uint8) *Tunnel {
	t := &Tunnel{Name: name, Local: e.Local, Remote: remote, TTL: ttl}
	e.tunnels[remote] = t
	return t
}

// Remove tears down the tunnel to remote; it reports whether one existed.
func (e *Endpoint) Remove(remote addr.V4) bool {
	if _, ok := e.tunnels[remote]; !ok {
		return false
	}
	delete(e.tunnels, remote)
	return true
}

// Lookup returns the tunnel to remote.
func (e *Endpoint) Lookup(remote addr.V4) (*Tunnel, bool) {
	t, ok := e.tunnels[remote]
	return t, ok
}

// List returns the configured tunnels sorted by remote address.
func (e *Endpoint) List() []*Tunnel {
	out := make([]*Tunnel, 0, len(e.tunnels))
	for _, t := range e.tunnels {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Remote < out[j].Remote })
	return out
}

// Stats returns a copy of the endpoint's counters.
func (e *Endpoint) Stats() Stats { return e.stats }

// Encap wraps an IPvN packet for transmission through the tunnel to
// remote. The inner hop limit is decremented (the tunnel transit is one
// IPvN hop); ErrHopLimit is returned when it expires.
func (e *Endpoint) Encap(remote addr.V4, inner packet.VNHeader, payload []byte) ([]byte, error) {
	t, ok := e.tunnels[remote]
	if !ok {
		return nil, ErrNoTunnel
	}
	return e.encap(t.Remote, t.TTL, inner, payload)
}

// EncapTo wraps an IPvN packet toward an arbitrary underlay destination
// without a configured tunnel — the endhost's "encapsulate toward the
// anycast address" operation (§3.1), where no provisioning exists by
// design.
func (e *Endpoint) EncapTo(outerDst addr.V4, inner packet.VNHeader, payload []byte) ([]byte, error) {
	return e.encap(outerDst, 0, inner, payload)
}

func (e *Endpoint) encap(outerDst addr.V4, ttl uint8, inner packet.VNHeader, payload []byte) ([]byte, error) {
	if inner.HopLimit == 0 {
		inner.HopLimit = packet.DefaultHopLimit
	}
	if inner.HopLimit <= 1 {
		e.stats.Rejected++
		return nil, ErrHopLimit
	}
	inner.HopLimit--
	outer := packet.V4Header{
		Proto: packet.ProtoVNEncap,
		TTL:   ttl,
		Src:   e.Local,
		Dst:   outerDst,
	}
	if err := packet.Serialize(e.buf, payload, &outer, &inner); err != nil {
		e.stats.Rejected++
		return nil, err
	}
	e.stats.Encapsulated++
	if e.counters != nil {
		e.counters.Encap()
	}
	if e.tracer != nil {
		e.tracer.Event(trace.Event{
			Kind: trace.KindEncap, Seq: e.seq, Router: -1,
			Src: e.Local, Dst: outerDst,
		})
	}
	return append([]byte(nil), e.buf.Bytes()...), nil
}

// EncapToShared is the zero-copy form of EncapTo: the returned wire bytes
// alias the endpoint's internal serialize buffer and are valid only until
// the endpoint's next encapsulation. Callers that hand the bytes to
// another endpoint's Decap before re-encapsulating (the ping-pong pattern
// of a relay loop) never need the copy.
func (e *Endpoint) EncapToShared(outerDst addr.V4, inner packet.VNHeader, payload []byte) ([]byte, error) {
	if inner.HopLimit == 0 {
		inner.HopLimit = packet.DefaultHopLimit
	}
	if inner.HopLimit <= 1 {
		e.stats.Rejected++
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
		e.stats.Rejected++
		return nil, err
	}
	e.stats.Encapsulated++
	if e.counters != nil {
		e.counters.Encap()
	}
	if e.tracer != nil {
		e.tracer.Event(trace.Event{
			Kind: trace.KindEncap, Seq: e.seq, Router: -1,
			Src: e.Local, Dst: outerDst,
		})
	}
	return e.buf.Bytes(), nil
}

// PatchEncap re-encapsulates a serialized vn-encap packet in place for
// its next tunnel leg, the in-place form of EncapToShared: instead of
// re-serializing both headers around the payload, it decrements the
// inner hop limit and rewrites the outer addresses/TTL/checksum directly
// in the wire bytes. The result is byte-identical to decapsulating and
// re-encapsulating through the serializers, and the encap is counted and
// traced exactly as EncapToShared would.
func (e *Endpoint) PatchEncap(wire []byte, outerDst addr.V4) error {
	if len(wire) < packet.V4HeaderLen+packet.VNHeaderLen {
		e.stats.Rejected++
		return packet.ErrTruncated
	}
	hop := &wire[packet.V4HeaderLen+1]
	if *hop == 0 {
		*hop = packet.DefaultHopLimit
	}
	if *hop <= 1 {
		e.stats.Rejected++
		return ErrHopLimit
	}
	*hop--
	packet.RewriteOuter(wire, e.Local, outerDst)
	e.stats.Encapsulated++
	if e.counters != nil {
		e.counters.Encap()
	}
	if e.tracer != nil {
		e.tracer.Event(trace.Event{
			Kind: trace.KindEncap, Seq: e.seq, Router: -1,
			Src: e.Local, Dst: outerDst,
		})
	}
	return nil
}

// ForwardShared performs one complete relay hop in place: the packet is
// re-encapsulated toward next (PatchEncap) and its arrival there is
// accounted as a decapsulation, after which the endpoint itself stands
// at next (Local advances). One ForwardShared is observationally
// identical — counters, stats and span events — to an EncapToShared on
// one endpoint answered by a DecapShared on the next (the package's
// differential test holds the two chains equal); the wire bytes are valid
// by construction, so no re-parse is needed.
func (e *Endpoint) ForwardShared(wire []byte, next addr.V4) error {
	from := e.Local
	if err := e.PatchEncap(wire, next); err != nil {
		return err
	}
	e.Local = next
	e.stats.Decapsulated++
	if e.counters != nil {
		e.counters.Decap()
	}
	if e.tracer != nil {
		e.tracer.Event(trace.Event{
			Kind: trace.KindDecap, Seq: e.seq, Router: -1,
			Src: from, Dst: next,
		})
	}
	return nil
}

// Decap unwraps a tunnelled packet addressed to this endpoint, returning
// the outer source, the inner IPvN header and the innermost payload.
func (e *Endpoint) Decap(wire []byte) (from addr.V4, inner packet.VNHeader, payload []byte, err error) {
	outer, vn, pl, err := packet.DecapVN(wire)
	if err != nil {
		e.stats.Rejected++
		return 0, packet.VNHeader{}, nil, err
	}
	if outer.Dst != e.Local {
		e.stats.Rejected++
		return 0, packet.VNHeader{}, nil, fmt.Errorf("%w: %s", ErrNotForUs, outer.Dst)
	}
	e.stats.Decapsulated++
	if e.counters != nil {
		e.counters.Decap()
	}
	if e.tracer != nil {
		e.tracer.Event(trace.Event{
			Kind: trace.KindDecap, Seq: e.seq, Router: -1,
			Src: outer.Src, Dst: e.Local,
		})
	}
	return outer.Src, vn, pl, nil
}

// DecapShared is the zero-copy form of Decap: the inner header's option
// values and the payload alias wire, and the Options slice appends to
// scratch (pass a reused scratch[:0]). See packet.DecodeVNShared for the
// aliasing contract.
func (e *Endpoint) DecapShared(wire []byte, scratch []packet.Option) (from addr.V4, inner packet.VNHeader, payload []byte, err error) {
	outer, vn, pl, err := packet.DecapVNShared(wire, scratch)
	if err != nil {
		e.stats.Rejected++
		return 0, packet.VNHeader{}, nil, err
	}
	if outer.Dst != e.Local {
		e.stats.Rejected++
		return 0, packet.VNHeader{}, nil, fmt.Errorf("%w: %s", ErrNotForUs, outer.Dst)
	}
	e.stats.Decapsulated++
	if e.counters != nil {
		e.counters.Decap()
	}
	if e.tracer != nil {
		e.tracer.Event(trace.Event{
			Kind: trace.KindDecap, Seq: e.seq, Router: -1,
			Src: outer.Src, Dst: e.Local,
		})
	}
	return outer.Src, vn, pl, nil
}

// Relay re-encapsulates a just-decapsulated packet into the tunnel toward
// next — the per-hop operation of a vN-Bone transit router.
func (e *Endpoint) Relay(next addr.V4, inner packet.VNHeader, payload []byte) ([]byte, error) {
	return e.Encap(next, inner, payload)
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
