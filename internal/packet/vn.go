package packet

import (
	"encoding/binary"
	"fmt"

	"github.com/evolvable-net/evolve/internal/addr"
)

// VNHeaderLen is the fixed portion of the IPvN header, before options.
const VNHeaderLen = 40

// DefaultHopLimit is the initial IPvN hop limit.
const DefaultHopLimit = 64

// Option types. Options are TLVs: one type byte, one length byte, value.
const (
	// OptUnderlayDst carries the destination host's IPv(N-1) address so
	// that IPvN egress routers can deliver to self-addressed destinations
	// in non-participant domains (§3.3.2: "might be carried in a separate
	// option field in the IPvN header").
	OptUnderlayDst uint8 = 1
	// OptTraceTag is a 4-byte experiment tag used by the harness to follow
	// individual packets through the simulator.
	OptTraceTag uint8 = 2
	// OptDeliverySeq is a 4-byte per-sender sequence number marking a
	// packet as ack-requested: the receiver deduplicates on (source,
	// sequence) and answers with an OptDeliveryAck packet, enabling the
	// live overlay's retransmission mode.
	OptDeliverySeq uint8 = 3
	// OptDeliveryAck acknowledges an OptDeliverySeq packet; the 4-byte
	// value is the acknowledged sequence number. Ack packets carry no
	// payload and are consumed by the sender's reliability layer.
	OptDeliveryAck uint8 = 4
	// OptFallback marks a delivery that rode the IPv(N-1) baseline path
	// instead of the vN-Bone (the graceful-degradation layer of
	// internal/core). The 1-byte value classifies why: FallbackMarkState
	// or FallbackMarkRescue.
	OptFallback uint8 = 5
)

// OptFallback marker values.
const (
	// FallbackMarkState: the flow was in the fallback state and the send
	// skipped the vN path deliberately.
	FallbackMarkState uint8 = 1
	// FallbackMarkRescue: the vN attempt failed and the delivery was
	// rescued in-line over the baseline path.
	FallbackMarkRescue uint8 = 2
)

// Option is a decoded IPvN header option.
type Option struct {
	Type  uint8
	Value []byte
}

// VNHeader is the next-generation header. The concrete IPvN generation is
// named by Version (the paper's running example uses 8). Wire layout,
// big-endian:
//
//	[0]     version (N)
//	[1]     hop limit
//	[2:4]   payload length (bytes after header+options)
//	[4:6]   options length (bytes)
//	[6:8]   reserved
//	[8:24]  source IPvN address
//	[24:40] destination IPvN address
//	[40:..] options (TLVs)
type VNHeader struct {
	Version  uint8
	HopLimit uint8
	Src      addr.VN
	Dst      addr.VN
	Options  []Option
}

func putVN(w []byte, v addr.VN) {
	binary.BigEndian.PutUint64(w[0:8], v.Hi)
	binary.BigEndian.PutUint64(w[8:16], v.Lo)
}

func getVN(r []byte) addr.VN {
	return addr.VN{
		Hi: binary.BigEndian.Uint64(r[0:8]),
		Lo: binary.BigEndian.Uint64(r[8:16]),
	}
}

// WithUnderlayDst returns a copy of the header with the OptUnderlayDst
// option set (replacing any existing one).
func (h VNHeader) WithUnderlayDst(u addr.V4) VNHeader {
	opts := make([]Option, 0, len(h.Options)+1)
	for _, o := range h.Options {
		if o.Type != OptUnderlayDst {
			opts = append(opts, o)
		}
	}
	val := make([]byte, 4)
	binary.BigEndian.PutUint32(val, uint32(u))
	h.Options = append(opts, Option{Type: OptUnderlayDst, Value: val})
	return h
}

// UnderlayDst extracts the OptUnderlayDst option if present; otherwise,
// for self-addressed destinations, it falls back to the address embedded in
// the destination itself.
func (h VNHeader) UnderlayDst() (addr.V4, bool) {
	for _, o := range h.Options {
		if o.Type == OptUnderlayDst && len(o.Value) == 4 {
			return addr.V4(binary.BigEndian.Uint32(o.Value)), true
		}
	}
	return h.Dst.Underlay()
}

// SerializeTo prepends the header (with options), treating the buffer's
// contents as payload.
func (h *VNHeader) SerializeTo(b *SerializeBuffer) error {
	payloadLen := b.Len()
	if payloadLen > 0xFFFF {
		return fmt.Errorf("packet: vn payload length %d overflows", payloadLen)
	}
	optLen := 0
	for _, o := range h.Options {
		if len(o.Value) > 0xFF {
			return fmt.Errorf("packet: vn option %d too long (%d)", o.Type, len(o.Value))
		}
		optLen += 2 + len(o.Value)
	}
	if optLen > 0xFFFF {
		return fmt.Errorf("packet: vn options length %d overflows", optLen)
	}
	w := b.PrependBytes(VNHeaderLen + optLen)
	w[0] = h.Version
	hop := h.HopLimit
	if hop == 0 {
		hop = DefaultHopLimit
	}
	w[1] = hop
	binary.BigEndian.PutUint16(w[2:4], uint16(payloadLen))
	binary.BigEndian.PutUint16(w[4:6], uint16(optLen))
	w[6], w[7] = 0, 0
	putVN(w[8:24], h.Src)
	putVN(w[24:40], h.Dst)
	off := VNHeaderLen
	for _, o := range h.Options {
		w[off] = o.Type
		w[off+1] = byte(len(o.Value))
		copy(w[off+2:], o.Value)
		off += 2 + len(o.Value)
	}
	return nil
}

// DecodeVN parses an IPvN header and returns it plus the payload. The
// header owns its option values: they are copied off the wire.
func DecodeVN(data []byte) (VNHeader, []byte, error) { return decodeVN(data, nil, true) }

// DecodeVNShared parses an IPvN header like DecodeVN but without copying:
// option values alias the wire bytes, and the Options slice is built by
// appending to scratch (pass a reused scratch[:0] to avoid the slice
// allocation too). The returned header and payload are only valid while
// the caller holds data unmodified — callers that retain either past the
// wire buffer's lifetime must use DecodeVN.
func DecodeVNShared(data []byte, scratch []Option) (VNHeader, []byte, error) {
	return decodeVN(data, scratch, false)
}

// decodeVN is the one IPvN header parser; own selects whether option
// values are copied off the wire or alias it.
func decodeVN(data []byte, scratch []Option, own bool) (VNHeader, []byte, error) {
	if len(data) < VNHeaderLen {
		return VNHeader{}, nil, ErrTruncated
	}
	payloadLen := int(binary.BigEndian.Uint16(data[2:4]))
	optLen := int(binary.BigEndian.Uint16(data[4:6]))
	total := VNHeaderLen + optLen + payloadLen
	if total > len(data) {
		return VNHeader{}, nil, ErrTruncated
	}
	h := VNHeader{
		Version:  data[0],
		HopLimit: data[1],
		Src:      getVN(data[8:24]),
		Dst:      getVN(data[24:40]),
		Options:  scratch,
	}
	opts := data[VNHeaderLen : VNHeaderLen+optLen]
	for len(opts) > 0 {
		if len(opts) < 2 {
			return VNHeader{}, nil, fmt.Errorf("packet: vn option truncated")
		}
		vlen := int(opts[1])
		if len(opts) < 2+vlen {
			return VNHeader{}, nil, fmt.Errorf("packet: vn option value truncated")
		}
		v := opts[2 : 2+vlen : 2+vlen]
		if own {
			v = append([]byte(nil), v...)
		}
		h.Options = append(h.Options, Option{Type: opts[0], Value: v})
		opts = opts[2+vlen:]
	}
	return h, data[VNHeaderLen+optLen : total], nil
}

// EncapVN builds the full on-the-wire form of an IPvN packet tunnelled
// inside an underlay packet: V4Header{Proto: ProtoVNEncap}(VNHeader(payload)).
// This is the packet an endhost emits toward the anycast address, and the
// packet vN-Bone tunnels carry between IPvN routers.
func EncapVN(outer V4Header, inner VNHeader, payload []byte) ([]byte, error) {
	outer.Proto = ProtoVNEncap
	b := GetSerializeBuffer()
	defer PutSerializeBuffer(b)
	if err := Serialize(b, payload, &outer, &inner); err != nil {
		return nil, err
	}
	return append([]byte(nil), b.Bytes()...), nil
}

// DecapVN unwraps an encapsulated IPvN packet, returning outer header,
// inner header (owning its option values, like DecodeVN's) and innermost
// payload.
func DecapVN(wire []byte) (V4Header, VNHeader, []byte, error) { return decapVN(wire, nil, true) }

// DecapVNShared is the zero-copy form of DecapVN: the inner header's
// option values and the returned payload alias wire, and the Options
// slice appends to scratch. See DecodeVNShared for the aliasing contract.
func DecapVNShared(wire []byte, scratch []Option) (V4Header, VNHeader, []byte, error) {
	return decapVN(wire, scratch, false)
}

func decapVN(wire []byte, scratch []Option, own bool) (V4Header, VNHeader, []byte, error) {
	outer, inner, err := DecodeV4(wire)
	if err != nil {
		return V4Header{}, VNHeader{}, nil, err
	}
	if outer.Proto != ProtoVNEncap {
		return V4Header{}, VNHeader{}, nil, fmt.Errorf("packet: protocol %s is not vn-encap", outer.Proto)
	}
	vn, payload, err := decodeVN(inner, scratch, own)
	if err != nil {
		return V4Header{}, VNHeader{}, nil, err
	}
	return outer, vn, payload, nil
}
