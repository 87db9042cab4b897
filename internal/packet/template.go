package packet

import (
	"encoding/binary"
	"fmt"

	"github.com/evolvable-net/evolve/internal/addr"
)

// VNTemplate is a pre-serialized vn-encap header prefix for core's send
// engine. A flow's headers (outer V4, inner VN, options) are constant
// across every packet of a burst except three fields: the V4 total
// length, the VN payload length, and the 4-byte OptTraceTag value.
// Build serializes the headers once through the ordinary layer
// serializers; Emit then materializes each packet by copying the prefix,
// appending the payload and patching those three fields in place —
// no per-packet header serialization, no allocation when the caller's
// buffer has capacity.
type VNTemplate struct {
	// hdr is the serialized header prefix (V4 + VN + options) as emitted
	// for a zero-length payload.
	hdr []byte
	// tagOff is the offset of the 4-byte OptTraceTag value within hdr,
	// or -1 when the template carries no trace-tag option.
	tagOff int
}

// Build serializes outer and inner (with a zero-length payload) into the
// template and locates the trace-tag patch point. It reuses the
// template's backing storage, so rebuilding an existing template
// allocates nothing once warm. Build fails only if the headers
// themselves fail to serialize (an oversized option).
func (t *VNTemplate) Build(outer V4Header, inner VNHeader) error {
	b := GetSerializeBuffer()
	defer PutSerializeBuffer(b)
	if err := SerializeVN(b, nil, &outer, &inner); err != nil {
		return err
	}
	t.hdr = append(t.hdr[:0], b.Bytes()...)
	t.tagOff = -1
	off := V4HeaderLen + VNHeaderLen
	end := off + int(binary.BigEndian.Uint16(t.hdr[V4HeaderLen+4:V4HeaderLen+6]))
	for off+1 < end {
		typ, vlen := t.hdr[off], int(t.hdr[off+1])
		if typ == OptTraceTag && vlen == 4 {
			t.tagOff = off + 2
		}
		off += 2 + vlen
	}
	return nil
}

// HeaderLen reports the serialized header prefix length.
func (t *VNTemplate) HeaderLen() int { return len(t.hdr) }

// TagOffset reports the offset of the trace-tag value within the emitted
// wire, or -1 when the template has no OptTraceTag option.
func (t *VNTemplate) TagOffset() int { return t.tagOff }

// Emit materializes one packet into buf[:0]: header prefix, then
// payload, with the V4 total length, VN payload length, trace tag and V4
// checksum patched for this packet. The result is byte-identical to
// serializing the same headers and payload through SerializeVN. Emit
// appends into buf, so passing a buffer with enough capacity makes it
// allocation-free; the returned slice aliases it.
func (t *VNTemplate) Emit(buf []byte, payload []byte, tag uint32) ([]byte, error) {
	if len(payload) > 0xFFFF {
		return nil, fmt.Errorf("packet: vn payload length %d overflows", len(payload))
	}
	total := len(t.hdr) + len(payload)
	if total > 0xFFFF {
		return nil, fmt.Errorf("packet: v4 total length %d overflows", total)
	}
	wire := append(buf[:0], t.hdr...)
	wire = append(wire, payload...)
	binary.BigEndian.PutUint16(wire[2:4], uint16(total))
	binary.BigEndian.PutUint16(wire[V4HeaderLen+2:V4HeaderLen+4], uint16(len(payload)))
	if t.tagOff >= 0 {
		binary.BigEndian.PutUint32(wire[t.tagOff:t.tagOff+4], tag)
	}
	wire[6], wire[7] = 0, 0
	binary.BigEndian.PutUint16(wire[6:8], Checksum(wire[:V4HeaderLen]))
	return wire, nil
}

// RewriteOuter re-addresses a serialized vn-encap packet in place for
// its next tunnel leg, as the send engine's relay pass does: source and
// destination are replaced, the TTL is reset to DefaultTTL (each leg is
// a fresh underlay packet, exactly as a per-leg re-encapsulation would
// serialize it) and the checksum is recomputed. It reports false when
// wire is too short to hold a V4 header.
func RewriteOuter(wire []byte, src, dst addr.V4) bool {
	if len(wire) < V4HeaderLen {
		return false
	}
	binary.BigEndian.PutUint32(wire[8:12], uint32(src))
	binary.BigEndian.PutUint32(wire[12:16], uint32(dst))
	wire[4] = DefaultTTL
	wire[6], wire[7] = 0, 0
	binary.BigEndian.PutUint16(wire[6:8], Checksum(wire[:V4HeaderLen]))
	return true
}
