package packet

import (
	"encoding/binary"
	"fmt"

	"github.com/evolvable-net/evolve/internal/addr"
)

// Protocol numbers carried in the V4 header. ProtoVNEncap mirrors the real
// protocol 41 used for IPv6-in-IPv4.
type Protocol uint8

const (
	// ProtoPayload marks an ordinary data packet with no further headers.
	ProtoPayload Protocol = 0
	// ProtoVNEncap marks an encapsulated IPvN packet: the V4 payload begins
	// with a VNHeader. This is how IPvN packets ride the IPv(N-1) internet
	// to an anycast-addressed IPvN router and between vN-Bone tunnels.
	ProtoVNEncap Protocol = 41
	// ProtoRouting marks a routing-protocol control message.
	ProtoRouting Protocol = 89
	// ProtoPing marks the diagnostic echo used by examples and the live
	// overlay prototype.
	ProtoPing Protocol = 1
	// ProtoProbe is a liveness keepalive between live overlay peers: the
	// payload is an opaque nonce the receiver echoes back. Rides the RFC
	// 3692 experimentation number.
	ProtoProbe Protocol = 253
	// ProtoProbeAck answers a ProtoProbe, echoing its nonce.
	ProtoProbeAck Protocol = 254
)

func (p Protocol) String() string {
	switch p {
	case ProtoPayload:
		return "payload"
	case ProtoVNEncap:
		return "vn-encap"
	case ProtoRouting:
		return "routing"
	case ProtoPing:
		return "ping"
	case ProtoProbe:
		return "probe"
	case ProtoProbeAck:
		return "probe-ack"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// V4HeaderLen is the fixed underlay header size in bytes.
const V4HeaderLen = 16

// DefaultTTL is the initial hop limit for underlay packets.
const DefaultTTL = 64

// V4Header is the underlay IPv(N-1) header. Wire layout, big-endian:
//
//	[0]     version (always 4)
//	[1]     protocol
//	[2:4]   total length (header + payload)
//	[4]     TTL
//	[5]     flags (reserved, zero)
//	[6:8]   header checksum (computed with this field zeroed)
//	[8:12]  source address
//	[12:16] destination address
type V4Header struct {
	Proto Protocol
	TTL   uint8
	Src   addr.V4
	Dst   addr.V4
}

// SerializeTo prepends the header, treating the buffer's current contents
// as the payload, and fills in length and checksum.
func (h *V4Header) SerializeTo(b *SerializeBuffer) error {
	payloadLen := b.Len()
	total := V4HeaderLen + payloadLen
	if total > 0xFFFF {
		return fmt.Errorf("packet: v4 total length %d overflows", total)
	}
	w := b.PrependBytes(V4HeaderLen)
	w[0] = 4
	w[1] = byte(h.Proto)
	binary.BigEndian.PutUint16(w[2:4], uint16(total))
	ttl := h.TTL
	if ttl == 0 {
		ttl = DefaultTTL
	}
	w[4] = ttl
	w[5] = 0
	w[6], w[7] = 0, 0
	binary.BigEndian.PutUint32(w[8:12], uint32(h.Src))
	binary.BigEndian.PutUint32(w[12:16], uint32(h.Dst))
	binary.BigEndian.PutUint16(w[6:8], Checksum(w))
	return nil
}

// DecodeV4 parses an underlay header, verifying version, length and
// checksum. It returns the decoded header and the payload bytes.
func DecodeV4(data []byte) (V4Header, []byte, error) {
	if len(data) < V4HeaderLen {
		return V4Header{}, nil, ErrTruncated
	}
	if data[0] != 4 {
		return V4Header{}, nil, fmt.Errorf("packet: bad v4 version %d", data[0])
	}
	if data[5] != 0 {
		return V4Header{}, nil, fmt.Errorf("packet: reserved flags byte %#02x must be zero", data[5])
	}
	total := int(binary.BigEndian.Uint16(data[2:4]))
	if total < V4HeaderLen || total > len(data) {
		return V4Header{}, nil, fmt.Errorf("packet: bad v4 total length %d (have %d)", total, len(data))
	}
	var hdr [V4HeaderLen]byte
	copy(hdr[:], data[:V4HeaderLen])
	wireSum := binary.BigEndian.Uint16(hdr[6:8])
	hdr[6], hdr[7] = 0, 0
	if got := Checksum(hdr[:]); got != wireSum {
		return V4Header{}, nil, fmt.Errorf("packet: v4 checksum mismatch %04x != %04x", got, wireSum)
	}
	h := V4Header{
		Proto: Protocol(data[1]),
		TTL:   data[4],
		Src:   addr.V4(binary.BigEndian.Uint32(data[8:12])),
		Dst:   addr.V4(binary.BigEndian.Uint32(data[12:16])),
	}
	return h, data[V4HeaderLen:total], nil
}

// NextInTrain splits the first underlay packet off a train — packets laid
// back to back in one datagram, each delimited by its V4 total length —
// and returns it with the rest. Only the length field is read: when it
// cannot delimit a packet (too short for a header, or out of range) the
// whole train comes back as the one packet, for DecodeV4 to refuse.
func NextInTrain(train []byte) (pkt, rest []byte) {
	if len(train) >= V4HeaderLen {
		if total := int(binary.BigEndian.Uint16(train[2:4])); total >= V4HeaderLen && total <= len(train) {
			return train[:total:total], train[total:]
		}
	}
	return train, nil
}
