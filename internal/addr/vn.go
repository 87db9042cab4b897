package addr

import (
	"fmt"
	"strconv"
	"strings"
)

// VN is a 128-bit next-generation (IPvN) address. The protocol version is
// carried in the packet header, not in the address, so VN values for
// different IPvN generations share this type. VN is comparable and may be
// used as a map key.
//
// Bit layout (Hi is the most significant 64 bits):
//
//	bit 127          — self-address flag (§3.3.2): 1 if the host assigned
//	                   itself this address because its access provider does
//	                   not support IPvN
//	bits 126..96     — allocation authority / domain bits for native
//	                   addresses; reserved (zero) for self-addresses
//	bits 31..0 of Lo — for self-addresses, the host's underlay V4 address
type VN struct {
	Hi, Lo uint64
}

const (
	selfFlag = uint64(1) << 63
	// mcastFlag marks IPvN group (multicast) addresses — the kind of new
	// capability a next-generation IP exists to deliver.
	mcastFlag = uint64(1) << 62
)

// IsZero reports whether the address is the zero (unspecified) address.
func (v VN) IsZero() bool { return v.Hi == 0 && v.Lo == 0 }

// IsSelf reports whether this is a temporary self-assigned address derived
// from the host's underlay address (§3.3.2).
func (v VN) IsSelf() bool { return v.Hi&selfFlag != 0 }

// SelfAddress derives the temporary IPvN address for a host whose access
// provider does not support IPvN, embedding the host's unique IPv(N-1)
// address per the paper's RFC 3056-style scheme. The mapping is injective:
// distinct underlay addresses yield distinct self-addresses.
func SelfAddress(underlay V4) VN {
	return VN{Hi: selfFlag, Lo: uint64(underlay)}
}

// MulticastVN returns the IPvN group address for group number g. Group
// addresses are neither self-addresses nor native unicast; they name a
// set of subscribers maintained by the IPvN layer.
func MulticastVN(g uint32) VN {
	return VN{Hi: mcastFlag, Lo: uint64(g)}
}

// IsMulticast reports whether the address names an IPvN group.
func (v VN) IsMulticast() bool { return v.Hi&mcastFlag != 0 && !v.IsSelf() }

// Underlay extracts the embedded IPv(N-1) address from a self-address.
// ok is false if the address is not self-assigned.
func (v VN) Underlay() (a V4, ok bool) {
	if !v.IsSelf() {
		return 0, false
	}
	return V4(uint32(v.Lo)), true
}

// String renders the address as four 32-bit hex groups, with a "self:"
// marker and the embedded underlay address for self-addresses.
func (v VN) String() string {
	if v.IsSelf() {
		u, _ := v.Underlay()
		return fmt.Sprintf("self:%s", u)
	}
	return fmt.Sprintf("%08x:%08x:%08x:%08x",
		uint32(v.Hi>>32), uint32(v.Hi), uint32(v.Lo>>32), uint32(v.Lo))
}

// ParseVN parses either the four-hex-group form or the "self:a.b.c.d" form.
func ParseVN(s string) (VN, error) {
	if rest, ok := strings.CutPrefix(s, "self:"); ok {
		u, err := ParseV4(rest)
		if err != nil {
			return VN{}, err
		}
		return SelfAddress(u), nil
	}
	parts := strings.Split(s, ":")
	if len(parts) != 4 {
		return VN{}, fmt.Errorf("addr: %q is not an IPvN address", s)
	}
	var groups [4]uint64
	for i, p := range parts {
		g, err := strconv.ParseUint(p, 16, 32)
		if err != nil {
			return VN{}, fmt.Errorf("addr: bad group %q in %q", p, s)
		}
		groups[i] = g
	}
	return VN{Hi: groups[0]<<32 | groups[1], Lo: groups[2]<<32 | groups[3]}, nil
}

// MustParseVN is ParseVN that panics on malformed input.
func MustParseVN(s string) VN {
	v, err := ParseVN(s)
	if err != nil {
		panic(err)
	}
	return v
}

// Compare orders addresses lexicographically by bits; it returns -1, 0 or 1.
func (v VN) Compare(w VN) int {
	switch {
	case v.Hi < w.Hi:
		return -1
	case v.Hi > w.Hi:
		return 1
	case v.Lo < w.Lo:
		return -1
	case v.Lo > w.Lo:
		return 1
	}
	return 0
}

// VNPrefix is a CIDR-style block over the IPvN address space, used by
// participant domains to advertise natively allocated IPvN addresses into
// the vN-Bone routing fabric.
type VNPrefix struct {
	Addr VN
	Len  uint8 // 0..128
}

// MakeVNPrefix canonicalises (masks) the address to the prefix length.
func MakeVNPrefix(v VN, length uint8) VNPrefix {
	if length > 128 {
		length = 128
	}
	hiMask, loMask := vnMask(length)
	return VNPrefix{Addr: VN{Hi: v.Hi & hiMask, Lo: v.Lo & loMask}, Len: length}
}

// HostVNPrefix is the /128 covering exactly v.
func HostVNPrefix(v VN) VNPrefix { return VNPrefix{Addr: v, Len: 128} }

func vnMask(length uint8) (hi, lo uint64) {
	switch {
	case length == 0:
		return 0, 0
	case length <= 64:
		return ^uint64(0) << (64 - length), 0
	case length >= 128:
		return ^uint64(0), ^uint64(0)
	default:
		return ^uint64(0), ^uint64(0) << (128 - length)
	}
}

// Contains reports whether v falls inside the prefix.
func (p VNPrefix) Contains(v VN) bool {
	hiMask, loMask := vnMask(p.Len)
	return v.Hi&hiMask == p.Addr.Hi&hiMask && v.Lo&loMask == p.Addr.Lo&loMask
}

// String renders the prefix as address/len.
func (p VNPrefix) String() string {
	return fmt.Sprintf("%s/%d", p.Addr, p.Len)
}

// DomainVNPrefix returns the canonical native IPvN block delegated to an
// adopting domain, derived deterministically from its AS number so that
// every participant can allocate without coordination. The self-address
// flag bit is always clear for native blocks.
func DomainVNPrefix(asn int) VNPrefix {
	return MakeVNPrefix(VN{Hi: uint64(uint32(asn)) << 24}, 40)
}

// NativeVN returns the i-th (0-based) native IPvN host address of asn's
// block DomainVNPrefix(asn): the block's address plus i+1, so the block's
// own address is never a host's. Numbering a domain's hosts in the order
// they were attached to it (topology.Host.Rank) makes a host's native
// address a function of its domain and that number alone.
func NativeVN(asn int, i uint64) VN {
	p := DomainVNPrefix(asn)
	return VN{Hi: p.Addr.Hi, Lo: p.Addr.Lo + i + 1}
}
